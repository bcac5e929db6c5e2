/**
 * @file
 * Configuration of the multi-tenant StorageApp scheduler.
 *
 * The paper runs one invocation at a time and statically maps each
 * instance to core `instance_id % numCores` (§IV-B). Under concurrent
 * multi-tenant traffic the scheduler adds three individually
 * switchable mechanisms:
 *
 *  - placement: static modulo (the paper's policy, the default) or
 *    load-aware shortest-queue placement at MINIT; an instance stays
 *    on its core until MDEINIT;
 *  - admission: a device-wide bound on in-flight MINIT instances;
 *    a MINIT past it queues behind closed instances or bounces back
 *    to the host behind open ones;
 *  - partitioning of each core's D-SRAM between co-resident instances.
 *
 * Every knob defaults to the paper's behaviour so the Fig 8-12
 * reproductions are untouched.
 */

#ifndef MORPHEUS_SCHED_SCHED_CONFIG_HH
#define MORPHEUS_SCHED_SCHED_CONFIG_HH

#include <cstdint>

#include "sim/types.hh"

namespace morpheus::sched {

/** How MINIT picks the embedded core serving an instance. */
enum class PlacementPolicy {
    kStatic,    ///< Paper §IV-B: instance_id % numCores.
    kLoadAware  ///< Shortest-queue (earliest-free core) placement.
};

/** Co-resident instances a core's D-SRAM is provisioned for: with
 *  partitioning, the default grant of a MINIT that requests no
 *  explicit budget is dsramBytes / kMaxInstancesPerCore. */
inline constexpr unsigned kMaxInstancesPerCore = 4;

/** Scheduler knobs (part of ssd::SsdConfig). */
struct SchedConfig
{
    PlacementPolicy placement = PlacementPolicy::kStatic;

    /**
     * Partition each core's D-SRAM between co-resident instances: a
     * MINIT's requested budget (PRP2 low dword, default
     * dsramBytes / kMaxInstancesPerCore) is reserved on its core, its
     * staging context is built over the granted budget (flush
     * threshold clamped to it), and a MINIT whose grant does not fit
     * next to the budgets already reserved completes with
     * kDsramExhausted. Off = the paper's behaviour: every instance
     * sizes its context to the full scratchpad, so co-resident
     * instances silently overcommit it.
     */
    bool dsramPartitioning = false;

    /** In-flight MINIT instances allowed device-wide (0 = unlimited). */
    unsigned maxInflightTotal = 0;
};

}  // namespace morpheus::sched

#endif  // MORPHEUS_SCHED_SCHED_CONFIG_HH
