/**
 * @file
 * Configuration of the multi-tenant StorageApp scheduler.
 *
 * The paper runs one invocation at a time and statically maps each
 * instance to core `instance_id % numCores` (§IV-B). Under concurrent
 * multi-tenant traffic that mapping lets one hot tenant monopolize a
 * core while others idle, so the scheduler adds three independent,
 * individually switchable mechanisms:
 *
 *  - placement: static modulo (the paper's policy, the default) or
 *    load-aware shortest-queue placement at MINIT; an instance stays
 *    on its core until MDEINIT;
 *  - admission: a bound on in-flight MINIT instances per tenant and
 *    device-wide, with a queue-or-reject policy;
 *  - arbitration: weighted deficit pacing of MREAD/MWRITE streams so
 *    backlogged tenants share embedded-core bandwidth by weight.
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

/** What happens to a MINIT beyond the in-flight instance bound. */
enum class AdmissionPolicy {
    kQueue,   ///< Delay the MINIT until an instance slot frees.
    kReject   ///< Complete it with kAdmissionDenied.
};

/** Scheduler knobs (part of ssd::SsdConfig). */
struct SchedConfig
{
    PlacementPolicy placement = PlacementPolicy::kStatic;

    /**
     * Place new instances by declared stream bytes instead of resident
     * count (load-aware placement only). MINIT carries the stream's
     * byte length in its otherwise unused SLBA field; the dispatcher
     * tracks those declared-but-unserved bytes per core and packs a new
     * instance onto the core with the fewest pending bytes, so one
     * huge stream no longer counts the same as a tiny one. Instances
     * that declare nothing (SLBA = 0) fall back to resident-count
     * packing among themselves.
     */
    bool backlogAwarePlacement = false;

    /**
     * Partition each core's D-SRAM between co-resident instances: a
     * MINIT's requested budget (PRP2 low dword, default
     * dsramBytes / maxInstancesPerCore) is reserved on its core, its
     * staging context is built over the granted budget (flush
     * threshold clamped to it), and a MINIT whose grant does not fit
     * next to the budgets already reserved completes with
     * kDsramExhausted. Off = the paper's behaviour: every instance
     * sizes its context to the full scratchpad, so co-resident
     * instances silently overcommit it.
     */
    bool dsramPartitioning = false;
    /** Co-resident instances a core's D-SRAM is provisioned for: the
     *  default grant of a MINIT that requests no explicit budget is
     *  dsramBytes / maxInstancesPerCore. */
    unsigned maxInstancesPerCore = 4;

    /**
     * Admission-level overload valve: a MINIT whose declared stream
     * would push the device-wide declared-but-unserved backlog past
     * this many bytes completes with kOverloaded plus a retry-after
     * hint, instead of queueing work the device cannot start for a
     * long time. 0 (the default) disables the valve. This is the
     * explicit backpressure signal the hybrid serving layer converts
     * into host-path spill.
     */
    std::uint64_t overloadBacklogLimit = 0;

    AdmissionPolicy admission = AdmissionPolicy::kQueue;
    /** In-flight MINIT instances allowed per tenant (0 = unlimited). */
    unsigned maxInflightPerTenant = 0;
    /** In-flight MINIT instances allowed device-wide (0 = unlimited). */
    unsigned maxInflightTotal = 0;

    /** Enable weighted deficit arbitration of the data path. */
    bool arbitration = false;
    /** Deficit a tenant may run ahead of its weighted share before its
     *  commands are paced, in bytes (scaled by the tenant's weight). */
    std::uint64_t drrQuantumBytes = 64 * sim::kKiB;
    /** Hard bound on the pacing delay of any single command; this is
     *  what makes the arbiter starvation-free. */
    sim::Tick drrMaxDelay = 2 * sim::kPsPerMs;
};

}  // namespace morpheus::sched

#endif  // MORPHEUS_SCHED_SCHED_CONFIG_HH
