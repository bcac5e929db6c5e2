/**
 * @file
 * The scheduler front end the SSD firmware consults before executing a
 * Morpheus command.
 *
 * SsdScheduler composes the two mechanisms of the subsystem: the
 * TenantArbiter (admission of MINIT instances and the declared-backlog
 * ledger) and the CoreDispatcher (instance placement on embedded
 * cores). The SSD controller calls admitCommand() before handing an M*
 * command to the device runtime and onCommandDone() with the result,
 * so the runtime itself only needs the dispatcher for placement.
 */

#ifndef MORPHEUS_SCHED_SSD_SCHEDULER_HH
#define MORPHEUS_SCHED_SSD_SCHEDULER_HH

#include <string>

#include "nvme/controller.hh"
#include "obs/metrics.hh"
#include "sched/core_dispatcher.hh"
#include "sched/sched_config.hh"
#include "sched/tenant_arbiter.hh"

namespace morpheus::sched {

/** Front-end verdict on one Morpheus command. */
struct FrontEndDecision
{
    /** Tick the command may start executing (>= its arrival). */
    sim::Tick start = 0;
    /** kSuccess to proceed; any other status completes the command
     *  immediately (kInstanceBusy: retry). */
    nvme::Status status = nvme::Status::kSuccess;
    /** Completion DW0 payload for refusals: the retry-after hint in
     *  microseconds on kInstanceBusy (0 = no hint). */
    std::uint32_t dw0 = 0;
};

/** Admission + placement for the Morpheus command path. */
class SsdScheduler
{
  public:
    /** @p track_prefix prefixes the scheduler's trace tracks
     *  ("dev1.sched.tenant[N]", "dev1.sched.dispatcher") so fleet runs
     *  keep one track per device; empty keeps the classic names. */
    SsdScheduler(const SchedConfig &config, unsigned num_cores,
                 CoreDispatcher::LoadProbe probe,
                 CoreDispatcher::DsramProbe dsram_probe = {},
                 std::string track_prefix = {});

    TenantArbiter &arbiter() { return _arbiter; }
    CoreDispatcher &dispatcher() { return _dispatcher; }

    /**
     * Gate one M* command arriving at @p arrival. MINIT goes through
     * admission (the tenant ID rides in cdw15, for tracing); MREAD and
     * MWRITE drain their instance's declared backlog and, like
     * MDEINIT, always pass.
     */
    FrontEndDecision admitCommand(const nvme::Command &cmd,
                                  sim::Tick arrival);

    /**
     * Report the execution result of a command previously admitted at
     * @p start. Feeds completion ticks back into admission and the
     * service-rate estimate, and releases placement and
     * admission state for finished or failed instances.
     */
    void onCommandDone(const nvme::Command &cmd, sim::Tick start,
                       const nvme::CommandResult &result);

    void writeStats(obs::MetricsRegistry &reg,
                    const std::string &prefix) const;

    /** MINITs bounced for lack of D-SRAM budget so far (the hybrid
     *  layer's scratchpad-pressure signal). */
    std::uint64_t dsramBounces() const { return _dsramBounces.value(); }

  private:
    /** Span-track prefix ("" for device 0, "dev1." etc. in a fleet). */
    const std::string _trackPrefix;
    TenantArbiter _arbiter;
    CoreDispatcher _dispatcher;
    /** MINITs the runtime bounced for lack of D-SRAM budget. */
    sim::stats::Counter _dsramBounces;
};

}  // namespace morpheus::sched

#endif  // MORPHEUS_SCHED_SSD_SCHEDULER_HH
