/**
 * @file
 * The admission front end of the Morpheus command path.
 *
 * Admission tracks in-flight instances device-wide. Completed
 * instances are remembered with their completion ticks, so a queued
 * MINIT can be started exactly when a slot frees; an instance that is
 * still open (its MDEINIT has not executed yet) has an unknown
 * completion, in which case a queued MINIT is bounced back to the host
 * with a retry indication (NVMe-style backpressure).
 *
 * The arbiter also keeps the device's one ledger of declared stream
 * bytes. Backlog is declared in-band: MINIT carries the stream's byte
 * length (in its otherwise unused SLBA field), the arbiter drains it
 * as data commands arrive, and clears any residue when the instance
 * ends — state a real controller front end sees on its submission
 * queues. Together with a service-rate estimate of the data path it
 * sizes the retry-after hint of bounced commands.
 */

#ifndef MORPHEUS_SCHED_TENANT_ARBITER_HH
#define MORPHEUS_SCHED_TENANT_ARBITER_HH

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>

#include "obs/metrics.hh"
#include "sched/sched_config.hh"
#include "sim/stats.hh"

namespace morpheus::sched {

/** Outcome of an instance admission request. */
struct AdmitDecision
{
    sim::Tick start = 0;  ///< Earliest tick the MINIT may start.
    bool retry = false;   ///< Slot held by an open instance: retry.
};

/** The admission front end of the Morpheus command path. */
class TenantArbiter
{
  public:
    explicit TenantArbiter(const SchedConfig &config);

    // ------------------------------------------------ instance path

    /**
     * Admit one MINIT for @p instance arriving at @p arrival,
     * declaring @p backlog_bytes of upcoming stream data. Arrivals
     * must be non-decreasing in time.
     */
    AdmitDecision admitInstance(std::uint32_t instance, sim::Tick arrival,
                                std::uint64_t backlog_bytes = 0);

    /** The instance's MDEINIT completed at @p done. */
    void onInstanceDone(std::uint32_t instance, sim::Tick done);

    /** The instance's MINIT failed after admission, or the watchdog
     *  killed it: free its slot. */
    void dropInstance(std::uint32_t instance);

    // ------------------------------------------------ data path

    /** One MREAD/MWRITE of @p bytes for @p instance arrived: drain
     *  its declared backlog (clamped at zero). */
    void onDataArrival(std::uint32_t instance, std::uint64_t bytes);

    /** Service feedback: a data command of @p bytes ran [start, done).
     */
    void onDataDone(std::uint64_t bytes, sim::Tick start,
                    sim::Tick done);

    /** Declared-but-unserved bytes of one instance (0 when unknown) —
     *  the in-band MINIT SLBA declaration minus the data commands seen
     *  since. */
    std::uint64_t declaredBacklog(std::uint32_t instance) const;

    /** Device-wide declared-but-unserved bytes over every open
     *  instance — the hybrid layer's device-load signal. */
    std::uint64_t totalDeclaredBacklog() const { return _totalBacklog; }

    /**
     * NVMe-style retry-after hint, in microseconds, for a MINIT bounced
     * by admission or for lack of D-SRAM. Estimates when device pressure will ease:
     * the total declared-but-unserved backlog at the observed
     * data-path service rate, amortized over the open instances
     * draining it. Falls back to a fixed 50 us before any service-rate
     * observation exists. Clamped to [1, 65535] so it always fits a
     * CQE DW0 and a zero hint still means "no hint".
     */
    std::uint32_t retryAfterHintUs() const;

    // ------------------------------------------------ observability

    std::uint64_t instancesAdmitted() const { return _admitted.value(); }
    std::uint64_t instancesQueued() const { return _queued.value(); }
    unsigned openInstances() const { return _openTotal; }

    void writeStats(obs::MetricsRegistry &reg,
                    const std::string &prefix) const;

  private:
    /** Forget a live instance and its declared backlog residue.
     *  @return false when @p instance was not live. */
    bool releaseInstance(std::uint32_t instance);

    const SchedConfig _config;
    /** Declared stream bytes not yet seen as data commands, per live
     *  instance (admitted, not yet done or dropped). */
    std::unordered_map<std::uint32_t, std::uint64_t> _instanceBacklog;
    /** Sum of _instanceBacklog. */
    std::uint64_t _totalBacklog = 0;
    /** Admitted instances whose completion tick is still unknown. */
    unsigned _openTotal = 0;
    /** Completion ticks of finished instances not yet pruned. */
    std::multiset<sim::Tick> _closedDone;
    double _ewmaBytesPerTick = 0.0;

    sim::stats::Counter _admitted;
    sim::stats::Counter _queued;
    sim::stats::Counter _queuedDelayTicks;
};

}  // namespace morpheus::sched

#endif  // MORPHEUS_SCHED_TENANT_ARBITER_HH
