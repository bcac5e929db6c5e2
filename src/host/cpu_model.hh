/**
 * @file
 * Host CPU model: a quad-core Xeon (Ivy Bridge EP class) with DVFS
 * between 1.2 and 2.5 GHz and a deserialization cost model.
 *
 * The paper's §II microbenchmarks anchor the model: string-to-integer
 * conversion achieves IPC ~1.2 (poor ILP), and conversion proper is
 * only ~15% of the baseline's deserialization time — the rest is file
 * system / syscall work charged by OsModel. All costs are expressed in
 * cycles so every component scales with frequency (this is what makes
 * deserialization CPU-bound in Fig 3).
 */

#ifndef MORPHEUS_HOST_CPU_MODEL_HH
#define MORPHEUS_HOST_CPU_MODEL_HH

#include <cstdint>

#include "obs/metrics.hh"
#include "serde/parse.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"

namespace morpheus::host {

/** Host processor parameters. */
struct CpuConfig
{
    unsigned cores = 4;
    double maxFreqHz = 2.5e9;
    double minFreqHz = 1.2e9;

    /** Cycles to scan one input byte during parsing (IPC ~1.2). */
    double cyclesPerByteParse = 1.2;
    /** Fixed cycles per integer conversion. */
    double cyclesPerIntValue = 6.0;
    /** Cycles per floating-point op during conversion (has FPU). */
    double cyclesPerFloatOp = 1.5;
};

/** The host CPU: per-core occupancy + DVFS + parse cost model. */
class HostCpu
{
  public:
    explicit HostCpu(const CpuConfig &config)
        : _config(config), _freqHz(config.maxFreqHz),
          _cores("host.cpu", config.cores)
    {}

    const CpuConfig &config() const { return _config; }

    /** Current clock (DVFS). */
    double freqHz() const { return _freqHz; }

    /** Set the clock; clamped to the DVFS range. */
    void
    setFreqHz(double hz)
    {
        _freqHz = hz < _config.minFreqHz   ? _config.minFreqHz
                  : hz > _config.maxFreqHz ? _config.maxFreqHz
                                           : hz;
    }

    /** Cycles to convert the counted parse operations (compute only). */
    double
    convertCycles(const serde::ParseCost &cost) const
    {
        return static_cast<double>(cost.bytes) *
                   _config.cyclesPerByteParse +
               static_cast<double>(cost.intValues) *
                   _config.cyclesPerIntValue +
               static_cast<double>(cost.floatOps) *
                   _config.cyclesPerFloatOp;
    }

    /**
     * Occupy core @p core for @p cycles of work at the current clock.
     * @return the completion tick.
     */
    sim::Tick
    execute(unsigned core, double cycles, sim::Tick earliest)
    {
        _cyclesExecuted += static_cast<std::uint64_t>(cycles);
        const sim::Tick dur = sim::cyclesToTicks(cycles, _freqHz);
        return _cores.acquireUnit(core % _config.cores, earliest, dur) +
               dur;
    }

    /** Duration (no occupancy) of @p cycles at the current clock. */
    sim::Tick
    cyclesToTime(double cycles) const
    {
        return sim::cyclesToTicks(cycles, _freqHz);
    }

    const sim::Timeline &coreTimeline(unsigned core) const
    {
        return _cores.unit(core);
    }

    /** Queued work on @p core at @p now, in microseconds. */
    double
    coreBacklogUs(unsigned core, sim::Tick now) const
    {
        const sim::Tick free_at = coreTimeline(core).freeAt();
        if (free_at <= now)
            return 0.0;
        return static_cast<double>(free_at - now) /
               static_cast<double>(sim::kPsPerUs);
    }

    /** The core that frees up earliest (ties to the lowest index, so
     *  the pick is deterministic). */
    unsigned
    leastLoadedCore() const
    {
        unsigned best = 0;
        for (unsigned c = 1; c < _config.cores; ++c)
            if (coreTimeline(c).freeAt() < coreTimeline(best).freeAt())
                best = c;
        return best;
    }

    /** Backlog of the least-loaded core at @p now, in microseconds —
     *  the host-side load signal of the hybrid placement policy. */
    double
    minBacklogUs(sim::Tick now) const
    {
        return coreBacklogUs(leastLoadedCore(), now);
    }

    std::uint64_t cyclesExecuted() const
    {
        return _cyclesExecuted.value();
    }

    void
    writeStats(obs::MetricsRegistry &reg,
               const std::string &prefix) const
    {
        reg.insertCounter(prefix + ".cycles", _cyclesExecuted.value());
    }

  private:
    CpuConfig _config;
    double _freqHz;
    sim::TimelineBank _cores;
    sim::stats::Counter _cyclesExecuted;
};

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_CPU_MODEL_HH
