/**
 * @file
 * The SSD's embedded processors (Tensilica LX class).
 *
 * Each core is an in-order processor with private I-SRAM (code) and
 * D-SRAM (data), no FPU (floating-point work is charged at a software
 * emulation rate), and a cost model that converts serde::ParseCost
 * operation counts into cycles. Firmware (FTL upkeep) and StorageApps
 * share these cores; the paper maps every packet of one instance ID to
 * one fixed core.
 */

#ifndef MORPHEUS_SSD_EMBEDDED_CORE_HH
#define MORPHEUS_SSD_EMBEDDED_CORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "serde/parse.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"

namespace morpheus::ssd {

/** Embedded-core microarchitecture parameters. */
struct EmbeddedCoreConfig
{
    double clockHz = 500e6;     ///< 500 MHz in-order core.
    std::uint32_t isramBytes = 128 * 1024;
    std::uint32_t dsramBytes = 256 * 1024;

    /** Whether the core has a hardware FPU (ablation knob). */
    bool hasFpu = false;

    /**
     * Cycles to scan one input byte (compare/branch/advance). The
     * device library's parse loop runs from I-SRAM with word-wide
     * loads and no cache misses, so it sustains under a cycle per
     * byte on the Tensilica-class core (this is what lets the 500 MHz
     * cores beat a 2.5 GHz Xeon that spends ~85% of its time in OS
     * overhead, paper Fig 8).
     */
    double cyclesPerByteScan = 0.55;
    /** Fixed cycles per integer value conversion (accumulate+store). */
    double cyclesPerIntValue = 4.4;
    /** Cycles per float op with a hardware FPU. */
    double cyclesPerFloatOpHw = 1.5;
    /** Cycles per float op under software emulation (no FPU). */
    double cyclesPerFloatOpSoft = 12.0;
    /** Fixed cycles of firmware work to process one MREAD chunk. */
    double cyclesPerCommand = 2000.0;
    /** Cycles to program one ms_memcpy DMA descriptor (per flush). */
    double cyclesPerFlush = 600.0;

    double
    cyclesPerFloatOp() const
    {
        return hasFpu ? cyclesPerFloatOpHw : cyclesPerFloatOpSoft;
    }

    /** Cycles to deserialize the counted operations. */
    double
    parseCycles(const serde::ParseCost &cost) const
    {
        return static_cast<double>(cost.bytes) * cyclesPerByteScan +
               static_cast<double>(cost.intValues) * cyclesPerIntValue +
               static_cast<double>(cost.floatOps) * cyclesPerFloatOp();
    }

    /** Wall time to deserialize the counted operations. */
    sim::Tick
    parseTicks(const serde::ParseCost &cost) const
    {
        return sim::cyclesToTicks(parseCycles(cost), clockHz);
    }

    sim::Tick
    commandTicks() const
    {
        return sim::cyclesToTicks(cyclesPerCommand, clockHz);
    }
};

/**
 * One embedded core: occupancy timeline + loaded-image bookkeeping +
 * per-instance D-SRAM budget accounting (the data-side mirror of the
 * I-SRAM image bookkeeping).
 */
class EmbeddedCore
{
  public:
    /** @p track_prefix prefixes this core's occupancy track
     *  ("dev1.ssd.core[0]") in fleet runs; empty keeps the classic
     *  single-device name. */
    EmbeddedCore(unsigned id, const EmbeddedCoreConfig &config,
                 const std::string &track_prefix = {})
        : _id(id), _config(config),
          _timeline(track_prefix + "ssd.core[" + std::to_string(id) +
                    "]")
    {}

    unsigned id() const { return _id; }
    const EmbeddedCoreConfig &config() const { return _config; }

    /**
     * Occupy the core for @p cycles of work starting no earlier than
     * @p earliest. @return completion tick.
     */
    sim::Tick
    execute(double cycles, sim::Tick earliest)
    {
        const sim::Tick dur = sim::cyclesToTicks(cycles, _config.clockHz);
        _cyclesExecuted += static_cast<std::uint64_t>(cycles);
        return _timeline.acquireUntil(earliest, dur);
    }

    /**
     * execute(), plus a trace span named @p span_name on this core's
     * track when a sink is attached (acquireUntil returns start + dur,
     * so the occupancy interval is exact).
     */
    sim::Tick
    execute(double cycles, sim::Tick earliest, const char *span_name,
            const obs::SpanCtx &ctx)
    {
        const sim::Tick done = execute(cycles, earliest);
        obs::SpanCtx on_core = ctx;
        on_core.core = _id;
        obs::traceSpan(_timeline.name(), span_name, "ssd",
                       done - sim::cyclesToTicks(cycles, _config.clockHz),
                       done, on_core);
        return done;
    }

    /**
     * Occupy the core for a fixed simulated duration regardless of the
     * cycle cost model — a hung StorageApp spinning until the
     * controller watchdog's deadline (fault injection). @return the
     * tick the core frees up.
     */
    sim::Tick
    seize(sim::Tick earliest, sim::Tick dur)
    {
        return _timeline.acquireUntil(earliest, dur);
    }

    /**
     * Load a code image into I-SRAM. @return false if it does not fit
     * next to the images already resident.
     */
    bool loadImage(std::uint32_t image_bytes);

    /** Release a previously loaded image. */
    void unloadImage(std::uint32_t image_bytes);

    /**
     * Reserve a per-instance D-SRAM budget. @return false when the
     * grant does not fit next to the budgets already reserved — the
     * co-resident grants may never overcommit the scratchpad.
     */
    bool reserveDsram(std::uint32_t bytes);

    /** Release a previously reserved D-SRAM budget. */
    void releaseDsram(std::uint32_t bytes);

    std::uint32_t isramUsed() const { return _isramUsed; }
    std::uint32_t dsramUsed() const { return _dsramUsed; }
    std::uint32_t
    dsramFree() const
    {
        return _config.dsramBytes - _dsramUsed;
    }
    std::uint64_t cyclesExecuted() const { return _cyclesExecuted; }
    const sim::Timeline &timeline() const { return _timeline; }

  private:
    unsigned _id;
    EmbeddedCoreConfig _config;
    sim::Timeline _timeline;
    std::uint32_t _isramUsed = 0;
    std::uint32_t _dsramUsed = 0;
    std::uint64_t _cyclesExecuted = 0;
};

}  // namespace morpheus::ssd

#endif  // MORPHEUS_SSD_EMBEDDED_CORE_HH
