/**
 * @file
 * Operating system overhead model.
 *
 * Charges (in CPU cycles, so they scale with DVFS) the costs the paper
 * identifies around the conventional deserialization path:
 *  - read()/open() syscalls (mode switch, VFS dispatch),
 *  - per-byte file-system work (page-cache lookup, copy_to_user,
 *    locking, POSIX bookkeeping) — the ~85% of parse time the §II
 *    profile attributes to "file system operations",
 *  - context switches (blocking I/O, page faults), which Fig 10
 *    counts.
 */

#ifndef MORPHEUS_HOST_OS_MODEL_HH
#define MORPHEUS_HOST_OS_MODEL_HH

#include <cstdint>

#include "host/cpu_model.hh"
#include "obs/metrics.hh"
#include "sim/stats.hh"

namespace morpheus::host {

/** OS cost parameters (cycles at the current CPU clock). */
struct OsConfig
{
    /** Fixed cycles per read()/write() syscall. */
    double syscallCycles = 9000.0;
    /** Per-byte file-system path cycles (page cache + copy + locks). */
    double fsCyclesPerByte = 10.5;
    /** Cycles per context switch (save/restore, scheduler, cache). */
    double contextSwitchCycles = 7000.0;
    /** Cycles to service a soft page fault. */
    double pageFaultCycles = 4000.0;
    /** Page size for fault accounting. */
    std::uint32_t pageBytes = 4096;
};

/** Per-host OS state: overhead charging and event accounting. */
class OsModel
{
  public:
    OsModel(const OsConfig &config, HostCpu &cpu)
        : _config(config), _cpu(cpu)
    {}

    const OsConfig &config() const { return _config; }

    /**
     * Charge one blocking read() of @p bytes on @p core: syscall entry,
     * FS per-byte work, and the pair of context switches the blocking
     * wait costs. The device time itself is NOT included.
     *
     * @return tick when the CPU-side work is done.
     */
    sim::Tick
    blockingReadOverhead(unsigned core, std::uint64_t bytes,
                         sim::Tick earliest)
    {
        ++_syscalls;
        _contextSwitches += 2;  // block + wake
        const double cycles =
            _config.syscallCycles +
            _config.fsCyclesPerByte * static_cast<double>(bytes) +
            2.0 * _config.contextSwitchCycles;
        return _cpu.execute(core, cycles, earliest);
    }

    /** Charge a syscall with no data movement (open, fstat, ...). */
    sim::Tick
    syscall(unsigned core, sim::Tick earliest)
    {
        ++_syscalls;
        return _cpu.execute(core, _config.syscallCycles, earliest);
    }

    /** Charge one voluntary context-switch pair (sleep + wake). */
    sim::Tick
    blockingWait(unsigned core, sim::Tick earliest)
    {
        _contextSwitches += 2;
        return _cpu.execute(core, 2.0 * _config.contextSwitchCycles,
                            earliest);
    }

    /** Charge @p count soft page faults (first-touch of new buffers). */
    sim::Tick
    pageFaults(unsigned core, std::uint64_t count, sim::Tick earliest)
    {
        _pageFaults += count;
        _contextSwitches += count;  // fault entry/exit counted once
        return _cpu.execute(
            core, _config.pageFaultCycles * static_cast<double>(count),
            earliest);
    }

    /** Faults for first-touch of a buffer of @p bytes. */
    std::uint64_t
    faultsForBytes(std::uint64_t bytes) const
    {
        return (bytes + _config.pageBytes - 1) / _config.pageBytes;
    }

    std::uint64_t contextSwitches() const
    {
        return _contextSwitches.value();
    }
    std::uint64_t syscalls() const { return _syscalls.value(); }
    std::uint64_t pageFaultCount() const { return _pageFaults.value(); }

    void
    writeStats(obs::MetricsRegistry &reg,
               const std::string &prefix) const
    {
        reg.insertCounter(prefix + ".contextSwitches",
                          _contextSwitches.value());
        reg.insertCounter(prefix + ".syscalls", _syscalls.value());
        reg.insertCounter(prefix + ".pageFaults", _pageFaults.value());
    }

  private:
    OsConfig _config;
    HostCpu &_cpu;
    sim::stats::Counter _contextSwitches;
    sim::stats::Counter _syscalls;
    sim::stats::Counter _pageFaults;
};

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_OS_MODEL_HH
