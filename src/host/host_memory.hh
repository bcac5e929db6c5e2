/**
 * @file
 * Host DRAM: functional store (a pcie::BusTarget so devices DMA real
 * bytes into it) + CPU-memory-bus traffic accounting and bandwidth
 * occupancy. The paper's "traffic on the CPU-memory bus" numbers come
 * from the counters here.
 */

#ifndef MORPHEUS_HOST_HOST_MEMORY_HH
#define MORPHEUS_HOST_HOST_MEMORY_HH

#include <cstdint>

#include "host/sparse_memory.hh"
#include "obs/metrics.hh"
#include "pcie/pcie.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"

namespace morpheus::host {

/** DRAM parameters (DDR3-1600, one channel pair). */
struct HostMemoryConfig
{
    std::uint64_t size = 16ULL * sim::kGiB;
    double bytesPerSec = 12.8 * sim::kGBps;
};

/** Host main memory. */
class HostMemory : public pcie::BusTarget
{
  public:
    explicit HostMemory(const HostMemoryConfig &config)
        : _config(config), _store(config.size)
    {}

    const HostMemoryConfig &config() const { return _config; }
    SparseMemory &store() { return _store; }
    const SparseMemory &store() const { return _store; }

    // BusTarget: DMA from devices also rides the memory bus.
    void
    busWrite(pcie::Addr offset, const std::uint8_t *data,
             std::size_t n) override
    {
        _store.write(offset, data, n);
        _busBytesWritten += n;
    }

    void
    busRead(pcie::Addr offset, std::uint8_t *out,
            std::size_t n) const override
    {
        _store.read(offset, out, n);
        _busBytesRead += n;
    }

    /**
     * Charge a CPU-side access of @p bytes on the memory bus.
     * @return completion tick of the occupancy.
     */
    sim::Tick
    cpuAccess(std::uint64_t bytes_read, std::uint64_t bytes_written,
              sim::Tick earliest)
    {
        _busBytesRead += bytes_read;
        _busBytesWritten += bytes_written;
        const sim::Tick dur = sim::transferTicks(
            bytes_read + bytes_written, _config.bytesPerSec);
        return _bus.acquireUntil(earliest, dur);
    }

    std::uint64_t busBytesRead() const { return _busBytesRead.value(); }
    std::uint64_t busBytesWritten() const
    {
        return _busBytesWritten.value();
    }
    std::uint64_t
    busBytesTotal() const
    {
        return _busBytesRead.value() + _busBytesWritten.value();
    }

    void
    writeStats(obs::MetricsRegistry &reg,
               const std::string &prefix) const
    {
        reg.insertCounter(prefix + ".busBytesRead", _busBytesRead.value());
        reg.insertCounter(prefix + ".busBytesWritten",
                          _busBytesWritten.value());
        reg.insertCounter(prefix + ".residentBytes", _store.residentBytes());
    }

  private:
    HostMemoryConfig _config;
    SparseMemory _store;
    sim::Timeline _bus{"host.membus"};
    /** Mutable: busRead is const in the BusTarget interface. */
    mutable sim::stats::Counter _busBytesRead;
    sim::stats::Counter _busBytesWritten;
};

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_HOST_MEMORY_HH
