/**
 * @file
 * Discrete GPU model (NVIDIA K20 class: 2496 CUDA cores, 5 GB GDDR5,
 * PCIe 3.0 x16).
 *
 * Device memory is a functional store and a pcie::BusTarget, so the
 * SSD can DMA application objects straight into it once NVMe-P2P maps
 * it into a BAR window (paper §IV-C). Kernels are timed with a
 * roofline model (compute vs. memory bound); their numerical results
 * are produced functionally by the workload code so every execution
 * path can be validated.
 */

#ifndef MORPHEUS_HOST_GPU_MODEL_HH
#define MORPHEUS_HOST_GPU_MODEL_HH

#include <algorithm>
#include <cstdint>

#include "host/sparse_memory.hh"
#include "obs/metrics.hh"
#include "pcie/pcie.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"

namespace morpheus::host {

/** GPU parameters (defaults: NVIDIA Tesla K20). */
struct GpuConfig
{
    unsigned cudaCores = 2496;
    double clockHz = 706e6;
    std::uint64_t memBytes = 5ULL * sim::kGiB;
    double memBytesPerSec = 208.0 * sim::kGBps;  // GDDR5
    /** Sustained fraction of peak FLOPs real kernels reach. */
    double efficiency = 0.35;
    /**
     * Effective cudaMemcpy H2D bandwidth for pageable host memory
     * (staged through a pinned bounce buffer; well below the x16 link
     * rate on K20-era systems).
     */
    double h2dBytesPerSec = 3.3 * sim::kGBps;
    /** FLOPs per core per clock (FMA). */
    double flopsPerCoreCycle = 2.0;

    double
    peakFlops() const
    {
        return cudaCores * clockHz * flopsPerCoreCycle;
    }

    double
    sustainedFlops() const
    {
        return peakFlops() * efficiency;
    }
};

/** The discrete GPU device. */
class Gpu : public pcie::BusTarget
{
  public:
    Gpu(pcie::PcieSwitch &fabric, pcie::PortId port,
        const GpuConfig &config)
        : _fabric(fabric), _port(port), _config(config),
          _mem(config.memBytes)
    {}

    const GpuConfig &config() const { return _config; }
    pcie::PortId port() const { return _port; }
    SparseMemory &mem() { return _mem; }

    // BusTarget: device-memory window (offsets are device addresses).
    void
    busWrite(pcie::Addr offset, const std::uint8_t *data,
             std::size_t n) override
    {
        _mem.write(offset, data, n);
        _bytesDmaIn += n;
    }

    void
    busRead(pcie::Addr offset, std::uint8_t *out,
            std::size_t n) const override
    {
        _mem.read(offset, out, n);
    }

    /** Bump allocator for device buffers. @return device address. */
    std::uint64_t
    alloc(std::uint64_t bytes)
    {
        const std::uint64_t addr = _allocTop;
        _allocTop += (bytes + 255) & ~std::uint64_t(255);
        return addr;
    }

    /** Release everything allocated (between benchmark runs). */
    void resetAllocator() { _allocTop = 0; }

    /**
     * Time one kernel launch with @p flop floating-point work touching
     * @p mem_bytes of device memory (roofline: the slower of the
     * compute and bandwidth bounds), plus launch overhead.
     */
    sim::Tick
    kernel(double flop, std::uint64_t mem_bytes, sim::Tick earliest)
    {
        ++_kernels;
        const double t_compute = flop / _config.sustainedFlops();
        const double t_mem = static_cast<double>(mem_bytes) /
                             _config.memBytesPerSec;
        const sim::Tick dur =
            sim::secondsToTicks(t_compute > t_mem ? t_compute : t_mem) +
            kLaunchOverhead;
        return _sm.acquireUntil(earliest, dur);
    }

    /**
     * cudaMemcpy host->device of @p n bytes at @p host_addr: the GPU's
     * copy engine reads host memory across PCIe into device memory.
     * Timing only: nothing reads the copied bytes (kernels run
     * functionally in the workload code), so none are stored.
     */
    sim::Tick
    copyFromHost(pcie::Addr host_addr, std::size_t n, sim::Tick earliest)
    {
        _bytesDmaIn += n;
        sim::Tick link_done =
            _fabric.dmaRead(_port, host_addr, n, earliest);
        // Injected transient faults on the copy are replayed by the
        // copy engine (bounded so a rate of 1.0 cannot spin forever).
        for (unsigned tries = 0; _fabric.consumeDmaFault() && tries < 8;
             ++tries) {
            link_done = _fabric.dmaRead(_port, host_addr, n, link_done);
        }
        // Pageable-memory staging bounds the effective rate.
        const sim::Tick staged =
            earliest + sim::transferTicks(n, _config.h2dBytesPerSec);
        return std::max(link_done, staged);
    }

    std::uint64_t kernelsLaunched() const { return _kernels.value(); }

    void
    writeStats(obs::MetricsRegistry &reg,
               const std::string &prefix) const
    {
        reg.insertCounter(prefix + ".kernels", _kernels.value());
        reg.insertCounter(prefix + ".bytesDmaIn", _bytesDmaIn.value());
    }

  private:
    static constexpr sim::Tick kLaunchOverhead = 8 * sim::kPsPerUs;

    pcie::PcieSwitch &_fabric;
    pcie::PortId _port;
    GpuConfig _config;
    SparseMemory _mem;
    sim::Timeline _sm{"gpu.sm"};
    std::uint64_t _allocTop = 0;
    sim::stats::Counter _kernels;
    sim::stats::Counter _bytesDmaIn;
};

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_GPU_MODEL_HH
