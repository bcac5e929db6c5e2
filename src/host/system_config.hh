/**
 * @file
 * Master configuration of the simulated platform (paper §VI-A).
 *
 * One struct gathers every calibration knob. Defaults reproduce the
 * paper's testbed: quad-core Ivy Bridge EP Xeon at 1.2-2.5 GHz,
 * 16 GiB DDR3, NVIDIA K20 over PCIe 3.0 x16, and a 512 GB NVMe SSD
 * over PCIe 3.0 x4 whose Microsemi controller carries four FPU-less
 * embedded cores and 2 GiB of DRAM.
 */

#ifndef MORPHEUS_HOST_SYSTEM_CONFIG_HH
#define MORPHEUS_HOST_SYSTEM_CONFIG_HH

#include <vector>

#include "host/cpu_model.hh"
#include "host/gpu_model.hh"
#include "host/host_memory.hh"
#include "host/os_model.hh"
#include "host/power_model.hh"
#include "pcie/pcie.hh"
#include "ssd/ssd_controller.hh"

namespace morpheus::host {

/**
 * Largest fleet HostSystem builds. Device d >= 1 draws trace ids from
 * the block d << 24 of the 32-bit TraceId, so 256 devices would wrap
 * onto device 0's block, and block 0xFF is the serving driver's
 * host-trace block.
 */
constexpr unsigned kMaxSsds = 255;
/** I/O queue pairs per device (one per host core). */
constexpr unsigned kIoQueues = 4;

/** Everything needed to build a HostSystem. */
struct SystemConfig
{
    CpuConfig cpu;
    OsConfig os;
    HostMemoryConfig mem;
    GpuConfig gpu;
    PowerConfig power;
    ssd::SsdConfig ssd;

    /** Host root-complex uplink (wide; never the bottleneck). */
    pcie::LinkConfig hostLink{3, 16, 300 * sim::kPsPerNs};
    /** SSD link: PCIe 3.0 x4 (paper §VI-A). */
    pcie::LinkConfig ssdLink{3, 4, 500 * sim::kPsPerNs};
    /** GPU link: PCIe 3.0 x16. */
    pcie::LinkConfig gpuLink{3, 16, 500 * sim::kPsPerNs};

    /** I/O queue depth per NVMe queue pair. */
    std::uint16_t queueEntries = 256;

    /**
     * Number of SSDs behind the switch — the shard fleet size. The
     * default single device is bit-identical to the pre-fleet
     * platform: same port numbering, queue rings, trace tracks, and
     * trace ids. Devices beyond the first get ports after the GPU's,
     * labels "dev1", "dev2", ... and their own NVMe driver + queue
     * pairs + trace-id block. Must be in [1, kMaxSsds].
     */
    unsigned numSsds = 1;

    /** Per-device geometry overrides (FleetTopology fills this from
     *  JSON). Device d uses ssdConfigs[d] when present, else the
     *  template `ssd` above. */
    std::vector<ssd::SsdConfig> ssdConfigs;

    /** Bus address where the GPU BAR window is mapped by NVMe-P2P. */
    pcie::Addr gpuBarBase = 1ULL << 40;
};

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_SYSTEM_CONFIG_HH
