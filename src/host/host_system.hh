/**
 * @file
 * The assembled platform: host CPU/OS/DRAM, PCIe fabric, Morpheus-SSD,
 * GPU, NVMe driver, and power model — plus a minimal extent-based
 * "file system" for placing workload inputs on the SSD.
 *
 * This is the top-level object examples, tests, and benches construct.
 */

#ifndef MORPHEUS_HOST_HOST_SYSTEM_HH
#define MORPHEUS_HOST_HOST_SYSTEM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "host/cpu_model.hh"
#include "host/gpu_model.hh"
#include "host/host_memory.hh"
#include "host/os_model.hh"
#include "host/power_model.hh"
#include "host/storage_backend.hh"
#include "host/system_config.hh"
#include "nvme/driver.hh"
#include "sim/event_queue.hh"
#include "ssd/ssd_controller.hh"

namespace morpheus::host {

/** A contiguous file on the SSD (or alternative backend). */
struct FileExtent
{
    std::string name;
    std::uint64_t startByte = 0;  ///< Device byte offset (page aligned).
    std::uint64_t sizeBytes = 0;  ///< Logical file length.
    sim::Tick readyAt = 0;        ///< Tick the ingest write finished.
    unsigned deviceId = 0;        ///< SSD holding the extent (fleet).
};

/** The whole simulated machine. */
class HostSystem
{
  public:
    explicit HostSystem(const SystemConfig &config = {});

    const SystemConfig &config() const { return _config; }

    sim::EventQueue &eventQueue() { return _eq; }
    pcie::PcieSwitch &fabric() { return _fabric; }
    HostMemory &mem() { return _mem; }
    HostCpu &cpu() { return _cpu; }
    OsModel &os() { return _os; }
    Gpu &gpu() { return *_gpu; }
    PowerModel &power() { return _power; }

    /** SSD @p device (0 = the classic single device). */
    ssd::SsdController &ssd(unsigned device = 0)
    {
        return *_ssds.at(device);
    }
    /** The NVMe driver bound to SSD @p device. */
    nvme::NvmeDriver &nvmeDriver(unsigned device = 0)
    {
        return *_drivers.at(device);
    }
    /** Number of SSDs behind the switch. */
    unsigned numSsds() const
    {
        return static_cast<unsigned>(_ssds.size());
    }

    pcie::PortId hostPort() const { return _hostPort; }
    pcie::PortId ssdPort(unsigned device = 0) const
    {
        return _ssdPorts.at(device);
    }
    pcie::PortId gpuPort() const { return _gpuPort; }

    /** The default I/O queue pair (device 0). */
    std::uint16_t ioQueue() const { return _ioQueues.front().front(); }

    /** Per-core I/O queue pair on device 0 (wraps modulo). */
    std::uint16_t
    ioQueue(unsigned core) const
    {
        return ioQueue(0, core);
    }

    /** Per-core I/O queue pair on SSD @p device (wraps modulo). */
    std::uint16_t
    ioQueue(unsigned device, unsigned core) const
    {
        const auto &queues = _ioQueues.at(device);
        return queues[core % queues.size()];
    }

    /** Number of I/O queue pairs created per device. */
    unsigned numIoQueues() const
    {
        return static_cast<unsigned>(_ioQueues.front().size());
    }

    /**
     * Allocate @p bytes of host DRAM, rounded up to whole pages: the
     * most recently freed buffer of the same rounded size if there is
     * one, else fresh space from the bump pointer. @return bus address.
     */
    pcie::Addr allocHost(std::uint64_t bytes);

    /**
     * Return a buffer from allocHost(@p bytes) for reuse. Its bytes
     * stay in place; the next allocHost of the same rounded size gets
     * it back (LIFO, so allocation stays deterministic).
     */
    void freeHost(pcie::Addr addr, std::uint64_t bytes);

    /** Reset the host allocator and drop its free lists (between
     *  benchmark runs). */
    void resetHostAllocator();

    /**
     * Create a file of @p data bytes on SSD 0 via the normal write
     * path (setup step). @return the extent descriptor.
     */
    FileExtent createFile(const std::string &name,
                          const std::vector<std::uint8_t> &data);

    /** createFile() on a specific SSD (shard placement). */
    FileExtent createFileOn(unsigned device, const std::string &name,
                            const std::vector<std::uint8_t> &data);

    /** Look up a previously created file. */
    const FileExtent &file(const std::string &name) const;

    /** Functional read-back of a file's bytes (validation). */
    std::vector<std::uint8_t> fileBytes(const FileExtent &extent) const;

    /** SSD @p device exposed through the StorageBackend interface. */
    StorageBackend &ssdBackend(unsigned device = 0)
    {
        return *_ssdBackends.at(device);
    }

    /**
     * Register every component's statistics under conventional
     * prefixes ("ssd.", "host.", "gpu.", "pcie."); the set's report()
     * then dumps the whole machine deterministically.
     */
    void registerStats(sim::stats::StatSet &set);

  private:
    /** Effective SsdConfig for device @p d (override or template),
     *  with the fleet label stamped for devices >= 1. */
    ssd::SsdConfig deviceConfig(unsigned d) const;

    SystemConfig _config;
    sim::EventQueue _eq;
    pcie::PcieSwitch _fabric;

    /** Port order is fixed for reproducibility: host(0), ssd(1),
     *  gpu(2), then extra fleet SSDs ssd1, ssd2, ... */
    pcie::PortId _hostPort;
    std::vector<pcie::PortId> _ssdPorts;
    pcie::PortId _gpuPort;

    HostMemory _mem;
    HostCpu _cpu;
    OsModel _os;
    PowerModel _power;
    std::vector<std::unique_ptr<ssd::SsdController>> _ssds;
    std::unique_ptr<Gpu> _gpu;
    std::vector<std::unique_ptr<nvme::NvmeDriver>> _drivers;
    /** [device][core] -> queue id. */
    std::vector<std::vector<std::uint16_t>> _ioQueues;
    std::vector<std::unique_ptr<NvmeBackend>> _ssdBackends;

    pcie::Addr _hostAllocTop;
    pcie::Addr _hostAllocBase;
    /** Freed host buffers by page-rounded size, reused LIFO. */
    std::map<std::uint64_t, std::vector<pcie::Addr>> _hostFree;
    /** Per-device file-placement cursor (page aligned). */
    std::vector<std::uint64_t> _nextFileByte;
    std::unordered_map<std::string, FileExtent> _files;
};

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_HOST_SYSTEM_HH
