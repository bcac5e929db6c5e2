/**
 * @file
 * Storage backends for the Fig 3 device comparison.
 *
 * The conventional deserialization path is measured against three
 * devices: the NVMe SSD (the full simulated device), a SATA magnetic
 * disk (158 MB/s sustained, seek-limited on non-sequential access),
 * and a RAM drive carved out of host DRAM. Each backend delivers real
 * bytes into host memory and returns the tick at which the data is
 * available.
 */

#ifndef MORPHEUS_HOST_STORAGE_BACKEND_HH
#define MORPHEUS_HOST_STORAGE_BACKEND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "host/host_memory.hh"
#include "nvme/driver.hh"
#include "sim/timeline.hh"

namespace morpheus::host {

/** Outcome of a backend read or a host-path execution: the tick it
 *  ended at, and the status of the NVMe command that failed it (the
 *  HDD and the RAM drive never fail). */
struct IoResult
{
    sim::Tick done = 0;
    nvme::Status status = nvme::Status::kSuccess;

    bool ok() const { return status == nvme::Status::kSuccess; }
};

/** A device files can be read from. */
class StorageBackend
{
  public:
    virtual ~StorageBackend() = default;

    virtual std::string name() const = 0;

    /** Store file bytes at @p offset in the device's address space
     *  (setup step; timing is not part of any measured phase).
     *  @return tick at which the device is quiescent again. */
    virtual sim::Tick ingest(std::uint64_t offset,
                             const std::vector<std::uint8_t> &data) = 0;

    /**
     * Read @p len bytes at @p offset into host memory at @p dst.
     * @return tick at which the data is resident in host memory, or
     * the failed command's status and completion tick.
     */
    virtual IoResult read(std::uint64_t offset, std::uint64_t len,
                          pcie::Addr dst, sim::Tick earliest) = 0;
};

/** The simulated NVMe SSD behind the NVMe driver. */
class NvmeBackend : public StorageBackend
{
  public:
    NvmeBackend(nvme::NvmeDriver &driver, std::uint16_t qid,
                HostMemory &host_mem);

    std::string name() const override { return "nvme-ssd"; }
    sim::Tick ingest(std::uint64_t offset,
                     const std::vector<std::uint8_t> &data) override;
    IoResult read(std::uint64_t offset, std::uint64_t len,
                  pcie::Addr dst, sim::Tick earliest) override;

  private:
    nvme::NvmeDriver &_driver;
    std::uint16_t _qid;
    HostMemory &_hostMem;
};

/** SATA magnetic disk: 158 MB/s sustained, milliseconds per seek. */
class HddBackend : public StorageBackend
{
  public:
    explicit HddBackend(HostMemory &host_mem);

    std::string name() const override { return "hdd"; }
    sim::Tick ingest(std::uint64_t offset,
                     const std::vector<std::uint8_t> &data) override;
    IoResult read(std::uint64_t offset, std::uint64_t len,
                  pcie::Addr dst, sim::Tick earliest) override;

    /** Tuning (defaults: 7200 rpm data-center disk of the era; the
     *  average seek counts settling + rotational latency). */
    double bytesPerSec = 158.0 * sim::kMBps;
    sim::Tick seekTime = 4 * sim::kPsPerMs;

  private:
    HostMemory &_hostMem;
    SparseMemory _platter{1ULL << 40};
    sim::Timeline _arm{"hdd.arm"};
    std::uint64_t _headPos = ~std::uint64_t(0);
};

/** RAM drive in host DRAM: reads are kernel memcpys. */
class RamDriveBackend : public StorageBackend
{
  public:
    explicit RamDriveBackend(HostMemory &host_mem);

    std::string name() const override { return "ramdrive"; }
    sim::Tick ingest(std::uint64_t offset,
                     const std::vector<std::uint8_t> &data) override;
    IoResult read(std::uint64_t offset, std::uint64_t len,
                  pcie::Addr dst, sim::Tick earliest) override;

  private:
    HostMemory &_hostMem;
    SparseMemory _image{16ULL * sim::kGiB};
};

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_STORAGE_BACKEND_HH
