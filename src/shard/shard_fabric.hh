/**
 * @file
 * The shard fabric: N Morpheus-SSDs behind one PCIe switch.
 *
 * HostSystem owns the devices, drivers, and queue pairs; ShardFabric
 * owns one MorpheusDeviceRuntime + MorpheusRuntime pair per device and
 * exposes the live per-device load signals hybrid placement reads.
 * Objects are placed whole, by key (shardForKey).
 */

#ifndef MORPHEUS_SHARD_SHARD_FABRIC_HH
#define MORPHEUS_SHARD_SHARD_FABRIC_HH

#include <memory>
#include <vector>

#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"

namespace morpheus::shard {

/** Drives the SSD fleet inside a HostSystem. */
class ShardFabric
{
  public:
    explicit ShardFabric(host::HostSystem &sys);

    unsigned numDevices() const { return _sys.numSsds(); }

    core::MorpheusRuntime &runtime(unsigned device)
    {
        return *_runtimes.at(device);
    }
    core::MorpheusDeviceRuntime &deviceRuntime(unsigned device)
    {
        return *_deviceRuntimes.at(device);
    }

    /** Enable driver recovery on every device's driver. */
    void setRecovery(const nvme::DriverRecoveryConfig &cfg);

    // --- live per-device load signals (hybrid placement) -------------

    /** Declared-but-unserved stream bytes on @p device (its
     *  arbiter's ledger). */
    std::uint64_t deviceBacklogBytes(unsigned device);

    /** Resident StorageApp instances across @p device's cores. */
    unsigned deviceQueueDepth(unsigned device);

    /** Cumulative kDsramExhausted MINIT bounces on @p device. */
    std::uint64_t deviceDsramBounces(unsigned device);

  private:
    host::HostSystem &_sys;
    core::NvmeP2p _p2p;
    std::vector<std::unique_ptr<core::MorpheusDeviceRuntime>>
        _deviceRuntimes;
    std::vector<std::unique_ptr<core::MorpheusRuntime>> _runtimes;
};

}  // namespace morpheus::shard

#endif  // MORPHEUS_SHARD_SHARD_FABRIC_HH
