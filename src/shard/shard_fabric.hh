/**
 * @file
 * The shard fabric: N Morpheus-SSDs behind one PCIe switch, driven as
 * a single logical device.
 *
 * HostSystem owns the devices, drivers, and queue pairs; ShardFabric
 * layers the fleet semantics on top — one MorpheusDeviceRuntime +
 * MorpheusRuntime pair per device, a ShardRouter for placement,
 * fleet-wide replication of MINIT applet installs, MREAD fan-out with
 * completion merging, and SSD-to-SSD P2P rebalancing of a hot shard
 * over the switch (reusing the controller's flash/DRAM cost model and
 * the nvme_p2p-style BAR windows, here each device's CMB).
 */

#ifndef MORPHEUS_SHARD_SHARD_FABRIC_HH
#define MORPHEUS_SHARD_SHARD_FABRIC_HH

#include <memory>
#include <string>
#include <vector>

#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "shard/shard_router.hh"

namespace morpheus::shard {

/** A namespace striped across the fleet. */
struct ShardedFile
{
    std::string name;
    std::uint64_t sizeBytes = 0;
    /** Stripe-granular layout in global order (device + offsets). */
    std::vector<ShardSlice> layout;
    /** One extent per device that holds bytes, indexed by device id;
     *  devices without bytes hold an empty (sizeBytes = 0) extent. */
    std::vector<host::FileExtent> extents;
};

/** Outcome of a fleet-wide fanned-out invocation. */
struct FleetInvokeResult
{
    /** Per-device results, indexed by device (skipped devices keep a
     *  default-constructed entry with accepted = false). */
    std::vector<core::InvokeResult> perDevice;
    /** Merged view: start = min, done = max (the fleet completion is
     *  the straggler's), bytes/commands/wakeups summed. */
    core::InvokeResult merged;
    /** Every participating device accepted its MINIT. */
    bool accepted = true;
    /** Some participating device failed mid-stream. */
    bool failed = false;
    /** Whole-shard replays issued by fleet-level recovery. Each replay
     *  overwrites its device's entry in perDevice, so merged totals
     *  count every shard exactly once no matter how many attempts it
     *  took. */
    std::uint64_t replays = 0;
};

/** Drives the SSD fleet inside a HostSystem. */
class ShardFabric
{
  public:
    explicit ShardFabric(
        host::HostSystem &sys,
        ShardPolicy policy = ShardPolicy::kHash,
        std::uint64_t stripe_bytes = ShardRouter::kDefaultStripeBytes);

    host::HostSystem &sys() { return _sys; }
    ShardRouter &router() { return _router; }
    unsigned numDevices() const { return _sys.numSsds(); }

    core::MorpheusRuntime &runtime(unsigned device)
    {
        return *_runtimes.at(device);
    }
    core::MorpheusDeviceRuntime &deviceRuntime(unsigned device)
    {
        return *_deviceRuntimes.at(device);
    }
    core::NvmeP2p &p2p() { return _p2p; }

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

    /**
     * Stripe @p data across the fleet (router policy) and ingest each
     * device's shard through its normal write path. Per-device extents
     * are named "<name>.shard<d>".
     */
    ShardedFile ingestSharded(const std::string &name,
                              const std::vector<std::uint8_t> &data);

    /** Functional reassembly of a sharded file (validation). */
    std::vector<std::uint8_t> shardedBytes(const ShardedFile &f) const;

    /**
     * Fan a raw read of the whole sharded file out across the fleet
     * (per-slice kRead commands on each owning device's queues,
     * concurrent in simulated time) and deliver the reassembled bytes
     * at host address @p dst. @return the straggler's completion tick.
     */
    sim::Tick fleetRead(const ShardedFile &f, pcie::Addr dst,
                        sim::Tick now);

    /**
     * Invoke @p image over every shard of @p f: the MINIT applet
     * install is replicated to each device holding bytes, MREAD
     * streams fan out per shard (overlapping in simulated time), and
     * completions merge into FleetInvokeResult. Objects land in
     * per-device host buffers.
     */
    FleetInvokeResult fleetInvoke(const core::StorageAppImage &image,
                                  const ShardedFile &f, sim::Tick now,
                                  const core::InvokeOptions &opts = {});

    /**
     * SSD-to-SSD P2P rebalance: move @p extent to @p dst_device over
     * the switch — source flash -> source DRAM -> P2P DMA into the
     * destination's CMB window -> destination flash — without the
     * payload crossing the host port. @return the new extent (named
     * "<old>@dev<dst>"); @p done receives the completion tick.
     */
    host::FileExtent rebalance(const host::FileExtent &extent,
                               unsigned dst_device, sim::Tick now,
                               sim::Tick *done = nullptr);

  private:
    host::HostSystem &_sys;
    ShardRouter _router;
    core::NvmeP2p _p2p;
    std::vector<std::unique_ptr<core::MorpheusDeviceRuntime>>
        _deviceRuntimes;
    std::vector<std::unique_ptr<core::MorpheusRuntime>> _runtimes;
};

}  // namespace morpheus::shard

#endif  // MORPHEUS_SHARD_SHARD_FABRIC_HH
