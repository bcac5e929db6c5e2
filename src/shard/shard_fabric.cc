#include "shard/shard_fabric.hh"

#include <algorithm>
#include <utility>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace morpheus::shard {

namespace {

/** Rebalance DMA chunk: half the CMB window, so a chunk always fits. */
constexpr std::uint64_t kRebalanceChunkBytes = 8 * sim::kMiB;

}  // namespace

ShardFabric::ShardFabric(host::HostSystem &sys, ShardPolicy policy,
                         std::uint64_t stripe_bytes)
    : _sys(sys), _router(sys.numSsds(), policy, stripe_bytes),
      _p2p(sys)
{
    for (unsigned d = 0; d < _sys.numSsds(); ++d) {
        _deviceRuntimes.push_back(
            std::make_unique<core::MorpheusDeviceRuntime>(_sys.ssd(d)));
        _runtimes.push_back(std::make_unique<core::MorpheusRuntime>(
            _sys, *_deviceRuntimes[d], _p2p, d));
    }
}

void
ShardFabric::setRecovery(const nvme::DriverRecoveryConfig &cfg)
{
    for (unsigned d = 0; d < numDevices(); ++d)
        _sys.nvmeDriver(d).setRecovery(cfg);
}

std::uint64_t
ShardFabric::deviceBacklogBytes(unsigned device)
{
    return _sys.ssd(device).scheduler().arbiter().totalDeclaredBacklog();
}

unsigned
ShardFabric::deviceQueueDepth(unsigned device)
{
    auto &ssd = _sys.ssd(device);
    unsigned depth = 0;
    for (unsigned c = 0; c < ssd.numCores(); ++c)
        depth += ssd.scheduler().dispatcher().residents(c);
    return depth;
}

std::uint64_t
ShardFabric::deviceDsramBounces(unsigned device)
{
    return _sys.ssd(device).scheduler().dsramBounces();
}

ShardedFile
ShardFabric::ingestSharded(const std::string &name,
                           const std::vector<std::uint8_t> &data)
{
    ShardedFile f;
    f.name = name;
    f.sizeBytes = data.size();
    const std::uint64_t nsid = fnv1a(name.data(), name.size());
    f.layout = _router.splitRange(nsid, 0, data.size());

    // Assemble each device's shard in local-offset order. Placement
    // from byte 0 leaves no interior gaps: every earlier stripe on a
    // device is full, only the namespace's final stripe is partial.
    std::vector<std::vector<std::uint8_t>> blobs(numDevices());
    for (const ShardSlice &s : f.layout) {
        auto &blob = blobs[s.device];
        if (blob.size() < s.localOffset + s.bytes)
            blob.resize(s.localOffset + s.bytes, 0);
        std::copy_n(data.begin() +
                        static_cast<std::ptrdiff_t>(s.globalOffset),
                    s.bytes,
                    blob.begin() +
                        static_cast<std::ptrdiff_t>(s.localOffset));
    }
    f.extents.resize(numDevices());
    for (unsigned d = 0; d < numDevices(); ++d) {
        f.extents[d].deviceId = d;
        if (blobs[d].empty())
            continue;
        f.extents[d] = _sys.createFileOn(
            d, name + ".shard" + std::to_string(d), blobs[d]);
    }
    return f;
}

std::vector<std::uint8_t>
ShardFabric::shardedBytes(const ShardedFile &f) const
{
    std::vector<std::uint8_t> out(f.sizeBytes, 0);
    for (const ShardSlice &s : f.layout) {
        const host::FileExtent &ext = f.extents[s.device];
        const auto piece = _sys.ssd(s.device).peekBytes(
            ext.startByte + s.localOffset, s.bytes);
        std::copy(piece.begin(), piece.end(),
                  out.begin() +
                      static_cast<std::ptrdiff_t>(s.globalOffset));
    }
    return out;
}

sim::Tick
ShardFabric::fleetRead(const ShardedFile &f, pcie::Addr dst,
                       sim::Tick now)
{
    sim::Tick done = now;
    // Slices fan out per device; each device's queue/flash/link
    // timelines serialize its own slices while devices overlap.
    for (const ShardSlice &s : f.layout) {
        const host::FileExtent &ext = f.extents[s.device];
        const sim::Tick t = _sys.ssdBackend(s.device).read(
            ext.startByte + s.localOffset, s.bytes,
            dst + s.globalOffset, now);
        done = std::max(done, t);
    }
    return done;
}

FleetInvokeResult
ShardFabric::fleetInvoke(const core::StorageAppImage &image,
                         const ShardedFile &f, sim::Tick now,
                         const core::InvokeOptions &opts)
{
    FleetInvokeResult fleet;
    fleet.perDevice.resize(numDevices());
    std::vector<bool> participated(numDevices(), false);
    // Per-device object buffers, returned to the host allocator once
    // the merge has read the results.
    std::vector<std::pair<pcie::Addr, std::uint64_t>> buffers;
    const unsigned cores = _sys.cpu().config().cores;
    for (unsigned d = 0; d < numDevices(); ++d) {
        const host::FileExtent &ext = f.extents[d];
        if (ext.sizeBytes == 0) {
            fleet.perDevice[d].accepted = false;
            continue;
        }
        participated[d] = true;
        // The MINIT applet install is replicated per device (each
        // shard gets its own instance); streams then fan out and
        // overlap — the devices' flash, cores, and links are disjoint,
        // and each host thread spreads onto its own CPU core.
        core::InvokeOptions dev_opts = opts;
        dev_opts.hostCore = (opts.hostCore + d) % cores;
        core::MorpheusRuntime &rt = runtime(d);
        const core::MsStream stream =
            rt.streamCreate(ext, now, dev_opts.hostCore);
        // Object-size upper bound: int-heavy text parses to at most a
        // few binary bytes per text char; 4x + a page is conservative.
        const std::uint64_t target_bytes = 4 * ext.sizeBytes + 4096;
        const core::DmaTarget target = rt.hostTarget(target_bytes);
        buffers.emplace_back(target.addr, target_bytes);
        fleet.perDevice[d] =
            rt.invoke(image, stream, target, now, dev_opts);
        // Fleet-level recovery mirrors runner.cc: a shard invocation
        // that died on an injected fault (or bounced at admission) is
        // replayed whole — a fresh MINIT instance restreams the shard
        // from byte 0 and OVERWRITES the device's slot. Only the final
        // attempt's bytes/commands/wakeups survive into the merge, so
        // retries never double-count fleet totals. Bounded so a
        // rate-1.0 fault plan can't loop forever.
        for (unsigned replay = 0;
             (fleet.perDevice[d].failed ||
              !fleet.perDevice[d].accepted) &&
             _sys.nvmeDriver(d).recovery().enabled && replay < 8;
             ++replay) {
            const sim::Tick at = fleet.perDevice[d].done;
            const core::MsStream again =
                rt.streamCreate(ext, at, dev_opts.hostCore);
            fleet.perDevice[d] =
                rt.invoke(image, again, target, at, dev_opts);
            ++fleet.replays;
        }
    }
    // Merge once, from each participating device's final attempt only.
    bool first = true;
    for (unsigned d = 0; d < numDevices(); ++d) {
        if (!participated[d])
            continue;
        const core::InvokeResult &r = fleet.perDevice[d];
        fleet.accepted = fleet.accepted && r.accepted;
        fleet.failed = fleet.failed || r.failed;
        if (first) {
            fleet.merged = r;
            first = false;
        } else {
            fleet.merged.start = std::min(fleet.merged.start, r.start);
            fleet.merged.done = std::max(fleet.merged.done, r.done);
            fleet.merged.returnValue += r.returnValue;
            fleet.merged.objectBytes += r.objectBytes;
            fleet.merged.mreadCommands += r.mreadCommands;
            fleet.merged.hostWakeups += r.hostWakeups;
        }
    }
    fleet.merged.accepted = fleet.accepted;
    fleet.merged.failed = fleet.failed;
    for (const auto &[addr, bytes] : buffers)
        _sys.freeHost(addr, bytes);
    return fleet;
}

host::FileExtent
ShardFabric::rebalance(const host::FileExtent &extent,
                       unsigned dst_device, sim::Tick now,
                       sim::Tick *done)
{
    MORPHEUS_ASSERT(numDevices() > 1,
                    "rebalance needs a fleet (CMB windows are only "
                    "mapped with numSsds > 1)");
    MORPHEUS_ASSERT(dst_device < numDevices(),
                    "rebalance: no such device");
    MORPHEUS_ASSERT(dst_device != extent.deviceId,
                    "rebalance onto the owning device");

    ssd::SsdController &src = _sys.ssd(extent.deviceId);
    ssd::SsdController &dst = _sys.ssd(dst_device);
    const auto data = src.peekBytes(extent.startByte, extent.sizeBytes);

    host::FileExtent moved = _sys.reserveExtent(
        dst_device, extent.name + "@dev" + std::to_string(dst_device),
        extent.sizeBytes);

    // Source flash -> source DRAM -> P2P DMA into the destination's
    // CMB -> destination flash, chunked to the CMB window. The
    // payload crosses the switch between the two SSD ports and never
    // touches the host port.
    sim::Tick t = now;
    std::uint64_t off = 0;
    while (off < extent.sizeBytes) {
        const std::uint64_t len = std::min<std::uint64_t>(
            kRebalanceChunkBytes, extent.sizeBytes - off);
        const sim::Tick fetched =
            src.fetchToDram(extent.startByte + off, len, t);
        const sim::Tick landed = _sys.fabric().dmaWrite(
            _sys.ssdPort(extent.deviceId), _sys.cmbBase(dst_device),
            len, fetched);
        std::vector<std::uint8_t> chunk(
            data.begin() + static_cast<std::ptrdiff_t>(off),
            data.begin() + static_cast<std::ptrdiff_t>(off + len));
        t = dst.storeFromDram(moved.startByte + off, chunk, landed);
        off += len;
    }
    moved.readyAt = t;

    obs::traceSpan("shard.fabric", "rebalance", "shard", now, t);
    if (done)
        *done = t;
    return moved;
}

}  // namespace morpheus::shard
