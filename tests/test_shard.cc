/**
 * @file
 * Shard-fabric tests: router placement and range splitting, fleet
 * topology parsing, multi-SSD HostSystem construction, fleet-unique
 * trace ids and per-device span tracks, fan-out reads/invokes, and
 * SSD-to-SSD P2P rebalancing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/standard_apps.hh"
#include "obs/trace.hh"
#include "serde/formats.hh"
#include "serde/writer.hh"
#include "shard/fleet_topology.hh"
#include "shard/shard_fabric.hh"
#include "sim/fault.hh"
#include "workloads/generators.hh"
#include "workloads/serving.hh"

namespace co = morpheus::core;
namespace ho = morpheus::host;
namespace ob = morpheus::obs;
namespace sd = morpheus::serde;
namespace sh = morpheus::shard;
namespace sim = morpheus::sim;
namespace wk = morpheus::workloads;

namespace {

std::vector<std::uint8_t>
patternBytes(std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>((i * 131 + 7) & 0xFF);
    return out;
}

ho::SystemConfig
fleetConfig(unsigned ssds)
{
    ho::SystemConfig cfg;
    cfg.numSsds = ssds;
    return cfg;
}

}  // namespace

// ---- router ---------------------------------------------------------

TEST(ShardRouter, HashPlacementIsDeterministicAndInRange)
{
    sh::ShardRouter r(4, sh::ShardPolicy::kHash);
    std::map<unsigned, unsigned> hist;
    for (unsigned i = 0; i < 64; ++i) {
        const std::string key = "object." + std::to_string(i);
        const unsigned d = r.shardForKey(key);
        EXPECT_LT(d, 4u);
        EXPECT_EQ(d, r.shardForKey(key));  // stable
        ++hist[d];
    }
    // FNV over 64 keys must not degenerate to a single shard.
    EXPECT_GT(hist.size(), 1u);
}

TEST(ShardRouter, RangePolicyRoundRobinsStripes)
{
    sh::ShardRouter r(3, sh::ShardPolicy::kRange, 1 << 20);
    for (std::uint64_t s = 0; s < 9; ++s)
        EXPECT_EQ(r.shardForStripe(7, s), s % 3);
}

TEST(ShardRouter, ByteAndStripeRoutingAgree)
{
    sh::ShardRouter r(4, sh::ShardPolicy::kHash, 4096);
    for (std::uint64_t b : {0ULL, 4095ULL, 4096ULL, 123456ULL})
        EXPECT_EQ(r.shardForByte(9, b), r.shardForStripe(9, b / 4096));
}

TEST(ShardRouter, SplitRangeCoversExactlyAndMergesRuns)
{
    sh::ShardRouter r(2, sh::ShardPolicy::kRange, 4096);
    const auto slices = r.splitRange(1, 1000, 20000);
    std::uint64_t covered = 0, cursor = 1000;
    for (const sh::ShardSlice &s : slices) {
        EXPECT_EQ(s.globalOffset, cursor);
        EXPECT_LT(s.device, 2u);
        covered += s.bytes;
        cursor += s.bytes;
    }
    EXPECT_EQ(covered, 20000u);
    // Round-robin over 2 devices at 4 KiB stripes: no two adjacent
    // slices share a device (they would have been merged).
    for (std::size_t i = 1; i < slices.size(); ++i)
        EXPECT_NE(slices[i].device, slices[i - 1].device);
}

TEST(ShardRouter, SingleShardDegeneratesToIdentity)
{
    sh::ShardRouter r(1, sh::ShardPolicy::kHash, 4096);
    const auto slices = r.splitRange(1, 500, 100000);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_EQ(slices[0].device, 0u);
    EXPECT_EQ(slices[0].globalOffset, 500u);
    EXPECT_EQ(slices[0].localOffset, 500u);
    EXPECT_EQ(slices[0].bytes, 100000u);
}

TEST(ShardRouter, SplitRangeZeroLengthYieldsNoSlices)
{
    sh::ShardRouter r(4, sh::ShardPolicy::kRange, 4096);
    EXPECT_TRUE(r.splitRange(1, 0, 0).empty());
    EXPECT_TRUE(r.splitRange(1, 4096, 0).empty());   // on a boundary
    EXPECT_TRUE(r.splitRange(1, 12345, 0).empty());  // mid-stripe
}

TEST(ShardRouter, SplitRangeEndingOnStripeBoundaryEmitsNoEmptySlice)
{
    // A range whose end lands exactly on a stripe boundary must not
    // spill a zero-byte slice into the next stripe (the classic
    // off-by-one from computing last_stripe = end / stripeBytes).
    sh::ShardRouter r(3, sh::ShardPolicy::kRange, 4096);
    const auto slices = r.splitRange(1, 0, 3 * 4096);
    ASSERT_EQ(slices.size(), 3u);
    std::uint64_t covered = 0;
    for (const sh::ShardSlice &s : slices) {
        EXPECT_GT(s.bytes, 0u);
        covered += s.bytes;
    }
    EXPECT_EQ(covered, 3u * 4096u);
    EXPECT_EQ(slices.back().globalOffset + slices.back().bytes,
              3u * 4096u);
}

TEST(ShardRouter, SplitRangeStartingOnStripeBoundary)
{
    sh::ShardRouter r(2, sh::ShardPolicy::kRange, 4096);
    const auto slices = r.splitRange(1, 4096, 4096);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_EQ(slices[0].device, 1u);  // round robin: stripe 1 -> dev 1
    EXPECT_EQ(slices[0].globalOffset, 4096u);
    EXPECT_EQ(slices[0].bytes, 4096u);
    // Stripe 1 is device 1's first stripe, so it starts at local 0.
    EXPECT_EQ(slices[0].localOffset, 0u);
}

TEST(ShardRouter, SplitRangeSingleByteAtStripeEnd)
{
    // The last byte of a stripe: exactly one slice, one byte, in the
    // owning stripe — not bleeding into the next one.
    sh::ShardRouter r(2, sh::ShardPolicy::kRange, 4096);
    const auto slices = r.splitRange(1, 4095, 1);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_EQ(slices[0].device, 0u);
    EXPECT_EQ(slices[0].globalOffset, 4095u);
    EXPECT_EQ(slices[0].localOffset, 4095u);
    EXPECT_EQ(slices[0].bytes, 1u);

    // And the first byte of the next stripe belongs to the next device.
    const auto next = r.splitRange(1, 4096, 1);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0].device, 1u);
    EXPECT_EQ(next[0].localOffset, 0u);
}

TEST(ShardRouter, Fnv1aMatchesReferenceVector)
{
    // FNV-1a 64-bit reference: fnv1a("a") = 0xaf63dc4c8601ec8c.
    EXPECT_EQ(sh::fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_NE(sh::fnv1a("ab", 2), sh::fnv1a("ba", 2));
}

// ---- topology -------------------------------------------------------

TEST(FleetTopology, ParsesJsonWithOverridesAndUnknownKeys)
{
    const std::string json = R"({
        "ssds": 3, "policy": "range", "stripeKiB": 512,
        "comment": ["ignored", {"deep": 1}],
        "devices": [
            {"cores": 8, "dramMiB": 1024, "label": "rack0"},
            {}
        ]
    })";
    const sh::FleetTopology topo = sh::FleetTopology::fromJson(json);
    EXPECT_EQ(topo.numSsds, 3u);
    EXPECT_EQ(topo.policy, sh::ShardPolicy::kRange);
    EXPECT_EQ(topo.stripeBytes, 512u * 1024u);
    ASSERT_EQ(topo.devices.size(), 2u);
    EXPECT_EQ(topo.devices[0].cores, 8u);
    EXPECT_EQ(topo.devices[0].label, "rack0");

    ho::SystemConfig sys;
    topo.apply(sys);
    EXPECT_EQ(sys.numSsds, 3u);
    ASSERT_EQ(sys.ssdConfigs.size(), 3u);
    EXPECT_EQ(sys.ssdConfigs[0].numCores, 8u);
    EXPECT_EQ(sys.ssdConfigs[0].label, "rack0");
    // Unspecified devices inherit the template config.
    EXPECT_EQ(sys.ssdConfigs[1].numCores, sys.ssd.numCores);
    EXPECT_EQ(sys.ssdConfigs[2].numCores, sys.ssd.numCores);
}

TEST(FleetTopologyDeath, RejectsMalformedJson)
{
    EXPECT_DEATH(sh::FleetTopology::fromJson("{\"ssds\": 0}"),
                 "ssds = 0");
    EXPECT_DEATH(sh::FleetTopology::fromJson("{} trailing"),
                 "trailing");
}

// ---- multi-SSD HostSystem -------------------------------------------

TEST(FleetHostSystem, ConstructsPerDeviceQueuePairs)
{
    ho::HostSystem sys(fleetConfig(4));
    EXPECT_EQ(sys.numSsds(), 4u);
    for (unsigned d = 0; d < 4; ++d) {
        EXPECT_NE(sys.ssdPort(d), sys.hostPort());
        // Each device's driver answers on its own queue pair.
        EXPECT_EQ(sys.ioQueue(d, 0), sys.ioQueue(0, 0));
    }
    // Classic port numbering is preserved: host 0, ssd 1, gpu 2.
    EXPECT_EQ(sys.hostPort(), 0u);
    EXPECT_EQ(sys.ssdPort(0), 1u);
    EXPECT_EQ(sys.gpuPort(), 2u);
    EXPECT_EQ(sys.ssdPort(1), 3u);
}

TEST(FleetHostSystem, DeviceLabelsPrefixFleetTracksOnly)
{
    ho::HostSystem sys(fleetConfig(3));
    EXPECT_EQ(sys.ssd(0).trackPrefix(), "");
    EXPECT_EQ(sys.ssd(1).trackPrefix(), "dev1.");
    EXPECT_EQ(sys.ssd(2).trackPrefix(), "dev2.");
}

TEST(FleetHostSystem, FilesLandOnTheRequestedDevice)
{
    ho::HostSystem sys(fleetConfig(2));
    const auto data = patternBytes(10000);
    const auto e0 = sys.createFileOn(0, "a", data);
    const auto e1 = sys.createFileOn(1, "b", data);
    EXPECT_EQ(e0.deviceId, 0u);
    EXPECT_EQ(e1.deviceId, 1u);
    // Independent placement cursors: both start at device byte 0.
    EXPECT_EQ(e0.startByte, e1.startByte);
    EXPECT_EQ(sys.fileBytes(e0), data);
    EXPECT_EQ(sys.fileBytes(e1), data);
}

TEST(FleetHostSystem, TraceIdsAndTracksAreFleetUnique)
{
    ob::InMemoryTraceSink sink;
    {
        const ob::ScopedTraceSink attach(sink);
        ho::HostSystem sys(fleetConfig(2));
        const auto data = patternBytes(8192);
        sys.createFileOn(0, "a", data);
        sys.createFileOn(1, "b", data);
    }
    // Device 1 commands draw ids from the 1 << 24 block and render on
    // "dev1."-prefixed tracks; device 0 keeps the classic low ids and
    // unprefixed tracks — so ids never collide fleet-wide.
    bool saw_dev0_id = false, saw_dev1_track = false;
    for (const ob::Span &s : sink.spans()) {
        if (s.trace == 0)
            continue;
        if (s.track.rfind("dev1.", 0) == 0) {
            EXPECT_GE(s.trace, 1u << 24) << s.track << " " << s.name;
            saw_dev1_track = true;
        } else if (s.trace < (1u << 24)) {
            saw_dev0_id = true;
        }
    }
    EXPECT_TRUE(saw_dev0_id);
    EXPECT_TRUE(saw_dev1_track);
}

// ---- shard fabric ---------------------------------------------------

TEST(ShardFabric, IngestShardedRoundTrips)
{
    ho::HostSystem sys(fleetConfig(4));
    sh::ShardFabric fabric(sys, sh::ShardPolicy::kRange, 4096);
    const auto data = patternBytes(40000);  // ~10 stripes over 4 SSDs
    const sh::ShardedFile f = fabric.ingestSharded("obj", data);
    EXPECT_EQ(f.sizeBytes, data.size());
    // ceil(40000/4096) = 10 stripes round-robined on 4 devices: every
    // device holds bytes, devices 0 and 1 one stripe more than 2 and 3.
    ASSERT_EQ(f.extents.size(), 4u);
    for (const auto &ext : f.extents)
        EXPECT_GT(ext.sizeBytes, 0u);
    EXPECT_GT(f.extents[0].sizeBytes, f.extents[2].sizeBytes);
    EXPECT_EQ(fabric.shardedBytes(f), data);
}

TEST(ShardFabric, FleetReadDeliversBytesAndOverlapsDevices)
{
    ho::HostSystem sys(fleetConfig(4));
    sh::ShardFabric fabric(sys, sh::ShardPolicy::kRange, 4096);
    const auto data = patternBytes(65536);
    const sh::ShardedFile f = fabric.ingestSharded("obj", data);

    sim::Tick start = 0;
    for (const auto &ext : f.extents)
        start = std::max(start, ext.readyAt);
    const morpheus::pcie::Addr dst = sys.allocHost(data.size());
    const sim::Tick done = fabric.fleetRead(f, dst, start);
    EXPECT_GT(done, start);
    EXPECT_EQ(sys.mem().store().readVec(dst, data.size()), data);
}

TEST(ShardFabric, FleetInvokeMergesPerDeviceResults)
{
    ho::HostSystem sys(fleetConfig(2));
    sh::ShardFabric fabric(sys, sh::ShardPolicy::kRange, 64 * 1024);
    co::StandardImages images = co::StandardImages::make();

    const auto a = wk::genIntArray(7, 60000);  // several 64 KiB stripes
    sd::TextWriter w;
    a.serialize(w);
    const sh::ShardedFile f = fabric.ingestSharded("ints", w.bytes());

    sim::Tick ready = 0;
    for (const auto &ext : f.extents)
        ready = std::max(ready, ext.readyAt);
    const sh::FleetInvokeResult r =
        fabric.fleetInvoke(images.intArray, f, ready);
    EXPECT_TRUE(r.accepted);
    EXPECT_FALSE(r.failed);
    ASSERT_EQ(r.perDevice.size(), 2u);

    sim::Tick max_done = 0;
    std::uint64_t bytes = 0, mreads = 0;
    unsigned participants = 0;
    for (unsigned d = 0; d < 2; ++d) {
        if (f.extents[d].sizeBytes == 0)
            continue;
        ++participants;
        EXPECT_TRUE(r.perDevice[d].accepted);
        max_done = std::max(max_done, r.perDevice[d].done);
        bytes += r.perDevice[d].objectBytes;
        mreads += r.perDevice[d].mreadCommands;
    }
    EXPECT_EQ(participants, 2u);
    EXPECT_EQ(r.merged.done, max_done);
    EXPECT_EQ(r.merged.objectBytes, bytes);
    EXPECT_EQ(r.merged.mreadCommands, mreads);
    EXPECT_GT(r.merged.objectBytes, 0u);
}

TEST(ShardFabric, DeviceBacklogReadsTheArbiterLedger)
{
    // The hybrid layer's device-load signal is the arbiter's declared
    // backlog: the MINIT's declaration, drained as MREADs arrive,
    // cleared at MDEINIT.
    ho::SystemConfig cfg = fleetConfig(2);
    cfg.queueEntries = 4;  // three 4 KiB MREADs per batch
    ho::HostSystem sys(cfg);
    sh::ShardFabric fabric(sys, sh::ShardPolicy::kRange);
    co::StandardImages images = co::StandardImages::make();
    const auto a = wk::genIntArray(11, 4000);
    sd::TextWriter w;
    a.serialize(w);
    const auto ext = sys.createFileOn(1, "ints", w.bytes());
    auto &arbiter = sys.ssd(1).scheduler().arbiter();

    co::MorpheusRuntime &rt = fabric.runtime(1);
    const auto stream = rt.streamCreate(ext, ext.readyAt);
    co::InvokeOptions opts;
    opts.chunkBlocks = 8;
    auto s = rt.beginInvoke(images.intArray, stream,
                            rt.hostTarget(a.objectBytes()),
                            stream.readyAt, opts);
    ASSERT_TRUE(s.accepted);
    EXPECT_EQ(fabric.deviceBacklogBytes(0), 0u);
    EXPECT_EQ(fabric.deviceBacklogBytes(1), ext.sizeBytes);
    rt.stepInvoke(s);
    ASSERT_FALSE(s.streamDone());  // one batch in: part drained
    EXPECT_EQ(fabric.deviceBacklogBytes(1),
              arbiter.totalDeclaredBacklog());
    EXPECT_LT(fabric.deviceBacklogBytes(1), ext.sizeBytes);
    while (!s.streamDone())
        rt.stepInvoke(s);
    rt.finishInvoke(s);
    EXPECT_EQ(fabric.deviceBacklogBytes(1), 0u);
    EXPECT_EQ(arbiter.totalDeclaredBacklog(), 0u);
}

TEST(ShardFabric, FleetInvokeRetriesAttributeOnce)
{
    // Reference: the same workload on a clean fleet.
    std::uint64_t clean_bytes = 0, clean_rv = 0;
    {
        ho::HostSystem sys(fleetConfig(2));
        sh::ShardFabric fabric(sys, sh::ShardPolicy::kRange, 64 * 1024);
        co::StandardImages images = co::StandardImages::make();
        const auto a = wk::genIntArray(7, 60000);
        sd::TextWriter w;
        a.serialize(w);
        const sh::ShardedFile f = fabric.ingestSharded("ints", w.bytes());
        sim::Tick ready = 0;
        for (const auto &ext : f.extents)
            ready = std::max(ready, ext.readyAt);
        const sh::FleetInvokeResult r =
            fabric.fleetInvoke(images.intArray, f, ready);
        ASSERT_TRUE(r.accepted);
        ASSERT_FALSE(r.failed);
        EXPECT_EQ(r.replays, 0u);
        clean_bytes = r.merged.objectBytes;
        clean_rv = r.merged.returnValue;
        ASSERT_GT(clean_bytes, 0u);
    }

    // Same workload under injected StorageApp crashes with driver
    // recovery on: fleet-level replays reissue whole shards, each
    // replay OVERWRITING its device's slot — merged totals must match
    // the clean run exactly, never accumulate across attempts.
    ho::HostSystem sys(fleetConfig(2));
    sh::ShardFabric fabric(sys, sh::ShardPolicy::kRange, 64 * 1024);
    morpheus::nvme::DriverRecoveryConfig rec;
    rec.enabled = true;
    fabric.setRecovery(rec);
    co::StandardImages images = co::StandardImages::make();
    const auto a = wk::genIntArray(7, 60000);
    sd::TextWriter w;
    a.serialize(w);
    const sh::ShardedFile f = fabric.ingestSharded("ints", w.bytes());
    sim::Tick ready = 0;
    for (const auto &ext : f.extents)
        ready = std::max(ready, ext.readyAt);

    sh::FleetInvokeResult r;
    {
        morpheus::sim::FaultPlan plan;
        plan.crashRate = 0.25;  // per processed chunk
        plan.seed = 11;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        r = fabric.fleetInvoke(images.intArray, f, ready);
        EXPECT_GE(fi.appCrashes(), 1u);
    }
    ASSERT_TRUE(r.accepted);
    ASSERT_FALSE(r.failed);
    EXPECT_GT(r.replays, 0u);
    // Attribute-once: despite the retries, the merged totals are the
    // final attempts' alone.
    EXPECT_EQ(r.merged.objectBytes, clean_bytes);
    EXPECT_EQ(r.merged.returnValue, clean_rv);
    std::uint64_t bytes = 0;
    for (unsigned d = 0; d < 2; ++d)
        bytes += r.perDevice[d].objectBytes;
    EXPECT_EQ(bytes, clean_bytes);
}

TEST(ShardFabric, RebalanceMovesExtentPeerToPeer)
{
    ho::HostSystem sys(fleetConfig(2));
    sh::ShardFabric fabric(sys);
    const auto data = patternBytes(300000);
    const auto src = sys.createFileOn(0, "hot", data);

    const std::uint64_t host_before =
        sys.fabric().link(sys.hostPort()).totalBytes();
    sim::Tick done = 0;
    const auto moved =
        fabric.rebalance(src, 1, src.readyAt, &done);
    EXPECT_EQ(moved.deviceId, 1u);
    EXPECT_EQ(moved.sizeBytes, data.size());
    EXPECT_GT(done, src.readyAt);
    EXPECT_EQ(moved.readyAt, done);
    // The payload moved SSD -> SSD over the switch: P2P counted, host
    // link untouched.
    EXPECT_GE(sys.fabric().p2pBytes(), data.size());
    EXPECT_EQ(sys.fabric().link(sys.hostPort()).totalBytes(),
              host_before);
    EXPECT_EQ(sys.fileBytes(moved), data);
}

// ---- fleet serving --------------------------------------------------

TEST(FleetServing, ShardsReportAndCompleteEverything)
{
    wk::ServingOptions opts;
    opts.seed = 5;
    opts.closedLoop = true;
    opts.closedLoopConcurrency = 3;
    opts.closedLoopRequests = 12;
    opts.sys.numSsds = 2;
    opts.objectsPerClass = 4;
    opts.zipfSkew = 0.9;
    for (std::uint32_t t = 0; t < 2; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        opts.tenants.push_back(spec);
    }
    const wk::ServingReport r = wk::runServing(opts);
    EXPECT_EQ(r.completed, r.submitted);
    ASSERT_EQ(r.shards.size(), 2u);
    std::uint64_t shard_requests = 0;
    for (const wk::ShardReport &s : r.shards)
        shard_requests += s.requests;
    EXPECT_EQ(shard_requests, r.submitted);
}

TEST(FleetServing, DeterministicInTheSeed)
{
    wk::ServingOptions opts;
    opts.seed = 11;
    opts.closedLoop = true;
    opts.closedLoopConcurrency = 2;
    opts.closedLoopRequests = 8;
    opts.sys.numSsds = 4;
    opts.objectsPerClass = 8;
    opts.zipfSkew = 1.1;
    wk::TenantSpec spec;
    spec.id = 1;
    opts.tenants.push_back(spec);

    const wk::ServingReport a = wk::runServing(opts);
    const wk::ServingReport b = wk::runServing(opts);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.p99Us, b.p99Us);
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t i = 0; i < a.shards.size(); ++i) {
        EXPECT_EQ(a.shards[i].requests, b.shards[i].requests);
        EXPECT_EQ(a.shards[i].servedBytes, b.shards[i].servedBytes);
    }
}
