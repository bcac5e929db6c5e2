/**
 * @file
 * Shard-fabric tests: key placement, multi-SSD HostSystem construction
 * and its size bound, fleet-unique trace ids and per-device span
 * tracks, the per-device load signals, and fleet serving.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/standard_apps.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serde/writer.hh"
#include "shard/shard_fabric.hh"
#include "workloads/generators.hh"
#include "workloads/serving.hh"

namespace co = morpheus::core;
namespace ho = morpheus::host;
namespace ob = morpheus::obs;
namespace sd = morpheus::serde;
namespace sh = morpheus::shard;
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
    std::map<unsigned, unsigned> hist;
    for (unsigned i = 0; i < 64; ++i) {
        const std::string key = "object." + std::to_string(i);
        const unsigned d = sh::shardForKey(key, 4);
        EXPECT_LT(d, 4u);
        EXPECT_EQ(d, sh::shardForKey(key, 4));  // stable
        EXPECT_EQ(d, sh::fnv1a(key.data(), key.size()) % 4);
        EXPECT_EQ(sh::shardForKey(key, 1), 0u);
        ++hist[d];
    }
    // FNV over 64 keys must not degenerate to a single shard.
    EXPECT_GT(hist.size(), 1u);
}

TEST(ShardRouter, Fnv1aMatchesReferenceVector)
{
    // FNV-1a 64-bit reference: fnv1a("a") = 0xaf63dc4c8601ec8c.
    EXPECT_EQ(sh::fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_NE(sh::fnv1a("ab", 2), sh::fnv1a("ba", 2));
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

TEST(FleetHostSystemDeath, RejectsFleetsOutsideOneTo255)
{
    // Device 256 would draw trace ids from the block 256 << 24, which
    // wraps onto device 0's block in a 32-bit TraceId.
    EXPECT_DEATH(ho::HostSystem{fleetConfig(256)},
                 "numSsds = 256 outside \\[1, 255\\]");
    EXPECT_DEATH(ho::HostSystem{fleetConfig(0)},
                 "numSsds = 0 outside");
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

TEST(ShardFabric, DeviceBacklogReadsTheArbiterLedger)
{
    // The hybrid layer's device-load signal is the arbiter's declared
    // backlog: the MINIT's declaration, drained as MREADs arrive,
    // cleared at MDEINIT.
    ho::SystemConfig cfg = fleetConfig(2);
    cfg.queueEntries = 4;  // three 4 KiB MREADs per batch
    ho::HostSystem sys(cfg);
    sh::ShardFabric fabric(sys);
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
    // The instance is resident on device 1 only.
    EXPECT_EQ(fabric.deviceQueueDepth(0), 0u);
    EXPECT_EQ(fabric.deviceQueueDepth(1), 1u);
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
    EXPECT_EQ(fabric.deviceQueueDepth(1), 0u);
    EXPECT_EQ(fabric.deviceDsramBounces(1), 0u);
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

    ob::MetricsRegistry reg_a, reg_b;
    opts.metrics = &reg_a;
    const wk::ServingReport a = wk::runServing(opts);
    opts.metrics = &reg_b;
    const wk::ServingReport b = wk::runServing(opts);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.p99Us, b.p99Us);
    EXPECT_EQ(reg_a, reg_b);
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t i = 0; i < a.shards.size(); ++i) {
        EXPECT_EQ(a.shards[i].requests, b.shards[i].requests);
        EXPECT_EQ(a.shards[i].servedBytes, b.shards[i].servedBytes);
    }

    // Each device federates under its own prefixes: "ssd<d>" for its
    // controller and "morpheus<d>" for its runtime (device 0 keeps the
    // bare names), and each one's MINITs are its own shard's.
    std::uint64_t minits = 0;
    for (unsigned d = 0; d < 4; ++d) {
        const std::string n = d == 0 ? "" : std::to_string(d);
        SCOPED_TRACE("device " + std::to_string(d));
        const std::uint64_t dev_minits =
            reg_a.counter("sys.morpheus" + n + ".minits");
        EXPECT_EQ(dev_minits > 0, a.shards[d].requests > 0);
        EXPECT_EQ(reg_a.counter("sys.ssd" + n + ".morpheusCommands") > 0,
                  a.shards[d].requests > 0);
        minits += dev_minits;
    }
    EXPECT_GE(minits, a.submitted);
}
