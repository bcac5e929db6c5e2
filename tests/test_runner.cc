/**
 * @file
 * End-to-end integration tests of the experiment harness: all three
 * execution modes validate functionally, and the headline qualitative
 * results of the paper hold (Morpheus speeds up deserialization,
 * reduces context switches and memory-bus traffic, P2P removes the
 * GPU copy).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "host/sparse_memory.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "workloads/runner.hh"

namespace wk = morpheus::workloads;

namespace {

wk::RunOptions
opts(wk::ExecutionMode mode, double scale = 0.05)
{
    wk::RunOptions o;
    o.mode = mode;
    o.scale = scale;
    return o;
}

constexpr wk::ExecutionMode kModes[] = {wk::ExecutionMode::kBaseline,
                                        wk::ExecutionMode::kMorpheus,
                                        wk::ExecutionMode::kMorpheusP2p};

/** One run's metrics and its registry dump. */
struct Observed
{
    wk::RunMetrics metrics;
    std::string registry;
};

Observed
observe(const wk::AppSpec &app, wk::RunOptions o)
{
    morpheus::obs::MetricsRegistry reg;
    o.metrics = &reg;
    Observed out;
    out.metrics = wk::runWorkload(app, o);
    std::ostringstream os;
    reg.writeJson(os);
    out.registry = os.str();
    return out;
}

/** A run of @p app whose input runWorkload has to build anew: the
 *  call before it ran another app. */
Observed
observeFresh(const wk::AppSpec &app, const wk::RunOptions &o)
{
    const auto &suite = wk::standardSuite();
    const wk::AppSpec &other =
        &app == &suite.front() ? suite.back() : suite.front();
    wk::runWorkload(other, opts(wk::ExecutionMode::kBaseline));
    return observe(app, o);
}

}  // namespace

TEST(Runner, BaselineValidatesOnSerialApp)
{
    const auto m = wk::runWorkload(
        wk::findApp("spmv"), opts(wk::ExecutionMode::kBaseline));
    EXPECT_TRUE(m.validated);
    EXPECT_GT(m.deserTime, 0u);
    EXPECT_GT(m.kernelTime, 0u);
    EXPECT_GT(m.totalTime, m.deserTime);
    EXPECT_GT(m.rawTextBytes, 0u);
    EXPECT_GT(m.objectBytesProduced, 0u);
}

TEST(Runner, MorpheusValidatesOnSerialApp)
{
    const auto m = wk::runWorkload(
        wk::findApp("spmv"), opts(wk::ExecutionMode::kMorpheus));
    EXPECT_TRUE(m.validated);
}

TEST(Runner, MorpheusValidatesOnMpiApp)
{
    const auto m = wk::runWorkload(
        wk::findApp("pagerank"), opts(wk::ExecutionMode::kMorpheus));
    EXPECT_TRUE(m.validated);
}

TEST(Runner, BaselineValidatesOnMpiApp)
{
    const auto m = wk::runWorkload(
        wk::findApp("pagerank"), opts(wk::ExecutionMode::kBaseline));
    EXPECT_TRUE(m.validated);
}

TEST(Runner, BaselineRecordsOneHostExecSpanPerRank)
{
    // Every baseline rank runs the host path, which records one
    // host_exec span from t0 (all ranks start together) to its own
    // finish; the deserialization phase ends with the last of them.
    // Tracing observes the run without changing any of its numbers.
    const auto &app = wk::findApp("pagerank");
    ASSERT_EQ(app.parallel, wk::ParallelModel::kMpi);
    ASSERT_GT(app.ranks, 1u);
    const auto o = opts(wk::ExecutionMode::kBaseline);
    const wk::RunMetrics untraced = wk::runWorkload(app, o);

    morpheus::obs::InMemoryTraceSink sink;
    wk::RunMetrics traced;
    {
        morpheus::obs::ScopedTraceSink attach(sink);
        traced = wk::runWorkload(app, o);
    }
    EXPECT_TRUE(traced == untraced);

    const auto spans = sink.named("host_exec");
    ASSERT_EQ(spans.size(), app.ranks);
    const morpheus::sim::Tick t0 = spans.front().begin;
    EXPECT_GT(t0, 0u);  // after the ingest, not at time zero
    morpheus::sim::Tick last = t0;
    for (const auto &s : spans) {
        EXPECT_EQ(s.begin, t0);
        EXPECT_GT(s.end, s.begin);
        last = std::max(last, s.end);
    }
    EXPECT_EQ(last, t0 + traced.deserTime);
}

TEST(Runner, AllModesAgreeOnKernelChecksum)
{
    const auto &app = wk::findApp("bfs");
    const auto base =
        wk::runWorkload(app, opts(wk::ExecutionMode::kBaseline));
    const auto morph =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheus));
    const auto p2p =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheusP2p));
    EXPECT_TRUE(base.validated);
    EXPECT_TRUE(morph.validated);
    EXPECT_TRUE(p2p.validated);
    EXPECT_EQ(base.kernelChecksum, morph.kernelChecksum);
    EXPECT_EQ(base.kernelChecksum, p2p.kernelChecksum);
}

TEST(Runner, EveryAppValidatesInEveryMode)
{
    // Every mode's object is compared with the generator's, so the
    // baseline's host parse is checked as hard as the device's.
    for (const auto &app : wk::standardSuite()) {
        for (const auto mode :
             {wk::ExecutionMode::kBaseline, wk::ExecutionMode::kMorpheus,
              wk::ExecutionMode::kMorpheusP2p}) {
            EXPECT_TRUE(wk::runWorkload(app, opts(mode)).validated)
                << app.name << " mode " << static_cast<int>(mode);
        }
    }
    for (const auto backend :
         {wk::BackendKind::kHdd, wk::BackendKind::kRamDrive}) {
        auto o = opts(wk::ExecutionMode::kBaseline);
        o.backend = backend;
        EXPECT_TRUE(wk::runWorkload(wk::findApp("kmeans"), o).validated)
            << "backend " << static_cast<int>(backend);
    }
}

TEST(Runner, MorpheusSpeedsUpDeserialization)
{
    const auto &app = wk::findApp("hybridsort");
    const auto base =
        wk::runWorkload(app, opts(wk::ExecutionMode::kBaseline, 0.1));
    const auto morph =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheus, 0.1));
    EXPECT_LT(morph.deserTime, base.deserTime);
}

TEST(Runner, MorpheusCutsContextSwitches)
{
    const auto &app = wk::findApp("hybridsort");
    const auto base =
        wk::runWorkload(app, opts(wk::ExecutionMode::kBaseline, 0.1));
    const auto morph =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheus, 0.1));
    EXPECT_LT(morph.contextSwitchesDeser,
              base.contextSwitchesDeser / 10);
}

TEST(Runner, MorpheusCutsMemoryBusTraffic)
{
    const auto &app = wk::findApp("pagerank");
    const auto base =
        wk::runWorkload(app, opts(wk::ExecutionMode::kBaseline, 0.1));
    const auto morph =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheus, 0.1));
    EXPECT_LT(morph.membusBytesDeser, base.membusBytesDeser / 2);
}

TEST(Runner, P2pMovesBytesAndRemovesGpuCopy)
{
    const auto &app = wk::findApp("kmeans");
    const auto morph =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheus, 0.1));
    const auto p2p =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheusP2p, 0.1));
    EXPECT_GT(morph.gpuCopyTime, 0u);
    EXPECT_EQ(p2p.gpuCopyTime, 0u);
    EXPECT_GT(p2p.p2pBytes, 0u);
    EXPECT_EQ(morph.p2pBytes, 0u);
    EXPECT_LE(p2p.totalTime, morph.totalTime);
}

TEST(Runner, UnderclockedCpuSlowsBaselineDeserMore)
{
    const auto &app = wk::findApp("conncomp");
    auto fast = opts(wk::ExecutionMode::kBaseline, 0.1);
    fast.cpuFreqHz = 2.5e9;
    auto slow = opts(wk::ExecutionMode::kBaseline, 0.1);
    slow.cpuFreqHz = 1.2e9;
    const auto mf = wk::runWorkload(app, fast);
    const auto msl = wk::runWorkload(app, slow);
    // CPU-bound deserialization: slower clock, much slower phase.
    EXPECT_GT(msl.deserTime, mf.deserTime * 3 / 2);
}

TEST(Runner, HddBaselineSlowerThanNvme)
{
    const auto &app = wk::findApp("spmv");
    auto nvme = opts(wk::ExecutionMode::kBaseline, 0.1);
    auto hdd = nvme;
    hdd.backend = wk::BackendKind::kHdd;
    const auto mn = wk::runWorkload(app, nvme);
    const auto mh = wk::runWorkload(app, hdd);
    EXPECT_TRUE(mh.validated);
    EXPECT_GE(mh.deserTime, mn.deserTime);
}

TEST(Runner, RamDriveBaselineNoFasterThanNvmeByMuch)
{
    // Fig 3's claim: deserialization is CPU bound, so the RAM drive
    // barely beats the NVMe SSD.
    const auto &app = wk::findApp("nn");
    auto nvme = opts(wk::ExecutionMode::kBaseline, 0.1);
    auto ram = nvme;
    ram.backend = wk::BackendKind::kRamDrive;
    const auto mn = wk::runWorkload(app, nvme);
    const auto mr = wk::runWorkload(app, ram);
    EXPECT_TRUE(mr.validated);
    EXPECT_GT(static_cast<double>(mr.deserTime),
              0.7 * static_cast<double>(mn.deserTime));
}

TEST(Runner, BackendIsBaselineOnly)
{
    // A Morpheus or P2P run reads the SSD whatever the backend names,
    // so an HDD backend must not charge HDD power to it either.
    const auto &app = wk::findApp("kmeans");
    for (const auto mode :
         {wk::ExecutionMode::kMorpheus, wk::ExecutionMode::kMorpheusP2p}) {
        auto nvme = opts(mode);
        auto hdd = nvme;
        hdd.backend = wk::BackendKind::kHdd;
        EXPECT_EQ(wk::runWorkload(app, hdd), wk::runWorkload(app, nvme));
    }
}

TEST(Runner, DeterministicAcrossRepeatedRuns)
{
    const auto &app = wk::findApp("spmv");
    const auto a =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheus));
    const auto b =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheus));
    EXPECT_EQ(a.deserTime, b.deserTime);
    EXPECT_EQ(a.totalTime, b.totalTime);
    EXPECT_EQ(a.kernelChecksum, b.kernelChecksum);
    EXPECT_EQ(a.contextSwitchesDeser, b.contextSwitchesDeser);
}

TEST(Runner, SpeedupIsScaleInvariant)
{
    // The claim EXPERIMENTS.md rests on: ratios do not depend on the
    // generated input size.
    const auto &app = wk::findApp("hybridsort");
    auto ratio = [&](double scale) {
        auto b = opts(wk::ExecutionMode::kBaseline, scale);
        auto m = opts(wk::ExecutionMode::kMorpheus, scale);
        const double tb = static_cast<double>(
            wk::runWorkload(app, b).deserTime);
        const double tm = static_cast<double>(
            wk::runWorkload(app, m).deserTime);
        return tb / tm;
    };
    const double small = ratio(0.1);
    const double large = ratio(0.4);
    EXPECT_NEAR(small / large, 1.0, 0.15);
}

TEST(Runner, ChunkBlocksOptionControlsMreadCount)
{
    const auto &app = wk::findApp("spmv");
    auto mreads = [&](std::uint32_t blocks) {
        auto o = opts(wk::ExecutionMode::kMorpheus, 0.1);
        o.chunkBlocks = blocks;
        morpheus::obs::MetricsRegistry reg;
        o.metrics = &reg;
        EXPECT_TRUE(wk::runWorkload(app, o).validated);
        return reg.counter("sys.morpheus.mreads");
    };
    const std::uint64_t coarse = mreads(256);
    const std::uint64_t fine = mreads(32);
    // 8x smaller chunks -> ~8x more MREAD commands visible in the
    // device counters (42 vs 6 at this scale).
    EXPECT_GT(coarse, 0u);
    EXPECT_GE(fine, 6 * coarse);
}

TEST(Runner, MetricsRegistryHoldsComponentCounters)
{
    auto o = opts(wk::ExecutionMode::kMorpheus, 0.05);
    morpheus::obs::MetricsRegistry reg;
    o.metrics = &reg;
    wk::runWorkload(wk::findApp("spmv"), o);
    EXPECT_GT(reg.counter("sys.ssd.morpheusCommands"), 0u);
    EXPECT_GT(reg.counter("sys.ssd.flash.reads"), 0u);
    EXPECT_GT(reg.counter("sys.host.os.contextSwitches"), 0u);
    EXPECT_GT(reg.counter("run.total_ticks"), 0u);
}

TEST(Runner, BaselineCpuLoadHigherThanMorpheus)
{
    const auto &app = wk::findApp("nn");
    const auto b = wk::runWorkload(
        app, opts(wk::ExecutionMode::kBaseline, 0.1));
    const auto m = wk::runWorkload(
        app, opts(wk::ExecutionMode::kMorpheus, 0.1));
    EXPECT_GT(b.cpuBusyCoresDeser, 0.5);
    EXPECT_LT(m.cpuBusyCoresDeser, 0.1);
}

TEST(Runner, DifferentSeedsDifferentChecksumsSameValidation)
{
    // (hybridsort: its digest covers the sorted values, so any change
    // in the generated input changes the checksum.)
    const auto &app = wk::findApp("hybridsort");
    auto o1 = opts(wk::ExecutionMode::kMorpheus, 0.05);
    auto o2 = o1;
    o2.seed = 4242;
    const auto a = wk::runWorkload(app, o1);
    const auto b = wk::runWorkload(app, o2);
    EXPECT_TRUE(a.validated);
    EXPECT_TRUE(b.validated);
    EXPECT_NE(a.kernelChecksum, b.kernelChecksum);
}

TEST(Runner, InputReuseIsInvisible)
{
    // runWorkload reuses the input it built for the previous call when
    // (app, seed, scale) repeats. A reused input must not show: every
    // metric and every registry counter equals the rebuilt input's.
    for (const auto &app : wk::standardSuite()) {
        for (const auto mode : kModes) {
            const Observed miss = observeFresh(app, opts(mode));
            const Observed hit = observe(app, opts(mode));
            EXPECT_TRUE(miss.metrics.validated) << app.name;
            EXPECT_TRUE(hit.metrics == miss.metrics)
                << app.name << " mode " << static_cast<int>(mode);
            EXPECT_EQ(hit.registry, miss.registry)
                << app.name << " mode " << static_cast<int>(mode);
            EXPECT_EQ(hit.metrics.kernelChecksum,
                      app.kernel(app.generate(42, 0.05)).checksum)
                << app.name;
        }
    }

    // A changed scale or seed is a new input, and going back is too:
    // each call, hit or miss, equals a run on a freshly built input.
    // (pagerank has four ranks, kmeans is a GPU app.)
    const std::vector<std::pair<double, std::uint64_t>> keys = {
        {0.05, 42}, {0.05, 42}, {0.1, 42}, {0.1, 42}, {0.05, 42},
        {0.05, 7},  {0.05, 7},  {0.05, 42}};
    for (const char *name : {"pagerank", "kmeans"}) {
        const auto &app = wk::findApp(name);
        for (const auto mode : kModes) {
            std::vector<Observed> fresh;
            for (const auto &[scale, seed] : keys) {
                auto o = opts(mode, scale);
                o.seed = seed;
                fresh.push_back(observeFresh(app, o));
            }
            for (std::size_t i = 0; i < keys.size(); ++i) {
                auto o = opts(mode, keys[i].first);
                o.seed = keys[i].second;
                const Observed got = observe(app, o);
                EXPECT_TRUE(got.metrics == fresh[i].metrics)
                    << name << " step " << i;
                EXPECT_EQ(got.registry, fresh[i].registry)
                    << name << " step " << i;
            }
        }
    }
}

TEST(Runner, TargetMatchesFlagsAFlippedByte)
{
    // The check runWorkload makes of a Morpheus or P2P DMA target.
    const wk::AnyObject obj =
        wk::findApp("hybridsort").generate(42, 0.05);
    const auto bin =
        std::visit([](const auto &o) { return o.toBinary(); }, obj);
    constexpr std::uint64_t kChunk = 64 * 1024;  // SparseMemory's chunk
    ASSERT_GT(bin.size(), 2 * kChunk);
    morpheus::host::SparseMemory mem(4 * bin.size());
    const std::uint64_t addr = 4096;
    mem.writeVec(addr, bin);
    const auto digest = wk::objectDigest(obj);
    EXPECT_TRUE(wk::targetMatches(mem, addr, bin.size(), digest));

    for (const std::uint64_t at : {addr, kChunk, addr + bin.size() - 1}) {
        const std::uint8_t old = bin[at - addr];
        const std::uint8_t flipped = old ^ 0x80;
        mem.write(at, &flipped, 1);
        EXPECT_FALSE(wk::targetMatches(mem, addr, bin.size(), digest))
            << "byte " << at;
        mem.write(at, &old, 1);
    }
    EXPECT_TRUE(wk::targetMatches(mem, addr, bin.size(), digest));
    EXPECT_FALSE(wk::targetMatches(mem, addr, bin.size() - 1, digest));
}

TEST(Runner, CrashedInvocationIsReplayedAndValidates)
{
    // With recovery on, an invocation an injected app crash kills is
    // replayed whole; the replay restreams the rank's file, so the run
    // still validates and its deserialization takes longer. This plan
    // crashes one of pagerank's four invocations at this scale.
    const auto &app = wk::findApp("pagerank");
    const auto clean =
        wk::runWorkload(app, opts(wk::ExecutionMode::kMorpheus, 0.05));
    auto o = opts(wk::ExecutionMode::kMorpheus, 0.05);
    o.recovery.enabled = true;
    o.faults.crashRate = 0.05;
    o.faults.seed = 5;
    morpheus::obs::MetricsRegistry reg;
    o.metrics = &reg;
    const auto faulted = wk::runWorkload(app, o);
    EXPECT_GE(reg.counter("sys.faults.appCrashes"), 1u);
    EXPECT_TRUE(faulted.validated);
    EXPECT_GT(faulted.deserTime, clean.deserTime);
}
