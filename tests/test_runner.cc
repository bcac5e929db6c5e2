/**
 * @file
 * End-to-end integration tests of the experiment harness: all three
 * execution modes validate functionally, and the headline qualitative
 * results of the paper hold (Morpheus speeds up deserialization,
 * reduces context switches and memory-bus traffic, P2P removes the
 * GPU copy).
 */

#include <gtest/gtest.h>

#include "obs/metrics.hh"
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
