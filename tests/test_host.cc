/**
 * @file
 * Host-side model tests: sparse memory, DRAM accounting, CPU DVFS and
 * parse cost, OS overhead accounting, GPU roofline, and the assembled
 * HostSystem (file creation and read-back).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "host/host_system.hh"
#include "obs/metrics.hh"

namespace ho = morpheus::host;
namespace ms = morpheus::sim;

TEST(SparseMemory, ZeroFillAndRoundTrip)
{
    ho::SparseMemory mem(1 << 20);
    const auto zeros = mem.readVec(1234, 16);
    for (const auto b : zeros)
        EXPECT_EQ(b, 0);
    const std::vector<std::uint8_t> data = {9, 8, 7, 6};
    mem.writeVec(70000, data);  // spans a chunk boundary region
    EXPECT_EQ(mem.readVec(70000, 4), data);
    EXPECT_GT(mem.residentBytes(), 0u);
}

TEST(SparseMemory, CrossChunkWrite)
{
    ho::SparseMemory mem(1 << 20);
    std::vector<std::uint8_t> data(200000, 0x3C);
    mem.writeVec(1000, data);
    const auto back = mem.readVec(1000, 200000);
    EXPECT_EQ(back, data);
}

TEST(SparseMemoryDeath, OutOfBoundsPanics)
{
    ho::SparseMemory mem(1024);
    std::uint8_t b = 0;
    EXPECT_DEATH(mem.write(1024, &b, 1), "past end");
    EXPECT_DEATH(mem.read(1020, &b, 8), "past end");
}

TEST(HostMemory, BusCountersTrackDmaAndCpu)
{
    ho::HostMemory mem(ho::HostMemoryConfig{});
    const std::vector<std::uint8_t> data(1000, 1);
    mem.busWrite(0, data.data(), data.size());
    EXPECT_EQ(mem.busBytesWritten(), 1000u);
    std::uint8_t out[10];
    mem.busRead(0, out, 10);
    EXPECT_EQ(mem.busBytesRead(), 10u);
    mem.cpuAccess(100, 200, 0);
    EXPECT_EQ(mem.busBytesTotal(), 1000u + 10u + 300u);
}

TEST(HostCpu, DvfsClampsToRange)
{
    ho::HostCpu cpu(ho::CpuConfig{});
    cpu.setFreqHz(5e9);
    EXPECT_DOUBLE_EQ(cpu.freqHz(), 2.5e9);
    cpu.setFreqHz(0.5e9);
    EXPECT_DOUBLE_EQ(cpu.freqHz(), 1.2e9);
    cpu.setFreqHz(2.0e9);
    EXPECT_DOUBLE_EQ(cpu.freqHz(), 2.0e9);
}

TEST(HostCpu, WorkTakesLongerWhenUnderclocked)
{
    ho::HostCpu cpu(ho::CpuConfig{});
    cpu.setFreqHz(2.5e9);
    const ms::Tick fast = cpu.execute(0, 1e6, 0);
    ho::HostCpu slow_cpu(ho::CpuConfig{});
    slow_cpu.setFreqHz(1.2e9);
    const ms::Tick slow = slow_cpu.execute(0, 1e6, 0);
    EXPECT_NEAR(static_cast<double>(slow) / fast, 2.5 / 1.2, 0.01);
}

TEST(HostCpu, CoresAreIndependent)
{
    ho::HostCpu cpu(ho::CpuConfig{});
    const ms::Tick a = cpu.execute(0, 1e6, 0);
    const ms::Tick b = cpu.execute(1, 1e6, 0);
    EXPECT_EQ(a, b);  // parallel
    const ms::Tick c = cpu.execute(0, 1e6, 0);
    EXPECT_GT(c, a);  // serialized on core 0
}

TEST(HostCpu, ConvertCostSeparatesIntAndFloat)
{
    ho::HostCpu cpu(ho::CpuConfig{});
    morpheus::serde::ParseCost ints;
    ints.bytes = 700;
    ints.intValues = 100;
    morpheus::serde::ParseCost floats;
    floats.bytes = 700;
    floats.floatValues = 100;
    floats.floatOps = 1400;
    EXPECT_GT(cpu.convertCycles(floats), cpu.convertCycles(ints));
}

TEST(OsModel, ChargesAndCounts)
{
    ho::HostCpu cpu(ho::CpuConfig{});
    ho::OsModel os(ho::OsConfig{}, cpu);
    const ms::Tick t1 = os.syscall(0, 0);
    EXPECT_GT(t1, 0u);
    EXPECT_EQ(os.syscalls(), 1u);
    os.blockingReadOverhead(0, 65536, t1);
    EXPECT_EQ(os.syscalls(), 2u);
    EXPECT_EQ(os.contextSwitches(), 2u);
    os.blockingWait(0, 0);
    EXPECT_EQ(os.contextSwitches(), 4u);
    os.pageFaults(0, 10, 0);
    EXPECT_EQ(os.pageFaultCount(), 10u);
}

TEST(OsModel, FsOverheadDominatesConversionForIntParsing)
{
    // The paper's §II profile: conversion is ~15% of deser time; the
    // rest is OS/file-system work. Check the model reproduces that
    // split within a reasonable band.
    ho::HostCpu cpu(ho::CpuConfig{});
    ho::OsModel os(ho::OsConfig{}, cpu);
    // 64 KiB of "123456 " style tokens: ~9362 ints.
    morpheus::serde::ParseCost cost;
    cost.bytes = 65536;
    cost.intValues = 9362;
    const double convert = cpu.convertCycles(cost);
    const double fs =
        os.config().syscallCycles +
        os.config().fsCyclesPerByte * 65536 +
        2 * os.config().contextSwitchCycles;
    const double frac = convert / (convert + fs);
    EXPECT_GT(frac, 0.08);
    EXPECT_LT(frac, 0.30);
}

TEST(Gpu, RooflinePicksTheBindingResource)
{
    morpheus::pcie::PcieSwitch sw;
    const auto host = sw.addPort("host", morpheus::pcie::LinkConfig{3, 16});
    (void)host;
    const auto port = sw.addPort("gpu", morpheus::pcie::LinkConfig{3, 16});
    ho::Gpu gpu(sw, port, ho::GpuConfig{});

    // Compute bound: lots of FLOPs, tiny memory traffic.
    const ms::Tick compute =
        gpu.kernel(1e12, 1000, 0) - 0;
    // Memory bound: few FLOPs, huge traffic.
    ho::Gpu gpu2(sw, port, ho::GpuConfig{});
    const ms::Tick memory = gpu2.kernel(1.0, 100ULL << 30, 0);
    EXPECT_GT(compute, ms::kPsPerMs);
    EXPECT_GT(memory, ms::kPsPerMs);
    EXPECT_EQ(gpu.kernelsLaunched(), 1u);
}

TEST(Gpu, AllocatorAlignsAndAdvances)
{
    morpheus::pcie::PcieSwitch sw;
    sw.addPort("host", morpheus::pcie::LinkConfig{3, 16});
    const auto port = sw.addPort("gpu", morpheus::pcie::LinkConfig{3, 16});
    ho::Gpu gpu(sw, port, ho::GpuConfig{});
    const auto a = gpu.alloc(100);
    const auto b = gpu.alloc(100);
    EXPECT_EQ(a % 256, 0u);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_GE(b, a + 100);
    gpu.resetAllocator();
    EXPECT_EQ(gpu.alloc(1), 0u);
}

TEST(HostSystem, BuildsWithDefaultsAndCreatesFiles)
{
    ho::HostSystem sys;
    const std::vector<std::uint8_t> content = {'h', 'i', ' ', '4', '2'};
    const auto extent = sys.createFile("greeting", content);
    EXPECT_EQ(extent.sizeBytes, content.size());
    EXPECT_GT(extent.readyAt, 0u);
    EXPECT_EQ(sys.fileBytes(extent), content);
    EXPECT_EQ(sys.file("greeting").startByte, extent.startByte);
}

TEST(HostSystemDeath, DuplicateFileNamePanics)
{
    ho::HostSystem sys;
    sys.createFile("f", {1});
    EXPECT_DEATH(sys.createFile("f", {2}), "already exists");
}

TEST(HostSystem, FilesArePageAlignedAndDisjoint)
{
    ho::HostSystem sys;
    const auto a = sys.createFile("a", std::vector<std::uint8_t>(100, 1));
    const auto b = sys.createFile("b", std::vector<std::uint8_t>(100, 2));
    const auto page = sys.ssd().ftl().pageBytes();
    EXPECT_EQ(a.startByte % page, 0u);
    EXPECT_EQ(b.startByte % page, 0u);
    EXPECT_GE(b.startByte, a.startByte + page);
    EXPECT_EQ(sys.fileBytes(a), std::vector<std::uint8_t>(100, 1));
    EXPECT_EQ(sys.fileBytes(b), std::vector<std::uint8_t>(100, 2));
}

TEST(HostSystem, HostAllocatorAdvancesAndResets)
{
    ho::HostSystem sys;
    const auto a = sys.allocHost(100);
    const auto b = sys.allocHost(100);
    EXPECT_GE(b, a + 100);
    sys.resetHostAllocator();
    EXPECT_EQ(sys.allocHost(1), a);
}

TEST(HostSystem, FreedBufferIsReusedAtTheSameSize)
{
    ho::HostSystem sys;
    const auto a = sys.allocHost(100);
    const auto b = sys.allocHost(100);
    sys.freeHost(a, 100);
    sys.freeHost(b, 100);
    // LIFO: the last buffer freed comes back first. Sizes round to
    // whole pages, so 4000 bytes fits the same one-page list.
    EXPECT_EQ(sys.allocHost(4000), b);
    EXPECT_EQ(sys.allocHost(1), a);
}

TEST(HostSystem, FreedBufferNeverAliasesADifferentSize)
{
    ho::HostSystem sys;
    const auto small = sys.allocHost(4096);
    sys.freeHost(small, 4096);
    const auto big = sys.allocHost(8192);
    EXPECT_NE(big, small);
    EXPECT_GE(big, small + 4096);  // fresh space past the freed page
    EXPECT_EQ(sys.allocHost(4096), small);
}

TEST(HostSystem, ResetClearsTheFreeLists)
{
    ho::HostSystem sys;
    const auto a = sys.allocHost(4096);
    const auto b = sys.allocHost(4096);
    sys.freeHost(b, 4096);
    sys.resetHostAllocator();
    // Back to the bump base: b's stale free-list entry is gone, so the
    // second page comes from the bump pointer, not from the list.
    EXPECT_EQ(sys.allocHost(4096), a);
    EXPECT_EQ(sys.allocHost(4096), b);
    EXPECT_EQ(sys.allocHost(4096), b + 4096);
}

TEST(HostSystem, AllocFreeCyclesStayFlat)
{
    // 1M cycles of three written buffers would need ~90 GB of bump
    // space without reuse; with it they neither exhaust the allocator
    // nor grow the host DRAM's resident set.
    ho::HostSystem sys;
    const std::uint64_t sizes[] = {4 * ms::kKiB, 24 * ms::kKiB,
                                   64 * ms::kKiB};
    const std::vector<std::uint8_t> bytes(64, 0xAB);
    auto cycle = [&] {
        morpheus::pcie::Addr addrs[3];
        for (int i = 0; i < 3; ++i) {
            addrs[i] = sys.allocHost(sizes[i]);
            sys.mem().store().writeVec(addrs[i] + sizes[i] - 64, bytes);
        }
        for (int i = 0; i < 3; ++i)
            sys.freeHost(addrs[i], sizes[i]);
    };
    cycle();
    const std::uint64_t resident = sys.mem().store().residentBytes();
    for (int n = 0; n < 1000000; ++n)
        cycle();
    EXPECT_EQ(sys.mem().store().residentBytes(), resident);
}

TEST(HostSystem, RegisterStatsDumpsTheWholeMachine)
{
    ho::HostSystem sys;
    sys.createFile("f", std::vector<std::uint8_t>(100000, '7'));
    morpheus::sim::stats::StatSet set;
    sys.registerStats(set);
    morpheus::obs::MetricsRegistry reg;
    reg.absorb(set);
    std::ostringstream os;
    reg.report(os);
    const std::string report = os.str();
    // A few load-bearing counters must be present and non-zero after
    // the ingest write.
    EXPECT_NE(report.find("ssd.flash.programs"), std::string::npos);
    EXPECT_NE(report.find("ssd.ftl.hostWrites"), std::string::npos);
    EXPECT_NE(report.find("pcie.fabricBytes"), std::string::npos);
    EXPECT_GT(set.counterValue("ssd.flash.programs"), 0u);
    EXPECT_GT(set.counterValue("ssd.nvme.commands"), 0u);
    EXPECT_GT(set.counterValue("pcie.fabricBytes"), 0u);
    // Host DRAM's resident set is a gauge read at report time.
    EXPECT_EQ(set.counterValue("host.mem.residentBytes"),
              sys.mem().store().residentBytes());
}
