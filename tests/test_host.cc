/**
 * @file
 * Host-side model tests: sparse memory, DRAM accounting, CPU DVFS and
 * parse cost, OS overhead accounting, GPU roofline, the assembled
 * HostSystem (file creation and read-back), and the host path
 * (hostExecute).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "host/host_exec.hh"
#include "host/host_system.hh"
#include "obs/metrics.hh"
#include "sim/digest.hh"

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

namespace {

constexpr std::uint64_t kChunk = 64 * 1024;  ///< SparseMemory's chunk.

/** Digest of the @p n bytes at @p addr of @p mem, read in place. */
ms::Digest128
memDigest(const ho::SparseMemory &mem, std::uint64_t addr, std::size_t n)
{
    ms::Digester d;
    mem.forEachChunk(addr, n, [&d](const std::uint8_t *p, std::size_t k) {
        d.append(p, k);
    });
    return d.finish();
}

ms::Digest128
digestOf(const std::vector<std::uint8_t> &bytes)
{
    ms::Digester d;
    d.append(bytes.data(), bytes.size());
    return d.finish();
}

std::vector<std::uint8_t>
pattern(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(i * 131 + i / 251);
    return v;
}

}  // namespace

TEST(SparseMemory, ChunkedDigestEqualsContiguousDigest)
{
    // 200 KiB from an unaligned start touch chunks 0-4; chunk 2 is
    // never written, so it reads (and digests) as zeros.
    ho::SparseMemory mem(1 << 20);
    const std::uint64_t addr = kChunk - 1000;
    std::vector<std::uint8_t> bytes = pattern(200 * 1024);
    const std::size_t hole = 2 * kChunk - addr;
    std::fill(bytes.begin() + hole, bytes.begin() + hole + kChunk, 0);
    mem.write(addr, bytes.data(), hole);
    mem.write(addr + hole + kChunk, bytes.data() + hole + kChunk,
              bytes.size() - hole - kChunk);
    EXPECT_EQ(mem.residentBytes(), 4 * kChunk);
    EXPECT_EQ(memDigest(mem, addr, bytes.size()), digestOf(bytes));

    // Any split of the same bytes digests alike.
    ms::Digester d;
    for (std::size_t off = 0, step = 1; off < bytes.size();
         off += step, step = step * 7 % 97 + 1) {
        d.append(bytes.data() + off, std::min(step, bytes.size() - off));
    }
    EXPECT_EQ(d.finish(), digestOf(bytes));
}

TEST(SparseMemory, DigestSeesEveryByteAndTheLength)
{
    ho::SparseMemory mem(1 << 20);
    const std::vector<std::uint8_t> bytes = pattern(3 * kChunk);
    mem.writeVec(0, bytes);
    const std::size_t n = bytes.size();
    const ms::Digest128 base = memDigest(mem, 0, n);
    EXPECT_EQ(base, digestOf(bytes));
    for (const std::uint64_t at :
         {std::uint64_t(0), kChunk - 1, kChunk, 2 * kChunk + 5,
          std::uint64_t(n - 1)}) {
        const std::uint8_t flipped = bytes[at] ^ 0x01;
        mem.write(at, &flipped, 1);
        EXPECT_NE(memDigest(mem, 0, n), base) << "byte " << at;
        mem.write(at, &bytes[at], 1);
    }
    EXPECT_EQ(memDigest(mem, 0, n), base);
    EXPECT_NE(memDigest(mem, 0, n - 1), base);
    EXPECT_NE(memDigest(mem, 0, n + 1), base);  // one more (zero) byte
    // Never-written bytes are zeros, so only the length tells these
    // apart within one 32-byte stripe.
    EXPECT_NE(memDigest(mem, n, 5), memDigest(mem, n, 6));
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

TEST(HostCpu, LeastLoadedCoreTiesToLowestIndex)
{
    ho::HostCpu cpu(ho::CpuConfig{});
    EXPECT_EQ(cpu.leastLoadedCore(), 0u);  // all idle
    cpu.execute(0, 1000, 0);
    cpu.execute(1, 1000, 0);
    EXPECT_EQ(cpu.leastLoadedCore(), 2u);
    cpu.execute(2, 1000, 0);
    cpu.execute(3, 1000, 0);
    // All four free at the same tick again: the lowest index wins.
    EXPECT_EQ(cpu.leastLoadedCore(), 0u);
    const ms::Tick busy_until = cpu.coreTimeline(0).freeAt();
    EXPECT_DOUBLE_EQ(cpu.minBacklogUs(0),
                     static_cast<double>(busy_until) /
                         static_cast<double>(ms::kPsPerUs));
    EXPECT_EQ(cpu.minBacklogUs(busy_until), 0.0);
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

TEST(HostSystem, WriteStatsDumpsTheWholeMachine)
{
    ho::SystemConfig cfg;
    cfg.numSsds = 4;
    ho::HostSystem sys(cfg);
    sys.createFile("f", std::vector<std::uint8_t>(100000, '7'));
    morpheus::obs::MetricsRegistry reg;
    sys.writeStats(reg, "sys");
    // A few load-bearing counters must be non-zero after the ingest
    // write.
    EXPECT_GT(reg.counter("sys.ssd.flash.programs"), 0u);
    EXPECT_GT(reg.counter("sys.ssd.ftl.hostWrites"), 0u);
    EXPECT_GT(reg.counter("sys.ssd.nvme.commands"), 0u);
    EXPECT_GT(reg.counter("sys.pcie.fabricBytes"), 0u);
    // Every fleet device writes the same keys under its own prefix.
    std::ostringstream os;
    reg.report(os);
    const std::string report = os.str();
    for (const char *dev : {"ssd1", "ssd2", "ssd3"}) {
        SCOPED_TRACE(dev);
        const std::string p = std::string("sys.") + dev;
        EXPECT_NE(report.find(p + ".flash.programs "), std::string::npos);
        EXPECT_NE(report.find(p + ".sched.dsramBounces "),
                  std::string::npos);
    }
    EXPECT_EQ(report.find("sys.ssd4."), std::string::npos);
    // Host DRAM's resident set is its level at the write.
    EXPECT_EQ(reg.counter("sys.host.mem.residentBytes"),
              sys.mem().store().residentBytes());
}

// ------------------------------------------------------------ host path

namespace {

/** A backend that records each read and serves it at once. */
class RecordingBackend : public ho::StorageBackend
{
  public:
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reads;
    /** Host destination of each read, in order. */
    std::vector<morpheus::pcie::Addr> dests;

    std::string name() const override { return "recording"; }
    ms::Tick
    ingest(std::uint64_t, const std::vector<std::uint8_t> &) override
    {
        return 0;
    }
    ho::IoResult
    read(std::uint64_t offset, std::uint64_t len,
         morpheus::pcie::Addr dest, ms::Tick earliest) override
    {
        reads.emplace_back(offset, len);
        dests.push_back(dest);
        if (reads.size() == failAt)
            return {earliest + 1000, morpheus::nvme::Status::kMediaError};
        return {earliest};
    }

    /** 1-based index of the read that fails (0 = none fails). */
    std::size_t failAt = 0;
};

/** A whole-file host-path request for @p extent on SSD 0. */
ho::HostExecRequest
wholeFile(ho::HostSystem &sys, const ho::FileExtent &extent,
          std::uint64_t chunk_bytes)
{
    ho::HostExecRequest req{.backend = sys.ssdBackend(),
                            .extent = extent,
                            .fileBytes = extent.sizeBytes,
                            .objectBytes = 3 * extent.sizeBytes,
                            .chunkBytes = chunk_bytes};
    req.cost.bytes = extent.sizeBytes;
    req.cost.intValues = extent.sizeBytes / 8;
    return req;
}

}  // namespace

TEST(HostExecute, SyscallsAreOpenPlusOneReadPerChunk)
{
    ho::HostSystem sys;
    const auto extent =
        sys.createFile("f", std::vector<std::uint8_t>(100000, '7'));
    for (const std::uint64_t chunk : {16 * ms::kKiB, 64 * ms::kKiB,
                                      256 * ms::kKiB}) {
        const std::uint64_t before = sys.os().syscalls();
        const ms::Tick done = ho::hostExecute(
            sys, wholeFile(sys, extent, chunk), 0, extent.readyAt).done;
        EXPECT_GT(done, extent.readyAt);
        const std::uint64_t chunks = (100000 + chunk - 1) / chunk;
        EXPECT_EQ(sys.os().syscalls() - before, 1 + chunks) << chunk;
    }
}

TEST(HostExecute, BuffersGoBackToTheFreeLists)
{
    // The pattern of HostSystem.AllocFreeCyclesStayFlat: repeated
    // calls reuse X and Y, so neither the allocator top nor the host
    // DRAM's resident set grows.
    ho::HostSystem sys;
    const auto extent =
        sys.createFile("f", std::vector<std::uint8_t>(100000, '7'));
    const ho::HostExecRequest req = wholeFile(sys, extent, 32 * ms::kKiB);
    ms::Tick t = ho::hostExecute(sys, req, 0, extent.readyAt).done;
    const std::uint64_t resident = sys.mem().store().residentBytes();
    // A buffer of a size the host path never uses comes from the bump
    // pointer, so two of them bracket the calls in between.
    const std::uint64_t probe = 9 * 4096;
    const auto top = sys.allocHost(probe);
    for (int n = 0; n < 200; ++n)
        t = ho::hostExecute(sys, req, n % 4, t).done;
    EXPECT_EQ(sys.allocHost(probe), top + probe);
    EXPECT_EQ(sys.mem().store().residentBytes(), resident);
}

TEST(HostExecute, MidBlockSuffixReadsFromTheAlignedDownBlock)
{
    ho::HostSystem sys;
    RecordingBackend backend;
    // A split's host half: the suffix of a 10000-byte file from byte
    // 4096 + 700, read in page-sized chunks, so the first read's skew
    // (188 bytes in front of the suffix) takes it past one chunk.
    ho::FileExtent suffix;
    suffix.startByte = 4096 + 700;
    suffix.sizeBytes = 10000 - 700;
    const std::uint64_t chunk_bytes = 4096;
    ho::HostExecRequest req{.backend = backend,
                            .extent = suffix,
                            .fileBytes = 10000,
                            .objectBytes = 8000,
                            .chunkBytes = chunk_bytes};
    req.cost.bytes = 10000;
    ho::hostExecute(sys, req, 0, 0);

    ASSERT_EQ(backend.reads.size(),
              (suffix.sizeBytes + chunk_bytes - 1) / chunk_bytes);
    EXPECT_EQ(backend.reads.front(),
              std::make_pair(std::uint64_t(4096 + 512),
                             std::uint64_t(chunk_bytes + 188)));
    // X comes from the allocator before Y, and Y is the last buffer
    // freed, so the next allocation of Y's size returns Y: every read
    // into X must end at or before it.
    const morpheus::pcie::Addr y =
        sys.allocHost(req.objectBytes * suffix.sizeBytes / req.fileBytes);
    std::uint64_t start = suffix.startByte;
    for (std::size_t i = 0; i < backend.reads.size(); ++i) {
        const auto [offset, len] = backend.reads[i];
        // Each read starts at the block holding its first byte and
        // ends exactly where its chunk ends.
        const std::uint64_t chunk = std::min<std::uint64_t>(
            chunk_bytes, suffix.startByte + suffix.sizeBytes - start);
        EXPECT_EQ(offset % morpheus::nvme::kBlockBytes, 0u);
        EXPECT_EQ(offset, start - start % morpheus::nvme::kBlockBytes);
        EXPECT_EQ(offset + len, start + chunk);
        start += chunk;
        EXPECT_EQ(backend.dests[i], backend.dests.front());
        EXPECT_LE(backend.dests[i] + len, y) << i;
    }
}

TEST(HostExecute, FailedReadEndsTheCallWithItsStatus)
{
    ho::HostSystem sys;
    RecordingBackend backend;
    ho::FileExtent file;
    file.sizeBytes = 5 * 4096;
    const ho::HostExecRequest req{.backend = backend,
                                  .extent = file,
                                  .objectBytes = 8000,
                                  .chunkBytes = 4096};
    const ho::IoResult clean = ho::hostExecute(sys, req, 0, 0);
    EXPECT_TRUE(clean.ok());
    EXPECT_EQ(backend.reads.size(), 5u);

    // The second read of the next call fails past the retry budget:
    // no further read is issued, the buffers still go back, and the
    // failure is reported no earlier than the read completed.
    backend.failAt = backend.reads.size() + 2;
    const std::uint64_t probe = 9 * 4096;
    const auto top = sys.allocHost(probe);
    const ho::IoResult failed = ho::hostExecute(sys, req, 0, 0);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.status, morpheus::nvme::Status::kMediaError);
    EXPECT_GE(failed.done, 1000u);
    EXPECT_EQ(backend.reads.size(), 5u + 2u);
    EXPECT_EQ(sys.allocHost(probe), top + probe);
}
