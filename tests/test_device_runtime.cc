/**
 * @file
 * Device-runtime tests: the four Morpheus NVMe commands end to end on
 * the simulated SSD (MINIT instance/core management, MREAD streaming
 * deserialization, MWRITE serialization, MDEINIT return values).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "core/device_runtime.hh"
#include "core/standard_apps.hh"
#include "host/host_system.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "workloads/generators.hh"

namespace co = morpheus::core;
namespace ho = morpheus::host;
namespace nv = morpheus::nvme;
namespace sd = morpheus::serde;
namespace wk = morpheus::workloads;

namespace {

struct Rig
{
    ho::HostSystem sys;
    co::MorpheusDeviceRuntime device;
    co::StandardImages images = co::StandardImages::make();

    Rig() : device(sys.ssd()) {}
    explicit Rig(const ho::SystemConfig &cfg)
        : sys(cfg), device(sys.ssd())
    {
    }

    nv::Completion
    io(nv::Command cmd, morpheus::sim::Tick now = 0)
    {
        return sys.nvmeDriver().io(sys.ioQueue(), cmd, now);
    }

    /** Stage + MINIT an instance. @p stream_bytes declares the raw
     *  stream length in-band (MINIT SLBA, bytes) — 0 leaves the
     *  instance uncacheable, as before. @return completion. */
    nv::Completion
    minit(std::uint32_t instance, const co::StorageAppImage &image,
          co::DmaTarget target, std::uint32_t arg = 0,
          std::uint32_t flush_threshold = 0, std::uint32_t dsram = 0,
          std::uint64_t stream_bytes = 0)
    {
        co::InstanceSetup setup;
        setup.image = &image;
        setup.target = target;
        setup.flushThreshold = flush_threshold;
        device.stageInstance(instance, setup);
        nv::Command c;
        c.opcode = nv::Opcode::kMInit;
        c.instanceId = instance;
        c.prp1 = sys.allocHost(image.textBytes);
        c.prp2 = dsram;
        c.slba = stream_bytes;
        c.cdw13 = image.textBytes;
        c.cdw14 = arg;
        return io(c);
    }

    /** Stream the whole extent in @p chunk-byte MREADs, then MDEINIT.
     *  @return the MDEINIT completion (asserts every chunk's ok). */
    nv::Completion
    streamAll(std::uint32_t instance, const ho::FileExtent &extent,
              morpheus::sim::Tick t = 0,
              std::uint64_t chunk = 16 * 1024)
    {
        std::uint64_t off = 0;
        while (off < extent.sizeBytes) {
            const std::uint64_t valid =
                std::min(chunk, extent.sizeBytes - off);
            const auto cqe = mread(instance, extent, off, valid, t);
            EXPECT_TRUE(cqe.ok());
            t = cqe.postedAt;
            off += valid;
        }
        return mdeinit(instance, t);
    }

    nv::Completion
    mdeinit(std::uint32_t instance, morpheus::sim::Tick now = 0)
    {
        nv::Command fin;
        fin.opcode = nv::Opcode::kMDeinit;
        fin.instanceId = instance;
        return io(fin, now);
    }

    /** One MREAD chunk of [@p off, @p off + @p len) of @p extent. */
    nv::Completion
    mread(std::uint32_t instance, const ho::FileExtent &extent,
          std::uint64_t off, std::uint64_t len,
          morpheus::sim::Tick now = 0)
    {
        nv::Command c;
        c.opcode = nv::Opcode::kMRead;
        c.instanceId = instance;
        c.slba = (extent.startByte + off) / nv::kBlockBytes;
        c.nlb = static_cast<std::uint16_t>(
            (len + nv::kBlockBytes - 1) / nv::kBlockBytes - 1);
        c.cdw13 = static_cast<std::uint32_t>(len);
        return io(c, now);
    }
};

/** Platform with the streaming chunk pipeline on (DESIGN.md §11). */
ho::SystemConfig
pipelineConfig()
{
    ho::SystemConfig cfg;
    cfg.ssd.pipeline.enabled = true;
    return cfg;
}

}  // namespace

TEST(DeviceRuntime, MInitWithoutStagingFails)
{
    Rig rig;
    nv::Command c;
    c.opcode = nv::Opcode::kMInit;
    c.instanceId = 77;
    const auto cqe = rig.io(c);
    EXPECT_EQ(cqe.status, nv::Status::kNoSuchInstance);
}

TEST(DeviceRuntime, MReadWithoutInstanceFails)
{
    Rig rig;
    nv::Command c;
    c.opcode = nv::Opcode::kMRead;
    c.instanceId = 5;
    const auto cqe = rig.io(c);
    EXPECT_EQ(cqe.status, nv::Status::kNoSuchInstance);
}

TEST(DeviceRuntime, OversizedImageRejected)
{
    Rig rig;
    const auto image = co::MorpheusCompiler::compile(
        "huge",
        [](std::uint32_t) {
            return std::make_unique<co::IntArrayApp>(0);
        },
        10 * 1024 * 1024);  // way beyond I-SRAM
    const auto cqe = rig.minit(
        1, image, co::DmaTarget{rig.sys.allocHost(1024), false});
    EXPECT_EQ(cqe.status, nv::Status::kAppLoadFailed);
}

TEST(DeviceRuntime, FullStreamDeserializesIntoHostMemory)
{
    Rig rig;
    const auto a = wk::genIntArray(31, 20000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());

    const auto target_addr = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(1, rig.images.intArray,
                          co::DmaTarget{target_addr, false})
                    .ok());

    // Stream MREADs of 16 KiB.
    const std::uint64_t chunk = 16 * 1024;
    std::uint64_t off = 0;
    morpheus::sim::Tick t = 0;
    std::uint64_t mreads = 0;
    while (off < extent.sizeBytes) {
        const std::uint64_t valid =
            std::min(chunk, extent.sizeBytes - off);
        nv::Command c;
        c.opcode = nv::Opcode::kMRead;
        c.instanceId = 1;
        c.slba = (extent.startByte + off) / nv::kBlockBytes;
        c.nlb = static_cast<std::uint16_t>(
            (valid + nv::kBlockBytes - 1) / nv::kBlockBytes - 1);
        c.cdw13 = static_cast<std::uint32_t>(valid);
        const auto cqe = rig.io(c, t);
        ASSERT_TRUE(cqe.ok());
        t = cqe.postedAt;
        off += valid;
        ++mreads;
    }
    EXPECT_GT(mreads, 5u);

    nv::Command fin;
    fin.opcode = nv::Opcode::kMDeinit;
    fin.instanceId = 1;
    const auto fin_cqe = rig.io(fin, t);
    ASSERT_TRUE(fin_cqe.ok());
    EXPECT_EQ(fin_cqe.dw0, a.values.size());

    const auto bin = rig.sys.mem().store().readVec(
        target_addr, static_cast<std::size_t>(a.objectBytes()));
    EXPECT_EQ(sd::IntArrayObject::fromBinary(bin), a);
    EXPECT_EQ(rig.device.objectBytesOut(), a.objectBytes());
    EXPECT_EQ(rig.device.liveInstances(), 0u);
}

TEST(DeviceRuntime, InstanceIdReusableAfterDeinit)
{
    Rig rig;
    const auto target = co::DmaTarget{rig.sys.allocHost(4096), false};
    ASSERT_TRUE(rig.minit(9, rig.images.intArray, target).ok());
    // Busy while live.
    co::InstanceSetup setup;
    setup.image = &rig.images.intArray;
    setup.target = target;
    rig.device.stageInstance(9, setup);
    nv::Command again;
    again.opcode = nv::Opcode::kMInit;
    again.instanceId = 9;
    again.cdw13 = rig.images.intArray.textBytes;
    again.prp1 = rig.sys.allocHost(again.cdw13);
    EXPECT_EQ(rig.io(again).status, nv::Status::kInstanceBusy);

    nv::Command fin;
    fin.opcode = nv::Opcode::kMDeinit;
    fin.instanceId = 9;
    ASSERT_TRUE(rig.io(fin).ok());
    // Re-stage and re-init succeeds now.
    ASSERT_TRUE(rig.minit(9, rig.images.intArray, target).ok());
}

TEST(DeviceRuntime, MReadTimeScalesWithFloatContent)
{
    // Same byte count, int-only vs float-heavy: soft-float makes the
    // float stream slower on the FPU-less cores.
    auto run = [](double float_fraction) {
        Rig rig;
        const auto c =
            wk::genCooMatrix(33, 64, 64, 2000, float_fraction);
        sd::TextWriter w;
        c.serialize(w);
        const auto extent = rig.sys.createFile("coo", w.bytes());
        const auto target =
            co::DmaTarget{rig.sys.allocHost(c.objectBytes()), false};
        EXPECT_TRUE(
            rig.minit(1, rig.images.cooMatrix, target).ok());
        nv::Command cmd;
        cmd.opcode = nv::Opcode::kMRead;
        cmd.instanceId = 1;
        cmd.slba = extent.startByte / nv::kBlockBytes;
        const std::uint64_t blocks =
            (extent.sizeBytes + nv::kBlockBytes - 1) / nv::kBlockBytes;
        // Cap at MDTS; one command is enough for the comparison.
        cmd.nlb = static_cast<std::uint16_t>(
            std::min<std::uint64_t>(blocks, 256) - 1);
        cmd.cdw13 = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            extent.sizeBytes, cmd.dataBytes()));
        const auto t0 = rig.io(cmd, 0);
        EXPECT_TRUE(t0.ok());
        return t0.postedAt;
    };
    EXPECT_GT(run(1.0), run(0.0));
}

TEST(DeviceRuntime, MWriteSerializesToFlash)
{
    Rig rig;
    const auto a = wk::genIntArray(34, 100);
    std::vector<std::uint8_t> bin;
    for (const auto v : a.values) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        bin.insert(bin.end(), p, p + 8);
    }
    const morpheus::pcie::Addr src = rig.sys.allocHost(bin.size());
    rig.sys.mem().store().writeVec(src, bin);

    // Destination region on flash.
    const std::uint64_t dst_byte = 64ULL * 1024 * 1024;
    ASSERT_TRUE(rig.minit(2, rig.images.int64Serializer,
                          co::DmaTarget{src, false})
                    .ok());
    nv::Command wr;
    wr.opcode = nv::Opcode::kMWrite;
    wr.instanceId = 2;
    wr.prp1 = src;
    wr.slba = dst_byte / nv::kBlockBytes;
    wr.nlb = static_cast<std::uint16_t>(bin.size() / nv::kBlockBytes);
    wr.cdw13 = static_cast<std::uint32_t>(bin.size());
    ASSERT_TRUE(rig.io(wr).ok());

    // The flash now holds the ASCII text; parse it back.
    const auto text =
        rig.sys.ssd().peekBytes(dst_byte, 16 * a.values.size() + 16);
    sd::TextScanner s(text.data(), text.size());
    std::vector<std::int64_t> back;
    std::int64_t v = 0;
    while (s.nextInt64(&v) &&
           back.size() < a.values.size()) {
        back.push_back(v);
    }
    EXPECT_EQ(back, a.values);
}

TEST(DeviceRuntime, MWriteCursorContinuesAcrossCommands)
{
    // Two MWRITE chunks of binary values must serialize to one
    // contiguous text region on flash.
    Rig rig;
    const auto a = wk::genIntArray(71, 400);
    std::vector<std::uint8_t> bin;
    for (const auto v : a.values) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        bin.insert(bin.end(), p, p + 8);
    }
    const morpheus::pcie::Addr src = rig.sys.allocHost(bin.size());
    rig.sys.mem().store().writeVec(src, bin);
    const std::uint64_t dst_byte = 96ULL << 20;
    ASSERT_TRUE(rig.minit(3, rig.images.int64Serializer,
                          co::DmaTarget{src, false})
                    .ok());

    morpheus::sim::Tick t = 0;
    const std::size_t half = (bin.size() / 2 / 8) * 8;
    const std::size_t parts[2][2] = {{0, half},
                                     {half, bin.size() - half}};
    for (const auto &[off, len] : parts) {
        nv::Command wr;
        wr.opcode = nv::Opcode::kMWrite;
        wr.instanceId = 3;
        wr.prp1 = src + off;
        wr.slba = dst_byte / nv::kBlockBytes;
        wr.nlb = static_cast<std::uint16_t>(
            (len + nv::kBlockBytes - 1) / nv::kBlockBytes - 1);
        wr.cdw13 = static_cast<std::uint32_t>(len);
        const auto cqe = rig.io(wr, t);
        ASSERT_TRUE(cqe.ok());
        t = cqe.postedAt;
    }

    const auto text =
        rig.sys.ssd().peekBytes(dst_byte, a.values.size() * 12 + 32);
    sd::TextScanner s(text.data(), text.size());
    std::vector<std::int64_t> back;
    std::int64_t v = 0;
    while (back.size() < a.values.size() && s.nextInt64(&v))
        back.push_back(v);
    EXPECT_EQ(back, a.values);
}

namespace {

/**
 * Test app exercising both command paths: MREAD chunks are echoed
 * byte-for-byte to the DMA target (so the read cursor really moves),
 * and MWRITE chunks serialize int64 values to text. A value of -1 in
 * the write stream makes the app refuse the command after partially
 * staging output (the engine's abort path).
 */
struct EchoApp : co::StorageApp
{
    void
    processChunk(co::MsChunkContext &ctx) override
    {
        std::uint8_t b = 0;
        while (ctx.msReadValue(&b))
            ctx.msEmitValue(b);
    }

    bool
    processWriteChunk(co::MsChunkContext &ctx) override
    {
        std::int64_t v = 0;
        while (ctx.msReadValue(&v)) {
            if (v == -1)
                return false;
            char buf[32];
            const int n =
                std::snprintf(buf, sizeof(buf), "%lld ",
                              static_cast<long long>(v));
            ctx.msEmit(buf, static_cast<std::size_t>(n));
        }
        return true;
    }
};

co::StorageAppImage
echoImage()
{
    return co::MorpheusCompiler::compile(
        "echo",
        [](std::uint32_t) { return std::make_unique<EchoApp>(); });
}

}  // namespace

TEST(DeviceRuntime, DsramGrantsPartitionCoreScratchpad)
{
    ho::SystemConfig cfg;
    cfg.ssd.sched.dsramPartitioning = true;
    Rig rig(cfg);
    const auto target = co::DmaTarget{rig.sys.allocHost(4096), false};
    const std::uint32_t dsram = cfg.ssd.core.dsramBytes;
    const std::uint32_t share =
        dsram / morpheus::sched::kMaxInstancesPerCore;

    // Static placement: instance IDs 1, 5, 9, 13, 17 all map to core
    // 1. The first kMaxInstancesPerCore take the default equal share
    // each and fill the scratchpad.
    for (const std::uint32_t id : {1u, 5u, 9u, 13u})
        ASSERT_TRUE(rig.minit(id, rig.images.intArray, target).ok());
    auto &core1 = rig.sys.ssd().core(1);
    EXPECT_EQ(core1.dsramUsed(), share * 4);
    EXPECT_LE(core1.dsramUsed(), dsram);

    // A fifth co-resident has no budget left and bounces.
    EXPECT_EQ(rig.minit(17, rig.images.intArray, target).status,
              nv::Status::kDsramExhausted);
    EXPECT_EQ(rig.device.liveInstances(), 4u);

    // MDEINIT releases the grant; the bounced instance now fits.
    ASSERT_TRUE(rig.mdeinit(1).ok());
    EXPECT_EQ(core1.dsramUsed(), share * 3);
    ASSERT_TRUE(rig.minit(17, rig.images.intArray, target).ok());
    EXPECT_EQ(core1.dsramUsed(), share * 4);
}

TEST(DeviceRuntime, ExplicitDsramRequestIsHonored)
{
    ho::SystemConfig cfg;
    cfg.ssd.sched.dsramPartitioning = true;
    Rig rig(cfg);
    const auto target = co::DmaTarget{rig.sys.allocHost(4096), false};
    const std::uint32_t dsram = cfg.ssd.core.dsramBytes;

    // One instance asks for three quarters of the scratchpad; a peer
    // asking for the remaining quarter fits, a third does not.
    ASSERT_TRUE(rig.minit(1, rig.images.intArray, target, 0, 0,
                          dsram / 4 * 3)
                    .ok());
    ASSERT_TRUE(
        rig.minit(5, rig.images.intArray, target, 0, 0, dsram / 4)
            .ok());
    auto &core1 = rig.sys.ssd().core(1);
    EXPECT_EQ(core1.dsramUsed(), dsram);
    EXPECT_EQ(rig.minit(9, rig.images.intArray, target, 0, 0, 512)
                  .status,
              nv::Status::kDsramExhausted);
}

TEST(DeviceRuntime, RefusedMInitReleasesSchedulerState)
{
    ho::SystemConfig cfg;
    cfg.ssd.sched.dsramPartitioning = true;
    Rig rig(cfg);
    // Every MINIT requests the whole scratchpad, so one instance fills
    // its core's D-SRAM.
    const std::uint32_t dsram = cfg.ssd.core.dsramBytes;
    auto &sched = rig.sys.ssd().scheduler();
    const auto target = co::DmaTarget{rig.sys.allocHost(4096), false};

    const auto image = [](const char *name, std::uint32_t bytes) {
        return co::MorpheusCompiler::compile(
            name,
            [](std::uint32_t) {
                return std::make_unique<co::IntArrayApp>(0);
            },
            bytes);
    };

    // kAppLoadFailed: an image larger than the whole I-SRAM. Arbiter
    // slot, declared backlog and dispatcher placement must all be
    // released, or the failure leaks capacity.
    const auto huge = image("huge", 10 * 1024 * 1024);
    EXPECT_EQ(rig.minit(2, huge, target, 0, 0, dsram, 4096).status,
              nv::Status::kAppLoadFailed);
    EXPECT_EQ(sched.arbiter().openInstances(), 0u);
    EXPECT_EQ(sched.arbiter().totalDeclaredBacklog(), 0u);
    EXPECT_EQ(sched.dispatcher().residents(2), 0u);

    // kInstanceBusy: an image that fits an empty I-SRAM, on a core
    // whose I-SRAM is full of resident images (IDs 3 and 7 both map
    // to core 3). A bounce, not a terminal failure: no retry-after
    // hint, so the host waits for a completion.
    const std::uint32_t isram = cfg.ssd.core.isramBytes;
    const auto big = image("big", isram / 4 * 3);
    auto &core3 = rig.sys.ssd().core(3);
    ASSERT_TRUE(rig.minit(3, big, target, 0, 0, dsram, 4096).ok());
    const auto busy = rig.minit(7, big, target, 0, 0, dsram, 8192);
    EXPECT_EQ(busy.status, nv::Status::kInstanceBusy);
    EXPECT_TRUE(nv::isRetryable(busy.status));
    EXPECT_EQ(busy.dw0, 0u);
    EXPECT_EQ(core3.isramUsed(), big.textBytes);
    EXPECT_EQ(sched.arbiter().openInstances(), 1u);
    EXPECT_EQ(sched.arbiter().totalDeclaredBacklog(), 4096u);
    EXPECT_EQ(sched.dispatcher().residents(3), 1u);
    // One resident's MDEINIT makes room: the bounced MINIT succeeds.
    ASSERT_TRUE(rig.mdeinit(3).ok());
    ASSERT_TRUE(rig.minit(7, big, target, 0, 0, dsram).ok());
    EXPECT_EQ(core3.isramUsed(), big.textBytes);
    ASSERT_TRUE(rig.mdeinit(7).ok());
    EXPECT_EQ(sched.arbiter().openInstances(), 0u);

    // kDsramExhausted: a second instance on an occupied core (static
    // placement maps IDs 1 and 5 both to core 1).
    ASSERT_TRUE(
        rig.minit(1, rig.images.intArray, target, 0, 0, dsram).ok());
    EXPECT_EQ(
        rig.minit(5, rig.images.intArray, target, 0, 0, dsram).status,
        nv::Status::kDsramExhausted);
    EXPECT_EQ(sched.arbiter().openInstances(), 1u);
    EXPECT_EQ(sched.dispatcher().residents(1), 1u);

    // Both refused IDs stay usable once capacity frees.
    ASSERT_TRUE(rig.mdeinit(1).ok());
    EXPECT_EQ(sched.arbiter().openInstances(), 0u);
    ASSERT_TRUE(
        rig.minit(5, rig.images.intArray, target, 0, 0, dsram).ok());
    EXPECT_EQ(sched.dispatcher().residents(1), 1u);
    ASSERT_TRUE(rig.mdeinit(5).ok());
    ASSERT_TRUE(
        rig.minit(2, rig.images.intArray, target, 0, 0, dsram).ok());
    EXPECT_EQ(sched.dispatcher().residents(2), 1u);
}

TEST(DeviceRuntime, MixedReadWriteStreamLandsWritesAtSlba)
{
    Rig rig;
    // Put some raw bytes on flash for the MREAD leg.
    std::vector<std::uint8_t> raw(4096);
    for (std::size_t i = 0; i < raw.size(); ++i)
        raw[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const auto extent = rig.sys.createFile("raw", raw);

    const auto image = echoImage();
    const auto target_addr = rig.sys.allocHost(64 * 1024);
    // Small flush threshold so the MREAD leg really ships flushes and
    // advances the instance's DMA cursor before any MWRITE arrives.
    ASSERT_TRUE(rig.minit(7, image,
                          co::DmaTarget{target_addr, false}, 0, 512)
                    .ok());

    nv::Command rd;
    rd.opcode = nv::Opcode::kMRead;
    rd.instanceId = 7;
    rd.slba = extent.startByte / nv::kBlockBytes;
    rd.nlb = static_cast<std::uint16_t>(raw.size() / nv::kBlockBytes - 1);
    rd.cdw13 = static_cast<std::uint32_t>(raw.size());
    const auto rd_cqe = rig.io(rd);
    ASSERT_TRUE(rd_cqe.ok());
    EXPECT_EQ(rig.device.takeDeliveredBytes(7), raw.size());

    // Now serialize binary ints; the text must land exactly at the
    // command's SLBA, not skewed by the MREAD deliveries above.
    const std::vector<std::int64_t> vals{41, 542, 6643, 77444, 885};
    std::vector<std::uint8_t> bin(vals.size() * sizeof(std::int64_t));
    std::memcpy(bin.data(), vals.data(), bin.size());
    const morpheus::pcie::Addr src = rig.sys.allocHost(bin.size());
    rig.sys.mem().store().writeVec(src, bin);

    auto mwrite = [&](std::uint64_t dst_byte,
                      morpheus::sim::Tick t) {
        nv::Command wr;
        wr.opcode = nv::Opcode::kMWrite;
        wr.instanceId = 7;
        wr.prp1 = src;
        wr.slba = dst_byte / nv::kBlockBytes;
        wr.nlb = 0;
        wr.cdw13 = static_cast<std::uint32_t>(bin.size());
        return rig.io(wr, t);
    };
    auto text_at = [&](std::uint64_t dst_byte) {
        const auto text = rig.sys.ssd().peekBytes(dst_byte, 128);
        sd::TextScanner s(text.data(), text.size());
        std::vector<std::int64_t> back;
        std::int64_t v = 0;
        while (back.size() < vals.size() && s.nextInt64(&v))
            back.push_back(v);
        return back;
    };

    const std::uint64_t dst_a = 128ULL << 20;
    const auto wr_a = mwrite(dst_a, rd_cqe.postedAt);
    ASSERT_TRUE(wr_a.ok());
    EXPECT_EQ(text_at(dst_a), vals);

    // A second region: the write cursor must restart at the new SLBA.
    const std::uint64_t dst_b = 160ULL << 20;
    ASSERT_TRUE(mwrite(dst_b, wr_a.postedAt).ok());
    EXPECT_EQ(text_at(dst_b), vals);
}

TEST(DeviceRuntime, FailedMWriteDoesNotBleedIntoNext)
{
    Rig rig;
    const auto image = echoImage();
    const auto target = co::DmaTarget{rig.sys.allocHost(4096), false};
    ASSERT_TRUE(rig.minit(3, image, target).ok());

    // First command: stages "1 2 " then hits the poison value.
    const std::vector<std::int64_t> bad{1, 2, -1};
    std::vector<std::uint8_t> bad_bin(bad.size() *
                                      sizeof(std::int64_t));
    std::memcpy(bad_bin.data(), bad.data(), bad_bin.size());
    const morpheus::pcie::Addr bad_src =
        rig.sys.allocHost(bad_bin.size());
    rig.sys.mem().store().writeVec(bad_src, bad_bin);
    const std::uint64_t dst_byte = 192ULL << 20;
    nv::Command wr;
    wr.opcode = nv::Opcode::kMWrite;
    wr.instanceId = 3;
    wr.prp1 = bad_src;
    wr.slba = dst_byte / nv::kBlockBytes;
    wr.nlb = 0;
    wr.cdw13 = static_cast<std::uint32_t>(bad_bin.size());
    EXPECT_EQ(rig.io(wr).status, nv::Status::kInvalidField);
    EXPECT_EQ(rig.device.takeDeliveredBytes(3), 0u);

    // Second command must serialize only its own values: the aborted
    // command's staged "1 2 " must not prefix the region.
    const std::vector<std::int64_t> good{33, 44};
    std::vector<std::uint8_t> good_bin;
    for (const auto v : good) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        good_bin.insert(good_bin.end(), p, p + 8);
    }
    const morpheus::pcie::Addr good_src =
        rig.sys.allocHost(good_bin.size());
    rig.sys.mem().store().writeVec(good_src, good_bin);
    wr.prp1 = good_src;
    wr.cdw13 = static_cast<std::uint32_t>(good_bin.size());
    ASSERT_TRUE(rig.io(wr).ok());

    const auto text = rig.sys.ssd().peekBytes(dst_byte, 64);
    sd::TextScanner s(text.data(), text.size());
    std::vector<std::int64_t> back;
    std::int64_t v = 0;
    while (back.size() < good.size() && s.nextInt64(&v))
        back.push_back(v);
    EXPECT_EQ(back, good);
}

TEST(DeviceRuntime, StatsCountMorpheusCommands)
{
    Rig rig;
    const auto a = wk::genIntArray(72, 3000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("s", w.bytes());
    const auto target =
        co::DmaTarget{rig.sys.allocHost(a.objectBytes()), false};
    ASSERT_TRUE(rig.minit(4, rig.images.intArray, target).ok());
    nv::Command c;
    c.opcode = nv::Opcode::kMRead;
    c.instanceId = 4;
    c.slba = extent.startByte / nv::kBlockBytes;
    c.nlb = 15;
    c.cdw13 = 8192;
    ASSERT_TRUE(rig.io(c).ok());
    nv::Command fin;
    fin.opcode = nv::Opcode::kMDeinit;
    fin.instanceId = 4;
    ASSERT_TRUE(rig.io(fin).ok());

    morpheus::obs::MetricsRegistry reg;
    rig.device.writeStats(reg, "morpheus");
    EXPECT_EQ(reg.counter("morpheus.minits"), 1u);
    EXPECT_EQ(reg.counter("morpheus.mreads"), 1u);
    EXPECT_EQ(reg.counter("morpheus.mdeinits"), 1u);
    EXPECT_GT(reg.counter("morpheus.objectBytesOut"), 0u);
    EXPECT_EQ(reg.counter("morpheus.rawBytesIn"), 8192u);
}

TEST(DeviceRuntime, MediaErrorLeavesCleanResubmission)
{
    Rig rig;
    const auto a = wk::genIntArray(77, 8000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    const auto target_addr = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(1, rig.images.intArray,
                          co::DmaTarget{target_addr, false})
                    .ok());

    nv::Command c;
    c.opcode = nv::Opcode::kMRead;
    c.instanceId = 1;
    c.slba = extent.startByte / nv::kBlockBytes;
    c.nlb = static_cast<std::uint16_t>(
        (extent.sizeBytes + nv::kBlockBytes - 1) / nv::kBlockBytes - 1);
    c.cdw13 = static_cast<std::uint32_t>(extent.sizeBytes);

    morpheus::sim::Tick t = 0;
    {
        // Every flash page read comes back uncorrectable.
        morpheus::sim::FaultPlan plan;
        plan.mediaRate = 1.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        const auto cqe = rig.io(c, t);
        EXPECT_EQ(cqe.status, nv::Status::kMediaError);
        EXPECT_GE(fi.mediaErrors(), 1u);
        t = cqe.postedAt;
    }
    // The chunk never reached the parser: resubmitting the identical
    // command with the fault cleared completes the stream exactly.
    const auto retry = rig.io(c, t);
    ASSERT_TRUE(retry.ok());
    const auto fin = rig.mdeinit(1, retry.postedAt);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(fin.dw0, a.values.size());
    const auto bin = rig.sys.mem().store().readVec(
        target_addr, static_cast<std::size_t>(a.objectBytes()));
    EXPECT_EQ(sd::IntArrayObject::fromBinary(bin), a);
}

TEST(DeviceRuntime, OutOfOrderChunkAfterMediaErrorBounces)
{
    Rig rig;
    const auto a = wk::genIntArray(79, 8000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    const auto target_addr = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(4, rig.images.intArray,
                          co::DmaTarget{target_addr, false})
                    .ok());

    // Split the stream into two chunks on a block boundary.
    const std::uint64_t first_bytes = 4096;
    ASSERT_GT(extent.sizeBytes, first_bytes);
    nv::Command c1;
    c1.opcode = nv::Opcode::kMRead;
    c1.instanceId = 4;
    c1.slba = extent.startByte / nv::kBlockBytes;
    c1.nlb =
        static_cast<std::uint16_t>(first_bytes / nv::kBlockBytes - 1);
    c1.cdw13 = static_cast<std::uint32_t>(first_bytes);
    nv::Command c2 = c1;
    c2.slba = c1.slba + first_bytes / nv::kBlockBytes;
    c2.nlb = static_cast<std::uint16_t>(
        (extent.sizeBytes - first_bytes + nv::kBlockBytes - 1) /
            nv::kBlockBytes -
        1);
    c2.cdw13 =
        static_cast<std::uint32_t>(extent.sizeBytes - first_bytes);

    morpheus::sim::Tick t = 0;
    {
        morpheus::sim::FaultPlan plan;
        plan.mediaRate = 1.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        const auto cqe = rig.io(c1, t);
        EXPECT_EQ(cqe.status, nv::Status::kMediaError);
        t = cqe.postedAt;
    }
    // Chunk 2 was already in flight when chunk 1 failed: the parse is
    // a stateful stream, so the firmware must bounce the gap-jumping
    // chunk instead of feeding it out of order.
    const auto ooo = rig.io(c2, t);
    EXPECT_EQ(ooo.status, nv::Status::kSequenceError);
    EXPECT_TRUE(nv::isRetryable(ooo.status));
    t = ooo.postedAt;

    // In-order resubmission of both chunks drains the stream exactly.
    const auto r1 = rig.io(c1, t);
    ASSERT_TRUE(r1.ok());
    const auto r2 = rig.io(c2, r1.postedAt);
    ASSERT_TRUE(r2.ok());
    const auto fin = rig.mdeinit(4, r2.postedAt);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(fin.dw0, a.values.size());
    const auto bin = rig.sys.mem().store().readVec(
        target_addr, static_cast<std::size_t>(a.objectBytes()));
    EXPECT_EQ(sd::IntArrayObject::fromBinary(bin), a);
}

TEST(DeviceRuntime, CrashChargesAbortedWorkAndPoisonsInstance)
{
    Rig rig;
    const auto a = wk::genIntArray(78, 8000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    const auto target_addr = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(3, rig.images.intArray,
                          co::DmaTarget{target_addr, false})
                    .ok());

    nv::Command c;
    c.opcode = nv::Opcode::kMRead;
    c.instanceId = 3;
    c.slba = extent.startByte / nv::kBlockBytes;
    c.nlb = static_cast<std::uint16_t>(
        (extent.sizeBytes + nv::kBlockBytes - 1) / nv::kBlockBytes - 1);
    c.cdw13 = static_cast<std::uint32_t>(extent.sizeBytes);

    morpheus::sim::Tick t = 0;
    {
        morpheus::sim::FaultPlan plan;
        plan.crashRate = 1.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        const auto cqe = rig.io(c, t);
        EXPECT_EQ(cqe.status, nv::Status::kAppFault);
        EXPECT_EQ(fi.appCrashes(), 1u);
        t = cqe.postedAt;
    }
    // The aborted command's staged bytes were dropped, not shipped:
    // nothing reached host memory (the staged-byte-leak regression).
    EXPECT_EQ(rig.device.objectBytesOut(), 0u);

    // The instance is poisoned: data commands bounce without fault
    // injection until the host reinstalls it.
    EXPECT_EQ(rig.io(c, t).status, nv::Status::kAppFault);

    // MDEINIT tears the carcass down (skipping finish hooks) and frees
    // the scheduler slot; the same ID is then fully reusable.
    const auto fin = rig.mdeinit(3, t);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(fin.dw0, 0u);  // no finished object to report
    EXPECT_EQ(rig.device.liveInstances(), 0u);
    EXPECT_EQ(rig.sys.ssd().scheduler().arbiter().openInstances(), 0u);
    EXPECT_EQ(rig.sys.ssd().core(3 % 4).dsramUsed(), 0u);

    ASSERT_TRUE(rig.minit(3, rig.images.intArray,
                          co::DmaTarget{target_addr, false})
                    .ok());
    const auto good = rig.io(c, t);
    ASSERT_TRUE(good.ok());
    ASSERT_TRUE(rig.mdeinit(3, good.postedAt).ok());
    const auto bin = rig.sys.mem().store().readVec(
        target_addr, static_cast<std::size_t>(a.objectBytes()));
    EXPECT_EQ(sd::IntArrayObject::fromBinary(bin), a);
}

TEST(DeviceRuntime, WatchdogKillsHungInstanceAndHostTimesOut)
{
    Rig rig;
    const auto a = wk::genIntArray(79, 4000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    const auto target_addr = rig.sys.allocHost(a.objectBytes());
    // Declare more than the one MREAD below will stream, so a residue
    // is left for the watchdog's kill to clear.
    ASSERT_TRUE(rig.minit(2, rig.images.intArray,
                          co::DmaTarget{target_addr, false}, 0, 0, 0,
                          2 * extent.sizeBytes)
                    .ok());

    // The hang suppresses the CQE; only driver recovery can observe it.
    nv::DriverRecoveryConfig rec;
    rec.enabled = true;
    rig.sys.nvmeDriver().setRecovery(rec);

    nv::Command c;
    c.opcode = nv::Opcode::kMRead;
    c.instanceId = 2;
    c.slba = extent.startByte / nv::kBlockBytes;
    c.nlb = static_cast<std::uint16_t>(
        (extent.sizeBytes + nv::kBlockBytes - 1) / nv::kBlockBytes - 1);
    c.cdw13 = static_cast<std::uint32_t>(extent.sizeBytes);

    {
        morpheus::sim::FaultPlan plan;
        plan.hangRate = 1.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        const auto cqe = rig.io(c, 0);
        EXPECT_EQ(cqe.status, nv::Status::kCommandTimeout);
        EXPECT_EQ(fi.appHangs(), 1u);
        EXPECT_EQ(fi.watchdogKills(), 1u);
    }
    EXPECT_EQ(rig.sys.nvmeDriver().timeoutsSynthesized(), 1u);

    // The watchdog already reclaimed everything device-side: the
    // instance is gone, its core and scheduler slot are free.
    EXPECT_EQ(rig.device.liveInstances(), 0u);
    EXPECT_EQ(rig.sys.ssd().scheduler().arbiter().openInstances(), 0u);
    EXPECT_EQ(
        rig.sys.ssd().scheduler().arbiter().totalDeclaredBacklog(), 0u);
    EXPECT_EQ(rig.mdeinit(2).status, nv::Status::kNoSuchInstance);

    // The host can reinstall the same ID and finish the job clean.
    ASSERT_TRUE(rig.minit(2, rig.images.intArray,
                          co::DmaTarget{target_addr, false})
                    .ok());
    const auto good = rig.io(c, 0);
    ASSERT_TRUE(good.ok());
    ASSERT_TRUE(rig.mdeinit(2, good.postedAt).ok());
}

namespace {

/** Spans named @p name attributed to trace @p id. */
std::vector<morpheus::obs::Span>
spansNamed(const morpheus::obs::InMemoryTraceSink &sink,
           const std::string &name, morpheus::obs::TraceId id)
{
    std::vector<morpheus::obs::Span> out;
    for (const auto &s : sink.forTrace(id)) {
        if (s.name == name)
            out.push_back(s);
    }
    return out;
}

}  // namespace

TEST(DeviceRuntime, MultiPageMReadParsesAtLastPagesBufferedTick)
{
    // Pipeline off: the chunk is one sub-buffer, so its parse starts
    // once the last flash page is buffered in controller DRAM, page by
    // page, exactly as fetchToDram times it.
    const auto a = wk::genIntArray(80, 20000);
    sd::TextWriter w;
    a.serialize(w);
    const std::uint64_t chunk = 64 * 1024;

    Rig rig;
    Rig twin;
    const auto extent = rig.sys.createFile("ints", w.bytes());
    twin.sys.createFile("ints", w.bytes());
    ASSERT_GT(extent.sizeBytes, chunk);
    const auto target = co::DmaTarget{rig.sys.allocHost(a.objectBytes()),
                                      false};
    ASSERT_TRUE(rig.minit(1, rig.images.intArray, target).ok());
    ASSERT_TRUE(twin.minit(1, twin.images.intArray, target).ok());

    morpheus::obs::InMemoryTraceSink sink;
    morpheus::sim::Tick cqe_at = 0;
    {
        const morpheus::obs::ScopedTraceSink attach(sink);
        const auto cqe = rig.mread(1, extent, 0, chunk, 0);
        ASSERT_TRUE(cqe.ok());
        cqe_at = cqe.postedAt;
    }
    const auto mreads = sink.named("MREAD");
    ASSERT_FALSE(mreads.empty());
    const auto fetches = spansNamed(sink, "fetch", mreads[0].trace);
    ASSERT_EQ(fetches.size(), 1u);
    const auto parses = spansNamed(sink, "parse", mreads[0].trace);
    ASSERT_EQ(parses.size(), 1u);
    EXPECT_EQ(rig.device.subBuffersParsed(), 1u);

    const auto paged = twin.sys.ssd().fetchToDram(
        extent.startByte, chunk, fetches[0].begin);
    ASSERT_EQ(paged.pageReady.size(), chunk / rig.sys.ssd().ftl().pageBytes());
    EXPECT_EQ(fetches[0].end, paged.pageReady.back());
    EXPECT_EQ(parses[0].begin, paged.pageReady.back());
    EXPECT_LT(parses[0].end, cqe_at);
}

TEST(DeviceRuntime, HangStrikesAtFirstSubBufferReadyTick)
{
    // With double buffering a chunk spans several sub-buffers. A hung
    // app is dispatched where its parse would have begun — when the
    // first sub-buffer is buffered — not at the first page's arrival
    // and not at the whole chunk's.
    const auto a = wk::genIntArray(81, 30000);
    sd::TextWriter w;
    a.serialize(w);
    const std::uint64_t chunk = 128 * 1024;  // MDTS: two sub-buffers

    // Returns {first parse-or-hang span, fetch span} of one MREAD.
    auto run = [&](bool hang) {
        Rig rig(pipelineConfig());
        const auto extent = rig.sys.createFile("ints", w.bytes());
        EXPECT_GT(extent.sizeBytes, chunk);
        EXPECT_TRUE(rig.minit(1, rig.images.intArray,
                              co::DmaTarget{rig.sys.allocHost(
                                                a.objectBytes()),
                                            false})
                        .ok());
        nv::DriverRecoveryConfig rec;
        rec.enabled = true;
        rig.sys.nvmeDriver().setRecovery(rec);

        morpheus::sim::FaultPlan plan;
        plan.hangRate = hang ? 1.0 : 0.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        morpheus::obs::InMemoryTraceSink sink;
        const morpheus::obs::ScopedTraceSink attach(sink);
        const auto cqe = rig.mread(1, extent, 0, chunk, 0);
        EXPECT_EQ(cqe.ok(), !hang);
        const auto mreads = sink.named("MREAD");
        EXPECT_FALSE(mreads.empty());
        const auto trace = mreads.at(0).trace;
        const auto work = spansNamed(sink, hang ? "hang" : "parse", trace);
        const auto fetch = spansNamed(sink, "fetch", trace);
        EXPECT_FALSE(work.empty());
        EXPECT_EQ(fetch.size(), 1u);
        return std::make_pair(work.at(0), fetch.at(0));
    };

    const auto [parse, clean_fetch] = run(false);
    const auto [hang, fetch] = run(true);
    // The hang starts exactly where the clean run's first sub-buffer
    // parse started, strictly inside the chunk's fetch window.
    EXPECT_EQ(hang.begin, parse.begin);
    EXPECT_GT(hang.begin, fetch.begin);
    EXPECT_LT(hang.begin, fetch.end);
    EXPECT_EQ(fetch.end, clean_fetch.end);
}

TEST(DeviceRuntime, TransientImageFetchFaultIsRetryable)
{
    Rig rig;
    const auto target = co::DmaTarget{rig.sys.allocHost(4096), false};
    {
        // Every payload-sized DMA move faults, including the MINIT
        // image fetch.
        morpheus::sim::FaultPlan plan;
        plan.dmaRate = 1.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        const auto cqe = rig.minit(4, rig.images.intArray, target);
        EXPECT_EQ(cqe.status, nv::Status::kTransientTransferError);
        EXPECT_GE(fi.dmaFaults(), 1u);
    }
    // The failed MINIT released core and scheduler state, so a clean
    // resubmission (fault cleared) installs the instance.
    EXPECT_EQ(rig.device.liveInstances(), 0u);
    EXPECT_EQ(rig.sys.ssd().scheduler().arbiter().openInstances(), 0u);
    ASSERT_TRUE(rig.minit(4, rig.images.intArray, target).ok());
    ASSERT_TRUE(rig.mdeinit(4).ok());
}

// -------------------------------------------- streaming chunk pipeline

TEST(DeviceRuntime, PipelinedStreamMatchesSerialResult)
{
    // The pipeline overlaps fetch/parse/flush but must not change one
    // functional byte or the delivered object count.
    const auto a = wk::genIntArray(91, 20000);
    sd::TextWriter w;
    a.serialize(w);

    auto run = [&](const ho::SystemConfig &cfg) {
        Rig rig(cfg);
        const auto extent = rig.sys.createFile("ints", w.bytes());
        const auto target_addr = rig.sys.allocHost(a.objectBytes());
        EXPECT_TRUE(rig.minit(1, rig.images.intArray,
                              co::DmaTarget{target_addr, false})
                        .ok());
        morpheus::sim::Tick t = 0;
        std::uint64_t off = 0;
        while (off < extent.sizeBytes) {
            const std::uint64_t len =
                std::min<std::uint64_t>(16 * 1024,
                                        extent.sizeBytes - off);
            const auto cqe = rig.mread(1, extent, off, len, t);
            EXPECT_TRUE(cqe.ok());
            t = cqe.postedAt;
            off += len;
        }
        const auto fin = rig.mdeinit(1, t);
        EXPECT_TRUE(fin.ok());
        EXPECT_EQ(fin.dw0, a.values.size());
        return rig.sys.mem().store().readVec(
            target_addr, static_cast<std::size_t>(a.objectBytes()));
    };

    const auto serial = run(ho::SystemConfig{});
    const auto piped = run(pipelineConfig());
    EXPECT_EQ(serial, piped);
    EXPECT_EQ(sd::IntArrayObject::fromBinary(piped), a);
}

TEST(DeviceRuntime, PipelinedCoalesceMergesSmallFlushSegments)
{
    // At the default threshold (D-SRAM/4) a sub-buffer rarely flushes
    // twice, so coalescing has nothing to merge; a tiny threshold
    // splits each sub-buffer's output into many 512-byte segments,
    // which land back-to-back on the DMA cursor. With the pipeline on
    // they must merge into kMaxDescriptorBytes descriptors without
    // changing a byte; with it off none merge.
    const auto a = wk::genIntArray(93, 20000);
    sd::TextWriter w;
    a.serialize(w);

    auto run = [&](bool pipelined) {
        Rig rig(pipelined ? pipelineConfig() : ho::SystemConfig{});
        const auto extent = rig.sys.createFile("ints", w.bytes());
        const auto target_addr = rig.sys.allocHost(a.objectBytes());
        EXPECT_TRUE(rig.minit(1, rig.images.intArray,
                              co::DmaTarget{target_addr, false},
                              /*arg=*/0, /*flush_threshold=*/512)
                        .ok());
        morpheus::sim::Tick t = 0;
        std::uint64_t off = 0;
        while (off < extent.sizeBytes) {
            const std::uint64_t len = std::min<std::uint64_t>(
                16 * 1024, extent.sizeBytes - off);
            const auto cqe = rig.mread(1, extent, off, len, t);
            EXPECT_TRUE(cqe.ok());
            t = cqe.postedAt;
            off += len;
        }
        EXPECT_TRUE(rig.mdeinit(1, t).ok());
        return std::make_pair(
            rig.sys.mem().store().readVec(
                target_addr, static_cast<std::size_t>(a.objectBytes())),
            rig.device.flushSegmentsCoalesced());
    };

    const auto [merged, merged_count] = run(true);
    const auto [split, split_count] = run(false);
    EXPECT_GT(merged_count, 0u);
    EXPECT_EQ(split_count, 0u);
    EXPECT_EQ(merged, split);
    EXPECT_EQ(sd::IntArrayObject::fromBinary(merged), a);
}

TEST(DeviceRuntime, PipelinedMediaErrorOnReadaheadIsDiscarded)
{
    // A media error drawn while *prefetching* the next chunk must be
    // discarded with the buffer — never fed to the parser and never
    // surfaced to the host, which did not submit that chunk yet.
    Rig rig(pipelineConfig());
    const auto a = wk::genIntArray(92, 20000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    const auto target_addr = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(1, rig.images.intArray,
                          co::DmaTarget{target_addr, false})
                    .ok());

    const std::uint64_t chunk = 16 * 1024;
    ASSERT_GT(extent.sizeBytes, 3 * chunk);

    // Chunk 0 runs clean and prefetches chunk 1's pages cleanly.
    auto cqe = rig.mread(1, extent, 0, chunk, 0);
    ASSERT_TRUE(cqe.ok());
    morpheus::sim::Tick t = cqe.postedAt;
    {
        // Chunk 1 consumes the clean readahead (no fresh flash reads
        // for its own payload), so it succeeds even though every page
        // read now comes back uncorrectable — but the prefetch it
        // issues for chunk 2 draws the fault and is poisoned.
        morpheus::sim::FaultPlan plan;
        plan.mediaRate = 1.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        cqe = rig.mread(1, extent, chunk, chunk, t);
        ASSERT_TRUE(cqe.ok());
        t = cqe.postedAt;
        EXPECT_GE(fi.mediaErrors(), 1u);
    }
    EXPECT_GE(rig.device.readaheadHits(), 1u);

    // Chunk 2 discards the poisoned buffer and re-fetches from flash
    // (fault cleared): the host never saw a media error.
    std::uint64_t off = 2 * chunk;
    while (off < extent.sizeBytes) {
        const std::uint64_t len =
            std::min<std::uint64_t>(chunk, extent.sizeBytes - off);
        cqe = rig.mread(1, extent, off, len, t);
        ASSERT_TRUE(cqe.ok());
        t = cqe.postedAt;
        off += len;
    }
    EXPECT_EQ(rig.device.readaheadMediaDiscards(), 1u);

    const auto fin = rig.mdeinit(1, t);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(fin.dw0, a.values.size());
    const auto bin = rig.sys.mem().store().readVec(
        target_addr, static_cast<std::size_t>(a.objectBytes()));
    EXPECT_EQ(sd::IntArrayObject::fromBinary(bin), a);
}

TEST(DeviceRuntime, PipelinedCrashChargesAbortedWorkOnce)
{
    // The crash manifests in the first sub-buffer of the pipelined
    // parse: the aborted work is charged once, nothing is shipped, and
    // the instance is poisoned exactly as with the pipeline off.
    Rig rig(pipelineConfig());
    const auto a = wk::genIntArray(93, 8000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    const auto target_addr = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(3, rig.images.intArray,
                          co::DmaTarget{target_addr, false})
                    .ok());

    morpheus::sim::Tick t = 0;
    {
        morpheus::sim::FaultPlan plan;
        plan.crashRate = 1.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        const auto cqe =
            rig.mread(3, extent, 0, extent.sizeBytes, t);
        EXPECT_EQ(cqe.status, nv::Status::kAppFault);
        EXPECT_EQ(fi.appCrashes(), 1u);
        t = cqe.postedAt;
    }
    EXPECT_EQ(rig.device.objectBytesOut(), 0u);

    // Poisoned until reinstalled; the clean rerun completes exactly.
    EXPECT_EQ(rig.mread(3, extent, 0, extent.sizeBytes, t).status,
              nv::Status::kAppFault);
    ASSERT_TRUE(rig.mdeinit(3, t).ok());
    ASSERT_TRUE(rig.minit(3, rig.images.intArray,
                          co::DmaTarget{target_addr, false})
                    .ok());
    const auto good = rig.mread(3, extent, 0, extent.sizeBytes, t);
    ASSERT_TRUE(good.ok());
    const auto fin = rig.mdeinit(3, good.postedAt);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(fin.dw0, a.values.size());
    const auto bin = rig.sys.mem().store().readVec(
        target_addr, static_cast<std::size_t>(a.objectBytes()));
    EXPECT_EQ(sd::IntArrayObject::fromBinary(bin), a);
}

TEST(DeviceRuntime, PipelinedRunIsTraceInvariant)
{
    // Attaching a trace sink must not change one simulated tick of the
    // pipelined schedule (the sub-span instrumentation only observes).
    const auto a = wk::genIntArray(95, 12000);
    sd::TextWriter w;
    a.serialize(w);

    auto run = [&](morpheus::obs::TraceSink *sink) {
        Rig rig(pipelineConfig());
        const auto extent = rig.sys.createFile("ints", w.bytes());
        const auto target_addr = rig.sys.allocHost(a.objectBytes());
        auto *attach =
            sink ? new morpheus::obs::ScopedTraceSink(*sink) : nullptr;
        EXPECT_TRUE(rig.minit(1, rig.images.intArray,
                              co::DmaTarget{target_addr, false})
                        .ok());
        morpheus::sim::Tick t = 0;
        std::uint64_t off = 0;
        while (off < extent.sizeBytes) {
            const std::uint64_t len =
                std::min<std::uint64_t>(16 * 1024,
                                        extent.sizeBytes - off);
            const auto cqe = rig.mread(1, extent, off, len, t);
            EXPECT_TRUE(cqe.ok());
            t = cqe.postedAt;
            off += len;
        }
        const auto fin = rig.mdeinit(1, t);
        EXPECT_TRUE(fin.ok());
        delete attach;
        return fin.postedAt;
    };

    morpheus::obs::InMemoryTraceSink sink;
    const auto untraced = run(nullptr);
    const auto traced = run(&sink);
    EXPECT_EQ(untraced, traced);
    // The pipeline's sub-spans are present on the traced run.
    EXPECT_GE(sink.count("readahead"), 1u);
    EXPECT_GE(sink.count("parse"), 2u);
    EXPECT_GE(sink.count("fetch_readahead"), 1u);
}

// ---- deserialized-object cache (DESIGN.md §13) ----------------------

namespace {

/** Platform with the object cache on (defaults: 64 MiB LRU). */
ho::SystemConfig
cacheConfig()
{
    ho::SystemConfig cfg;
    cfg.ssd.cache.enabled = true;
    return cfg;
}

morpheus::ssd::ObjectCacheKey
unitKey(std::uint64_t begin, std::uint64_t len,
        const char *applet = "app")
{
    morpheus::ssd::ObjectCacheKey k;
    k.rawBegin = begin;
    k.rawLen = len;
    k.applet = applet;
    return k;
}

}  // namespace

TEST(ObjectCacheUnit, AdjacentRangesDoNotInvalidate)
{
    morpheus::ssd::ObjectCacheConfig cfg;
    cfg.enabled = true;
    morpheus::ssd::ObjectCache cache(cfg, 0);
    cache.insert(unitKey(4096, 4096), std::vector<std::uint8_t>(64),
                 7);
    ASSERT_EQ(cache.entries(), 1u);

    // End-exclusive, FileExtent-consistent: a write ending exactly at
    // rawBegin or starting exactly at rawBegin + rawLen only touches.
    cache.invalidateRange(1, 0, 4096);      // [..., 4096) ends at begin
    cache.invalidateRange(1, 8192, 12288);  // starts at end
    cache.invalidateRange(1, 4000, 4000);   // zero-length
    cache.invalidateRange(2, 4096, 8192);   // other namespace
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.invalidations(), 0u);

    // One byte into the range from either side must drop it.
    cache.invalidateRange(1, 8191, 8192);  // last cached byte
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.invalidations(), 1u);

    cache.insert(unitKey(4096, 4096), std::vector<std::uint8_t>(64),
                 7);
    cache.invalidateRange(1, 0, 4097);  // first cached byte
    EXPECT_EQ(cache.entries(), 0u);
}

TEST(ObjectCacheUnit, LruEvictsLeastRecentlyUsed)
{
    const std::vector<std::uint8_t> blob(100);
    morpheus::ssd::ObjectCacheConfig cfg;
    cfg.enabled = true;
    cfg.budgetBytes = 250;
    morpheus::ssd::ObjectCache c(cfg, 0);
    c.insert(unitKey(0, 10), blob, 0);
    c.insert(unitKey(100, 10), blob, 0);
    ASSERT_NE(c.lookup(unitKey(0, 10)), nullptr);  // refresh key 0
    c.insert(unitKey(200, 10), blob, 0);           // evicts key 100
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_NE(c.lookup(unitKey(0, 10)), nullptr);
    EXPECT_EQ(c.lookup(unitKey(100, 10)), nullptr);
}

TEST(ObjectCacheUnit, BudgetSharedWithReadaheadReservation)
{
    morpheus::ssd::ObjectCacheConfig cfg;
    cfg.enabled = true;
    cfg.budgetBytes = 1024 * 1024;

    // The readahead reservation comes off the top...
    morpheus::ssd::ObjectCache carved(cfg, 256 * 1024);
    EXPECT_EQ(carved.capacityBytes(), 768u * 1024u);
    // ...and can consume the whole budget, leaving a zero-capacity
    // cache that rejects every insert instead of double-booking DRAM.
    morpheus::ssd::ObjectCache starved(cfg, 2 * 1024 * 1024);
    EXPECT_EQ(starved.capacityBytes(), 0u);
    starved.insert(unitKey(0, 10), std::vector<std::uint8_t>(1), 0);
    EXPECT_EQ(starved.entries(), 0u);
    EXPECT_EQ(starved.rejectedTooLarge(), 1u);

    // Oversized payloads are rejected, not force-evicted through.
    morpheus::ssd::ObjectCache small(cfg, 0);
    small.insert(unitKey(0, 10),
                 std::vector<std::uint8_t>(2 * 1024 * 1024), 0);
    EXPECT_EQ(small.entries(), 0u);
    EXPECT_EQ(small.rejectedTooLarge(), 1u);
}

TEST(DeviceRuntime, ObjectCacheHitReplaysExactBytesWithoutFlash)
{
    Rig rig{cacheConfig()};
    const auto a = wk::genIntArray(51, 20000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    auto &cache = rig.sys.ssd().objectCache();

    // First stream: a miss that parses normally and populates.
    const auto t1 = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(1, rig.images.intArray,
                          co::DmaTarget{t1, false}, 0, 0, 0,
                          extent.sizeBytes)
                    .ok());
    const auto fin1 = rig.streamAll(1, extent);
    ASSERT_TRUE(fin1.ok());
    EXPECT_EQ(fin1.dw0, a.values.size());
    EXPECT_EQ(cache.insertions(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_FALSE(rig.device.takeServedFromCache(1));

    // Second stream of the same raw range: served from DRAM — the
    // flash byte counter must not move, and the delivered bytes must
    // be identical to the parsed object.
    const std::uint64_t raw_before = rig.device.rawBytesIn();
    const auto t2 = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(2, rig.images.intArray,
                          co::DmaTarget{t2, false}, 0, 0, 0,
                          extent.sizeBytes)
                    .ok());
    const auto fin2 = rig.streamAll(2, extent);
    ASSERT_TRUE(fin2.ok());
    EXPECT_EQ(fin2.dw0, a.values.size());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(rig.device.rawBytesIn(), raw_before);
    EXPECT_TRUE(rig.device.takeServedFromCache(2));
    EXPECT_FALSE(rig.device.takeServedFromCache(2));  // consumed

    const auto bin1 = rig.sys.mem().store().readVec(
        t1, static_cast<std::size_t>(a.objectBytes()));
    const auto bin2 = rig.sys.mem().store().readVec(
        t2, static_cast<std::size_t>(a.objectBytes()));
    EXPECT_EQ(bin1, bin2);
    EXPECT_EQ(sd::IntArrayObject::fromBinary(bin2), a);
    EXPECT_EQ(rig.device.liveInstances(), 0u);
}

TEST(DeviceRuntime, ObjectCacheOverlappingWriteDropsStaleBytes)
{
    Rig rig{cacheConfig()};
    const auto a = wk::genIntArray(52, 20000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    auto &cache = rig.sys.ssd().objectCache();

    const auto t1 = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(1, rig.images.intArray,
                          co::DmaTarget{t1, false}, 0, 0, 0,
                          extent.sizeBytes)
                    .ok());
    ASSERT_TRUE(rig.streamAll(1, extent).ok());
    ASSERT_EQ(cache.entries(), 1u);

    // Overwrite the extent's first block with the same text, one value
    // digit flipped (past the first line, which carries the element
    // count): a standard NVMe write overlapping the cached raw range
    // (end-exclusive) must drop the entry.
    auto block = rig.sys.ssd().peekBytes(extent.startByte, 512);
    bool past_count = false;
    for (auto &b : block) {
        if (b == '\n') {
            past_count = true;
            continue;
        }
        if (past_count && b >= '0' && b <= '9') {
            b = (b == '9') ? '1' : static_cast<std::uint8_t>(b + 1);
            break;
        }
    }
    const auto src = rig.sys.allocHost(block.size());
    rig.sys.mem().store().writeVec(src, block);
    nv::Command wr;
    wr.opcode = nv::Opcode::kWrite;
    wr.prp1 = src;
    wr.slba = extent.startByte / nv::kBlockBytes;
    wr.nlb = 0;  // one block
    ASSERT_TRUE(rig.io(wr).ok());
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.invalidations(), 1u);

    // Re-stream: a miss that re-parses the CURRENT flash bytes — the
    // delivered object must reflect the flipped digit, not the cached
    // pre-write object.
    const auto t2 = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(2, rig.images.intArray,
                          co::DmaTarget{t2, false}, 0, 0, 0,
                          extent.sizeBytes)
                    .ok());
    const auto fin = rig.streamAll(2, extent);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(cache.hits(), 0u);

    const auto text = rig.sys.ssd().peekBytes(extent.startByte,
                                              extent.sizeBytes);
    sd::TextScanner s(text.data(), text.size());
    std::vector<std::int64_t> expect;
    std::int64_t v = 0;
    ASSERT_TRUE(s.nextInt64(&v));  // skip the count line
    while (expect.size() < a.values.size() && s.nextInt64(&v))
        expect.push_back(v);
    const auto bin = rig.sys.mem().store().readVec(
        t2, static_cast<std::size_t>(a.objectBytes()));
    EXPECT_EQ(sd::IntArrayObject::fromBinary(bin).values, expect);
    EXPECT_NE(expect, a.values);  // the write really changed a value
}

TEST(DeviceRuntime, ObjectCacheCrashedInstanceNeverPopulates)
{
    Rig rig{cacheConfig()};
    const auto a = wk::genIntArray(53, 20000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    auto &cache = rig.sys.ssd().objectCache();

    const auto t1 = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(1, rig.images.intArray,
                          co::DmaTarget{t1, false}, 0, 0, 0,
                          extent.sizeBytes)
                    .ok());
    {
        // Every processed chunk crashes the app: the first MREAD
        // poisons the instance mid-stream.
        morpheus::sim::FaultPlan plan;
        plan.crashRate = 1.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        const auto cqe = rig.mread(1, extent, 0, 16 * 1024);
        EXPECT_EQ(cqe.status, nv::Status::kAppFault);
    }
    // Poisoned teardown must not insert the partial object.
    ASSERT_TRUE(rig.mdeinit(1).ok());
    EXPECT_EQ(cache.insertions(), 0u);
    EXPECT_EQ(cache.entries(), 0u);

    // A clean rerun both works and is the first insertion.
    const auto t2 = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(2, rig.images.intArray,
                          co::DmaTarget{t2, false}, 0, 0, 0,
                          extent.sizeBytes)
                    .ok());
    const auto fin = rig.streamAll(2, extent);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(fin.dw0, a.values.size());
    EXPECT_EQ(cache.insertions(), 1u);
}

TEST(DeviceRuntime, ObjectCacheAbandonedMediaFaultNeverPopulates)
{
    Rig rig{cacheConfig()};
    const auto a = wk::genIntArray(54, 20000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    auto &cache = rig.sys.ssd().objectCache();

    const auto t1 = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(1, rig.images.intArray,
                          co::DmaTarget{t1, false}, 0, 0, 0,
                          extent.sizeBytes)
                    .ok());
    // First chunk parses clean; the second dies on an uncorrectable
    // flash page and the host gives up on the stream.
    const auto first = rig.mread(1, extent, 0, 16 * 1024);
    ASSERT_TRUE(first.ok());
    {
        morpheus::sim::FaultPlan plan;
        plan.mediaRate = 1.0;
        morpheus::sim::FaultInjector fi(plan);
        morpheus::sim::ScopedFaultInjector scope(&fi);
        const auto cqe =
            rig.mread(1, extent, 16 * 1024, 16 * 1024, first.postedAt);
        EXPECT_EQ(cqe.status, nv::Status::kMediaError);
    }
    // Abandoning MDEINIT sees a short stream: no insert, ever.
    ASSERT_TRUE(rig.mdeinit(1, first.postedAt + 1).ok());
    EXPECT_EQ(cache.insertions(), 0u);
    EXPECT_EQ(cache.entries(), 0u);
}

TEST(DeviceRuntime, ObjectCacheAppletReinstallInvalidates)
{
    Rig rig{cacheConfig()};
    const auto a = wk::genIntArray(55, 10000);
    sd::TextWriter w;
    a.serialize(w);
    const auto extent = rig.sys.createFile("ints", w.bytes());
    auto &cache = rig.sys.ssd().objectCache();

    const auto t1 = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(1, rig.images.intArray,
                          co::DmaTarget{t1, false}, 0, 0, 0,
                          extent.sizeBytes)
                    .ok());
    ASSERT_TRUE(rig.streamAll(1, extent).ok());
    ASSERT_EQ(cache.entries(), 1u);

    // Re-install the same applet at a new code version: retained
    // objects may embed stale semantics and must drop.
    co::StorageAppImage v2 = rig.images.intArray;
    v2.version = 2;
    const auto t2 = rig.sys.allocHost(a.objectBytes());
    ASSERT_TRUE(rig.minit(2, v2, co::DmaTarget{t2, false}, 0, 0, 0,
                          extent.sizeBytes)
                    .ok());
    EXPECT_EQ(cache.entries(), 0u);
    // And the keyed version means the new instance misses, re-parses,
    // and re-populates under its own version.
    const auto fin = rig.streamAll(2, extent);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.insertions(), 2u);  // re-parse re-populated
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(DeviceRuntime, ObjectCacheSharesBudgetWithPipelineReadahead)
{
    // End to end: with the streaming pipeline's readahead on, the
    // controller's cache capacity is the budget minus the readahead
    // buffer — one DRAM pool, never double-booked.
    ho::SystemConfig cfg = cacheConfig();
    cfg.ssd.pipeline.enabled = true;
    cfg.ssd.cache.budgetBytes = 1024 * 1024;
    Rig rig{cfg};
    EXPECT_EQ(rig.sys.ssd().objectCache().capacityBytes(),
              1024u * 1024u - morpheus::ssd::kReadaheadBufferBytes);

    // Pipeline off: the cache keeps the whole budget.
    ho::SystemConfig flat = cacheConfig();
    flat.ssd.cache.budgetBytes = 1024 * 1024;
    Rig rig2{flat};
    EXPECT_EQ(rig2.sys.ssd().objectCache().capacityBytes(),
              1024u * 1024u);
}
