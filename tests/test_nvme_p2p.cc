/**
 * @file
 * NVMe-P2P module tests: BAR mapping lifecycle and P2P routing.
 */

#include <gtest/gtest.h>

#include "core/device_runtime.hh"
#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "serde/writer.hh"
#include "workloads/generators.hh"
#include "serde/scanner.hh"

namespace co = morpheus::core;
namespace ho = morpheus::host;

TEST(NvmeP2p, MapIsIdempotentAndRoutesToGpu)
{
    ho::HostSystem sys;
    co::NvmeP2p p2p(sys);
    EXPECT_FALSE(p2p.mapped());
    const auto base = p2p.mapGpuMemory();
    EXPECT_TRUE(p2p.mapped());
    EXPECT_EQ(p2p.mapGpuMemory(), base);
    EXPECT_EQ(sys.fabric().routeAddr(base), sys.gpuPort());
    EXPECT_EQ(sys.fabric().routeAddr(base + 12345), sys.gpuPort());
}

TEST(NvmeP2p, BusAddrForOffsetsIntoTheWindow)
{
    ho::HostSystem sys;
    co::NvmeP2p p2p(sys);
    const auto a = p2p.busAddrFor(0);
    const auto b = p2p.busAddrFor(4096);
    EXPECT_EQ(b - a, 4096u);
}

TEST(NvmeP2p, UnmapRemovesTheWindow)
{
    ho::HostSystem sys;
    co::NvmeP2p p2p(sys);
    const auto base = p2p.mapGpuMemory();
    p2p.unmapGpuMemory();
    EXPECT_FALSE(p2p.mapped());
    EXPECT_FALSE(sys.fabric().isMapped(base));
    // Re-mapping works after unmap.
    EXPECT_EQ(p2p.mapGpuMemory(), base);
}

TEST(NvmeP2p, DmaThroughWindowLandsInGpuMemoryWithoutHostTraffic)
{
    ho::HostSystem sys;
    co::NvmeP2p p2p(sys);
    const auto base = p2p.mapGpuMemory();

    const auto host_before = sys.fabric().link(sys.hostPort()).totalBytes();
    const std::vector<std::uint8_t> payload(8192, 0x77);
    sys.fabric().dmaWriteData(sys.ssdPort(), base + 100,
                              payload.data(), payload.size(), 0);
    EXPECT_EQ(sys.fabric().link(sys.hostPort()).totalBytes(),
              host_before);
    EXPECT_EQ(sys.gpu().mem().readVec(100, 4),
              std::vector<std::uint8_t>(4, 0x77));
    EXPECT_EQ(p2p.p2pBytes(), payload.size());
}

TEST(NvmeP2p, DestructorCleansUpMapping)
{
    ho::HostSystem sys;
    {
        co::NvmeP2p p2p(sys);
        p2p.mapGpuMemory();
    }
    EXPECT_FALSE(sys.fabric().isMapped(sys.config().gpuBarBase));
}

TEST(NvmeP2p, GpuToSsdSerializationViaMwrite)
{
    // The reverse P2P direction: MWRITE with its data pointer inside
    // the GPU BAR window — the SSD pulls binary objects straight out
    // of GPU memory and serializes them to flash, no host bounce.
    ho::HostSystem sys;
    morpheus::core::MorpheusDeviceRuntime device(sys.ssd());
    co::NvmeP2p p2p(sys);
    const auto images = morpheus::core::StandardImages::make();

    // Binary i64 values living in GPU device memory.
    std::vector<std::int64_t> values;
    for (std::int64_t i = 0; i < 500; ++i)
        values.push_back(i * 37 - 999);
    std::vector<std::uint8_t> bin;
    for (const auto v : values) {
        const auto *pv = reinterpret_cast<const std::uint8_t *>(&v);
        bin.insert(bin.end(), pv, pv + 8);
    }
    const std::uint64_t dev = sys.gpu().alloc(bin.size());
    sys.gpu().mem().writeVec(dev, bin);
    const auto gpu_addr = p2p.busAddrFor(dev);

    morpheus::core::InstanceSetup setup;
    setup.image = &images.int64Serializer;
    setup.target = morpheus::core::DmaTarget{gpu_addr, true};
    device.stageInstance(1, setup);

    morpheus::nvme::Command minit;
    minit.opcode = morpheus::nvme::Opcode::kMInit;
    minit.instanceId = 1;
    minit.prp1 = sys.allocHost(images.int64Serializer.textBytes);
    minit.cdw13 = images.int64Serializer.textBytes;
    ASSERT_TRUE(sys.nvmeDriver().io(sys.ioQueue(), minit, 0).ok());

    const std::uint64_t dst_byte = 128ULL << 20;
    morpheus::nvme::Command wr;
    wr.opcode = morpheus::nvme::Opcode::kMWrite;
    wr.instanceId = 1;
    wr.prp1 = gpu_addr;  // P2P: source is GPU device memory
    wr.slba = dst_byte / morpheus::nvme::kBlockBytes;
    wr.nlb = static_cast<std::uint16_t>(
        bin.size() / morpheus::nvme::kBlockBytes);
    wr.cdw13 = static_cast<std::uint32_t>(bin.size());
    const auto host_bytes_before =
        sys.fabric().link(sys.hostPort()).totalBytes();
    ASSERT_TRUE(sys.nvmeDriver().io(sys.ioQueue(), wr, 0).ok());

    // The payload never crossed the host link (only tiny SQE/CQE
    // ring traffic did).
    EXPECT_LT(sys.fabric().link(sys.hostPort()).totalBytes() -
                  host_bytes_before,
              512u);
    EXPECT_GE(sys.fabric().p2pBytes(), bin.size());

    // The flash now holds the text.
    const auto text =
        sys.ssd().peekBytes(dst_byte, values.size() * 12 + 16);
    morpheus::serde::TextScanner s(text.data(), text.size());
    std::vector<std::int64_t> back;
    std::int64_t v = 0;
    while (back.size() < values.size() && s.nextInt64(&v))
        back.push_back(v);
    EXPECT_EQ(back, values);
}
