/**
 * @file
 * PCIe fabric tests: link bandwidth, BAR routing, P2P paths, and
 * functional DMA through BusTargets.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "pcie/pcie.hh"

namespace pc = morpheus::pcie;
namespace ms = morpheus::sim;

namespace {

/** Trivial BusTarget backed by a vector. */
class VecTarget : public pc::BusTarget
{
  public:
    explicit VecTarget(std::size_t n) : _mem(n, 0) {}

    void
    busWrite(pc::Addr off, const std::uint8_t *data,
             std::size_t n) override
    {
        std::copy(data, data + n, _mem.begin() + off);
    }

    void
    busRead(pc::Addr off, std::uint8_t *out,
            std::size_t n) const override
    {
        std::copy(_mem.begin() + off, _mem.begin() + off + n, out);
    }

    std::vector<std::uint8_t> _mem;
};

struct Fabric
{
    pc::PcieSwitch sw;
    pc::PortId host, ssd, gpu;
    VecTarget host_mem{1 << 20};
    VecTarget gpu_mem{1 << 20};

    Fabric()
    {
        host = sw.addPort("host", pc::LinkConfig{3, 16});
        ssd = sw.addPort("ssd", pc::LinkConfig{3, 4});
        gpu = sw.addPort("gpu", pc::LinkConfig{3, 16});
        sw.mapWindow(0, 1 << 20, host, "host-dram", &host_mem);
        sw.mapWindow(1ULL << 32, 1 << 20, gpu, "gpu-bar", &gpu_mem);
    }
};

}  // namespace

TEST(LinkConfig, BandwidthByGeneration)
{
    const pc::LinkConfig g1{1, 4}, g2{2, 4}, g3x4{3, 4}, g3x16{3, 16},
        g4{4, 4};
    EXPECT_NEAR(g3x4.bytesPerSec(), 4 * 985e6, 1e6);
    EXPECT_NEAR(g3x16.bytesPerSec(), 16 * 985e6, 1e7);
    EXPECT_GT(g4.bytesPerSec(), g3x4.bytesPerSec());
    EXPECT_GT(g2.bytesPerSec(), g1.bytesPerSec());
}

TEST(PcieLink, TransferTimeMatchesBandwidth)
{
    pc::LinkConfig cfg{3, 4};
    pc::PcieLink link("l", cfg);
    const std::uint64_t mb = 1000000;
    const ms::Tick done = link.sendToSwitch(mb, 0);
    const ms::Tick expect =
        ms::transferTicks(mb, cfg.bytesPerSec()) + cfg.latency;
    EXPECT_EQ(done, expect);
    EXPECT_EQ(link.bytesToSwitch(), mb);
}

TEST(PcieLink, DirectionsAreIndependent)
{
    pc::PcieLink link("l", pc::LinkConfig{3, 4});
    const ms::Tick up = link.sendToSwitch(1000000, 0);
    const ms::Tick down = link.sendToDevice(1000000, 0);
    // Full duplex: both start at 0.
    EXPECT_EQ(up, down);
}

TEST(PcieSwitch, RoutesByWindow)
{
    Fabric f;
    EXPECT_EQ(f.sw.routeAddr(0x1000), f.host);
    EXPECT_EQ(f.sw.routeAddr((1ULL << 32) + 5), f.gpu);
    EXPECT_TRUE(f.sw.isMapped(0));
    EXPECT_FALSE(f.sw.isMapped(1ULL << 40));
}

TEST(PcieSwitchDeath, UnmappedAddressIsFatal)
{
    Fabric f;
    EXPECT_DEATH(f.sw.routeAddr(1ULL << 40), "no BAR window");
}

TEST(PcieSwitchDeath, OverlappingWindowsPanic)
{
    Fabric f;
    EXPECT_DEATH(
        f.sw.mapWindow(100, 64, f.gpu, "overlap", &f.gpu_mem),
        "overlap");
}

TEST(PcieSwitch, UnmapThenRemapWorks)
{
    Fabric f;
    f.sw.unmapWindow(1ULL << 32);
    EXPECT_FALSE(f.sw.isMapped(1ULL << 32));
    f.sw.mapWindow(1ULL << 32, 1 << 20, f.gpu, "gpu-bar2", &f.gpu_mem);
    EXPECT_TRUE(f.sw.isMapped(1ULL << 32));
}

TEST(PcieSwitch, DmaWriteDeliversBytes)
{
    Fabric f;
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    f.sw.dmaWriteData(f.ssd, 0x100, payload.data(), payload.size(), 0);
    EXPECT_EQ(f.host_mem._mem[0x100], 1);
    EXPECT_EQ(f.host_mem._mem[0x104], 5);
    EXPECT_EQ(f.sw.fabricBytes(), payload.size());
}

TEST(PcieSwitch, P2pBypassesHostLink)
{
    Fabric f;
    const std::vector<std::uint8_t> payload(4096, 0xAB);
    f.sw.dmaWriteData(f.ssd, (1ULL << 32) + 64, payload.data(),
                      payload.size(), 0);
    // SSD -> GPU: host link untouched.
    EXPECT_EQ(f.sw.link(f.host).totalBytes(), 0u);
    EXPECT_EQ(f.sw.link(f.ssd).bytesToSwitch(), payload.size());
    EXPECT_EQ(f.sw.link(f.gpu).bytesToDevice(), payload.size());
    EXPECT_EQ(f.sw.p2pBytes(), payload.size());
    EXPECT_EQ(f.gpu_mem._mem[64], 0xAB);
}

TEST(PcieSwitch, HostBoundDmaIsNotP2p)
{
    Fabric f;
    const std::vector<std::uint8_t> payload(128, 1);
    f.sw.dmaWriteData(f.ssd, 0, payload.data(), payload.size(), 0);
    EXPECT_EQ(f.sw.p2pBytes(), 0u);
}

TEST(PcieSwitch, SlowerLinkBoundsTransferTime)
{
    Fabric f;
    const std::uint64_t bytes = 10000000;  // 10 MB
    const ms::Tick done = f.sw.dmaWrite(f.ssd, 0x0, bytes, 0);
    // Bounded by the x4 SSD link, not the x16 host link.
    const pc::LinkConfig x4{3, 4};
    const ms::Tick x4_time = ms::transferTicks(bytes, x4.bytesPerSec());
    EXPECT_GE(done, x4_time);
}

TEST(PcieSwitch, DmaReadFetchesBytes)
{
    Fabric f;
    f.host_mem._mem[0x200] = 0x5A;
    std::uint8_t out[4] = {};
    f.sw.dmaReadData(f.ssd, 0x200, out, 4, 0);
    EXPECT_EQ(out[0], 0x5A);
}

TEST(PcieSwitch, ZeroByteDmaIsFree)
{
    Fabric f;
    EXPECT_EQ(f.sw.dmaWrite(f.ssd, 0, 0, 123), 123u);
    EXPECT_EQ(f.sw.fabricBytes(), 0u);
}

TEST(PcieLink, SameDirectionTransfersSerialize)
{
    pc::LinkConfig cfg{3, 4};
    pc::PcieLink link("l", cfg);
    const std::uint64_t mb = 1000000;
    const ms::Tick first = link.sendToSwitch(mb, 0);
    const ms::Tick second = link.sendToSwitch(mb, 0);
    // Two payloads cannot share the wire: the second finishes one
    // transfer-time later.
    EXPECT_NEAR(static_cast<double>(second),
                static_cast<double>(first) +
                    static_cast<double>(
                        ms::transferTicks(mb, cfg.bytesPerSec())),
                static_cast<double>(cfg.latency));
}

TEST(PcieSwitch, ConcurrentDmasToDistinctPortsOverlap)
{
    Fabric f;
    const std::uint64_t mb = 4000000;
    // SSD -> host and host -> GPU use disjoint link directions.
    const ms::Tick a = f.sw.dmaWrite(f.ssd, 0x0, mb, 0);
    const ms::Tick b = f.sw.dmaWrite(f.host, (1ULL << 32), mb, 0);
    // b is not queued behind a (different links).
    EXPECT_LT(b, a + ms::transferTicks(mb, 1e9));
}

namespace {

/** A fleet-shaped fabric: host + four SSD endpoints, each SSD with a
 *  BAR window of its own. */
struct FleetFabric
{
    pc::PcieSwitch sw;
    pc::PortId host;
    std::vector<pc::PortId> ssds;
    VecTarget host_mem{1 << 20};
    std::vector<std::unique_ptr<VecTarget>> cmbs;

    static constexpr pc::Addr kBar = 1ULL << 40;
    static constexpr std::uint64_t kBarStride = 1 << 20;

    FleetFabric()
    {
        host = sw.addPort("host", pc::LinkConfig{3, 16});
        for (unsigned d = 0; d < 4; ++d) {
            ssds.push_back(sw.addPort("ssd" + std::to_string(d),
                                      pc::LinkConfig{3, 4}));
            cmbs.push_back(std::make_unique<VecTarget>(1 << 20));
        }
        sw.mapWindow(0, 1 << 20, host, "host-dram", &host_mem);
        for (unsigned d = 0; d < 4; ++d) {
            sw.mapWindow(kBar + d * kBarStride, kBarStride, ssds[d],
                         "ssd" + std::to_string(d) + "-cmb",
                         cmbs[d].get());
        }
    }
};

}  // namespace

TEST(PcieFleet, BarWindowsRouteToDistinctDevices)
{
    FleetFabric f;
    for (unsigned d = 0; d < 4; ++d) {
        EXPECT_EQ(f.sw.routeAddr(FleetFabric::kBar +
                                 d * FleetFabric::kBarStride + 0x40),
                  f.ssds[d]);
    }
    EXPECT_EQ(f.sw.routeAddr(0x100), f.host);
}

TEST(PcieFleet, ConcurrentUplinksOverlapOnWideHostLink)
{
    FleetFabric f;
    const std::uint64_t mb = 4000000;
    const ms::Tick alone = f.sw.dmaWrite(f.ssds[0], 0x0, mb, 0);

    FleetFabric g;
    const ms::Tick a = g.sw.dmaWrite(g.ssds[0], 0x0, mb, 0);
    const ms::Tick b = g.sw.dmaWrite(g.ssds[1], 0x1000, mb, 0);
    // Each SSD pushed its payload up its own x4 link; the x16 host
    // link absorbs both streams, so neither transfer is delayed by
    // the other — the overlap fleet scaling relies on.
    EXPECT_EQ(g.sw.link(g.ssds[0]).bytesToSwitch(), mb);
    EXPECT_EQ(g.sw.link(g.ssds[1]).bytesToSwitch(), mb);
    EXPECT_EQ(a, alone);
    EXPECT_EQ(b, alone);
    EXPECT_EQ(g.sw.link(g.host).bytesToDevice(), 2 * mb);
}

TEST(PcieFleet, NarrowHostLinkSerializesConcurrentUplinks)
{
    // Same two concurrent SSD -> host streams, but the host port is
    // only x4: aggregate demand exceeds the shared hop, so the second
    // transfer finishes later than it would alone.
    const std::uint64_t mb = 4000000;
    VecTarget dram{1 << 20};
    const auto build = [&dram](pc::PcieSwitch &sw,
                               std::vector<pc::PortId> &ssds) {
        const pc::PortId host =
            sw.addPort("host", pc::LinkConfig{3, 4});
        for (unsigned d = 0; d < 2; ++d)
            ssds.push_back(sw.addPort("ssd" + std::to_string(d),
                                      pc::LinkConfig{3, 4}));
        sw.mapWindow(0, 1 << 20, host, "host-dram", &dram);
        return host;
    };

    pc::PcieSwitch solo;
    std::vector<pc::PortId> solo_ssds;
    build(solo, solo_ssds);
    const ms::Tick alone = solo.dmaWrite(solo_ssds[0], 0x0, mb, 0);

    pc::PcieSwitch sw;
    std::vector<pc::PortId> ssds;
    const pc::PortId host = build(sw, ssds);
    const ms::Tick a = sw.dmaWrite(ssds[0], 0x0, mb, 0);
    const ms::Tick b = sw.dmaWrite(ssds[1], 0x1000, mb, 0);
    EXPECT_EQ(a, alone);
    EXPECT_GT(b, alone);
    EXPECT_EQ(sw.link(host).bytesToDevice(), 2 * mb);
}

TEST(PcieFleet, SsdToSsdDmaIsP2pAndSkipsHostLink)
{
    FleetFabric f;
    const std::vector<std::uint8_t> payload(8192, 0xC3);
    f.sw.dmaWriteData(f.ssds[2],
                      FleetFabric::kBar + 3 * FleetFabric::kBarStride,
                      payload.data(), payload.size(), 0);
    EXPECT_EQ(f.sw.link(f.host).totalBytes(), 0u);
    EXPECT_EQ(f.sw.p2pBytes(), payload.size());
    EXPECT_EQ(f.cmbs[3]->_mem[0], 0xC3);
    EXPECT_EQ(f.cmbs[2]->_mem[0], 0);
}

TEST(PcieFleet, FanOutContentionAccountsAllPorts)
{
    FleetFabric f;
    const std::uint64_t chunk = 1000000;
    // Host scatters one chunk to every SSD BAR: the host uplink
    // serializes the four sends; each SSD downlink sees one chunk.
    ms::Tick last = 0;
    for (unsigned d = 0; d < 4; ++d) {
        last = std::max(
            last, f.sw.dmaWrite(f.host,
                                FleetFabric::kBar +
                                    d * FleetFabric::kBarStride,
                                chunk, 0));
    }
    EXPECT_EQ(f.sw.link(f.host).bytesToSwitch(), 4 * chunk);
    for (unsigned d = 0; d < 4; ++d)
        EXPECT_EQ(f.sw.link(f.ssds[d]).bytesToDevice(), chunk);
    // The four serialized host-uplink sends bound the finish time.
    const pc::LinkConfig x16{3, 16};
    EXPECT_GE(last, 4 * ms::transferTicks(chunk, x16.bytesPerSec()));
    EXPECT_EQ(f.sw.fabricBytes(), 4 * chunk);
}
