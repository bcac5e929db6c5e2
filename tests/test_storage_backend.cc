/**
 * @file
 * Storage backend tests (the Fig 3 device comparison substrate).
 */

#include <gtest/gtest.h>

#include "host/host_system.hh"

namespace ho = morpheus::host;
namespace ms = morpheus::sim;

namespace {

std::vector<std::uint8_t>
pattern(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(i % 251);
    return v;
}

}  // namespace

TEST(NvmeBackend, IngestThenReadDeliversBytesToHostMemory)
{
    ho::HostSystem sys;
    auto &backend = sys.ssdBackend();
    const auto data = pattern(300000);  // several MDTS chunks
    const ms::Tick ready = backend.ingest(1 << 20, data);
    EXPECT_GT(ready, 0u);

    const morpheus::pcie::Addr dst = sys.allocHost(data.size());
    const ho::IoResult res =
        backend.read(1 << 20, data.size(), dst, ready);
    EXPECT_TRUE(res.ok());
    EXPECT_GT(res.done, ready);
    EXPECT_EQ(sys.mem().store().readVec(dst, data.size()), data);
}

TEST(HddBackend, SequentialReadsAvoidSeeks)
{
    ho::HostSystem sys;
    ho::HddBackend hdd(sys.mem());
    hdd.ingest(0, pattern(1 << 20));

    const morpheus::pcie::Addr dst = sys.allocHost(1 << 20);
    const ms::Tick first = hdd.read(0, 65536, dst, 0).done;
    // Sequential continuation: no seek, just transfer time.
    const ms::Tick second = hdd.read(65536, 65536, dst, first).done;
    const ms::Tick seq_cost = second - first;
    EXPECT_LT(seq_cost, hdd.seekTime);

    // Random jump: pays a seek.
    const ms::Tick third = hdd.read(0, 65536, dst, second).done;
    EXPECT_GE(third - second, hdd.seekTime);
}

TEST(HddBackend, ThroughputMatchesConfiguredRate)
{
    ho::HostSystem sys;
    ho::HddBackend hdd(sys.mem());
    const std::size_t mb = 1 << 20;
    hdd.ingest(0, pattern(mb));
    const morpheus::pcie::Addr dst = sys.allocHost(mb);
    const ms::Tick t0 = hdd.read(0, mb, dst, 0).done;
    // ~1 MiB at 158 MB/s: about 6.6 ms plus the initial seek.
    const double secs = ms::ticksToSeconds(t0);
    EXPECT_GT(secs, 0.006);
    EXPECT_LT(secs, 0.020);
}

TEST(HddBackend, DeliversCorrectData)
{
    ho::HostSystem sys;
    ho::HddBackend hdd(sys.mem());
    const auto data = pattern(100000);
    hdd.ingest(4096, data);
    const morpheus::pcie::Addr dst = sys.allocHost(data.size());
    hdd.read(4096, data.size(), dst, 0);
    EXPECT_EQ(sys.mem().store().readVec(dst, data.size()), data);
}

TEST(RamDriveBackend, IsFastAndChargesMemoryBus)
{
    ho::HostSystem sys;
    ho::RamDriveBackend ram(sys.mem());
    const std::size_t mb = 1 << 20;
    ram.ingest(0, pattern(mb));
    const auto bus_before = sys.mem().busBytesTotal();
    const morpheus::pcie::Addr dst = sys.allocHost(mb);
    const ms::Tick done = ram.read(0, mb, dst, 0).done;
    // 1 MiB at DDR3 speed: well under a millisecond.
    EXPECT_LT(ms::ticksToSeconds(done), 0.001);
    // The copy crossed the memory bus (read + write + landing).
    EXPECT_GE(sys.mem().busBytesTotal() - bus_before, 2 * mb);
    EXPECT_EQ(sys.mem().store().readVec(dst, mb), pattern(mb));
}

TEST(Backends, RelativeSpeedOrdering)
{
    // RAM drive < NVMe < HDD in time for a 1 MiB sequential read.
    ho::HostSystem sys;
    const std::size_t mb = 1 << 20;
    const auto data = pattern(mb);

    ho::RamDriveBackend ram(sys.mem());
    ram.ingest(0, data);
    ho::HddBackend hdd(sys.mem());
    hdd.ingest(0, data);
    auto &nvme = sys.ssdBackend();
    const ms::Tick ingest_done = nvme.ingest(0, data);

    const morpheus::pcie::Addr dst = sys.allocHost(mb);
    const ms::Tick t_ram = ram.read(0, mb, dst, 0).done;
    const ms::Tick t_hdd = hdd.read(0, mb, dst, 0).done;
    const ms::Tick t_nvme =
        nvme.read(0, mb, dst, ingest_done).done - ingest_done;
    EXPECT_LT(t_ram, t_nvme);
    EXPECT_LT(t_nvme, t_hdd);
}
