/**
 * @file
 * SSD controller tests: NVMe read/write firmware paths end to end
 * through flash + FTL + DMA, embedded core model, and the Morpheus
 * engine hook.
 */

#include <gtest/gtest.h>

#include <vector>

#include "nvme/driver.hh"
#include "ssd/ssd_controller.hh"

namespace nv = morpheus::nvme;
namespace pc = morpheus::pcie;
namespace ms = morpheus::sim;
namespace sd = morpheus::ssd;

namespace {

sd::SsdConfig
smallSsd()
{
    sd::SsdConfig cfg;
    cfg.flash.channels = 2;
    cfg.flash.diesPerChannel = 2;
    cfg.flash.planesPerDie = 1;
    cfg.flash.blocksPerPlane = 32;
    cfg.flash.pagesPerBlock = 16;
    cfg.flash.pageBytes = 4096;
    return cfg;
}

/** Host-memory stand-in. */
class VecTarget : public pc::BusTarget
{
  public:
    explicit VecTarget(std::size_t n) : mem(n, 0) {}

    void
    busWrite(pc::Addr off, const std::uint8_t *data,
             std::size_t n) override
    {
        std::copy(data, data + n, mem.begin() + off);
    }

    void
    busRead(pc::Addr off, std::uint8_t *out,
            std::size_t n) const override
    {
        std::copy(mem.begin() + off, mem.begin() + off + n, out);
    }

    std::vector<std::uint8_t> mem;
};

struct Rig
{
    pc::PcieSwitch sw;
    pc::PortId host, ssd_port;
    VecTarget host_mem{4 << 20};
    sd::SsdController ssd;
    nv::NvmeDriver driver;
    std::uint16_t qid;

    explicit Rig(const sd::SsdConfig &cfg = smallSsd())
        : host(sw.addPort("host", pc::LinkConfig{3, 16})),
          ssd_port(sw.addPort("ssd", pc::LinkConfig{3, 4})),
          ssd(sw, ssd_port, cfg), driver(ssd.nvme())
    {
        sw.mapWindow(0, 4 << 20, host, "host-dram", &host_mem);
        qid = driver.openQueue(64, 0x1000, 0x2000);
    }
};

std::vector<std::uint8_t>
pattern(std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(i * 7 + 3);
    return v;
}

}  // namespace

TEST(SsdController, WriteThenReadRoundTripsThroughFlash)
{
    Rig rig;
    const auto data = pattern(8192);

    // Stage write payload in host memory at 0x10000.
    std::copy(data.begin(), data.end(),
              rig.host_mem.mem.begin() + 0x10000);
    nv::Command wr;
    wr.opcode = nv::Opcode::kWrite;
    wr.prp1 = 0x10000;
    wr.slba = 8;
    wr.nlb = 15;  // 16 blocks = 8 KiB
    const auto wr_cqe = rig.driver.io(rig.qid, wr, 0);
    ASSERT_TRUE(wr_cqe.ok());

    nv::Command rd;
    rd.opcode = nv::Opcode::kRead;
    rd.prp1 = 0x40000;
    rd.slba = 8;
    rd.nlb = 15;
    const auto rd_cqe = rig.driver.io(rig.qid, rd, wr_cqe.postedAt);
    ASSERT_TRUE(rd_cqe.ok());
    EXPECT_GT(rd_cqe.postedAt, wr_cqe.postedAt);

    for (std::size_t i = 0; i < data.size(); ++i)
        ASSERT_EQ(rig.host_mem.mem[0x40000 + i], data[i]) << i;
}

TEST(SsdController, SubPageWritePreservesNeighbours)
{
    Rig rig;
    const auto a = pattern(512);
    std::copy(a.begin(), a.end(), rig.host_mem.mem.begin() + 0x10000);

    nv::Command wr;
    wr.opcode = nv::Opcode::kWrite;
    wr.prp1 = 0x10000;
    wr.slba = 0;
    wr.nlb = 0;  // one block
    ASSERT_TRUE(rig.driver.io(rig.qid, wr, 0).ok());

    // Write the adjacent block; the first must survive (RMW).
    std::vector<std::uint8_t> b(512, 0xEE);
    std::copy(b.begin(), b.end(), rig.host_mem.mem.begin() + 0x20000);
    nv::Command wr2;
    wr2.opcode = nv::Opcode::kWrite;
    wr2.prp1 = 0x20000;
    wr2.slba = 1;
    wr2.nlb = 0;
    ASSERT_TRUE(rig.driver.io(rig.qid, wr2, 0).ok());

    const auto bytes = rig.ssd.peekBytes(0, 1024);
    for (std::size_t i = 0; i < 512; ++i)
        ASSERT_EQ(bytes[i], a[i]);
    for (std::size_t i = 512; i < 1024; ++i)
        ASSERT_EQ(bytes[i], 0xEE);
}

TEST(SsdController, ReadBeyondCapacityFails)
{
    Rig rig;
    nv::Command rd;
    rd.opcode = nv::Opcode::kRead;
    rd.prp1 = 0x1000;
    rd.slba = rig.ssd.capacityBlocks() + 100;
    rd.nlb = 0;
    const auto cqe = rig.driver.io(rig.qid, rd, 0);
    EXPECT_EQ(cqe.status, nv::Status::kLbaOutOfRange);
}

TEST(SsdController, MorpheusCommandWithoutEngineIsRejected)
{
    Rig rig;
    nv::Command mi;
    mi.opcode = nv::Opcode::kMInit;
    const auto cqe = rig.driver.io(rig.qid, mi, 0);
    EXPECT_EQ(cqe.status, nv::Status::kInvalidOpcode);
}

TEST(SsdController, MorpheusEngineHookReceivesCommands)
{
    struct Probe : sd::MorpheusEngine
    {
        int calls = 0;
        nv::CommandResult
        execute(const nv::Command &, ms::Tick start) override
        {
            ++calls;
            return {start + 5, nv::Status::kSuccess, 123};
        }
    };
    Rig rig;
    Probe probe;
    rig.ssd.setMorpheusEngine(&probe);
    nv::Command mi;
    mi.opcode = nv::Opcode::kMInit;
    const auto cqe = rig.driver.io(rig.qid, mi, 0);
    EXPECT_TRUE(cqe.ok());
    EXPECT_EQ(cqe.dw0, 123u);
    EXPECT_EQ(probe.calls, 1);
}

TEST(SsdController, InstanceToCoreMappingIsStatic)
{
    Rig rig;
    const unsigned n = rig.ssd.numCores();
    ASSERT_GT(n, 1u);
    EXPECT_EQ(&rig.ssd.coreFor(0), &rig.ssd.coreFor(0));
    EXPECT_EQ(&rig.ssd.coreFor(1), &rig.ssd.coreFor(1 + n));
    EXPECT_NE(&rig.ssd.coreFor(0), &rig.ssd.coreFor(1));
}

TEST(EmbeddedCore, ParseCostModelChargesSoftFloat)
{
    sd::EmbeddedCoreConfig cfg;
    cfg.hasFpu = false;
    morpheus::serde::ParseCost ints;
    ints.bytes = 1000;
    ints.intValues = 100;
    morpheus::serde::ParseCost floats = ints;
    floats.floatValues = 100;
    floats.floatOps = 1500;
    const double c_int = cfg.parseCycles(ints);
    const double c_float = cfg.parseCycles(floats);
    EXPECT_GT(c_float, 3.0 * c_int);

    cfg.hasFpu = true;
    EXPECT_LT(cfg.parseCycles(floats), c_float);
}

TEST(EmbeddedCore, IsramLoadRespectsCapacity)
{
    sd::EmbeddedCoreConfig cfg;
    cfg.isramBytes = 10000;
    sd::EmbeddedCore core(0, cfg);
    EXPECT_TRUE(core.loadImage(6000));
    EXPECT_FALSE(core.loadImage(6000));  // would exceed
    core.unloadImage(6000);
    EXPECT_TRUE(core.loadImage(9999));
}

TEST(EmbeddedCore, ExecutionOccupiesTimeline)
{
    sd::EmbeddedCoreConfig cfg;  // 500 MHz
    sd::EmbeddedCore core(0, cfg);
    const ms::Tick done = core.execute(500e6, 0);  // one second of work
    EXPECT_EQ(done, ms::kPsPerSec);
    EXPECT_EQ(core.timeline().busyTicks(), ms::kPsPerSec);
}
