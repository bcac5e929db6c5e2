/**
 * @file
 * FTL tests: mapping correctness, overwrite semantics, GC behaviour
 * under pressure, and the read-after-write property under random
 * workloads (parameterized).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "ftl/ftl.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"

namespace fl = morpheus::flash;
namespace ft = morpheus::ftl;
namespace ms = morpheus::sim;

namespace {

fl::FlashConfig
tinyFlash()
{
    fl::FlashConfig cfg;
    cfg.channels = 2;
    cfg.diesPerChannel = 1;
    cfg.planesPerDie = 1;
    cfg.blocksPerPlane = 16;
    cfg.pagesPerBlock = 8;
    cfg.pageBytes = 256;
    return cfg;
}

std::vector<std::uint8_t>
fill(std::uint8_t seed, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed ^ (i & 0xFF));
    return v;
}

struct FtlFixture
{
    fl::FlashArray flash;
    ft::Ftl ftl;

    explicit FtlFixture(const ft::FtlConfig &cfg = {})
        : flash(tinyFlash()), ftl(flash, cfg)
    {}
};

}  // namespace

TEST(Ftl, LogicalCapacityReflectsOverProvisioning)
{
    FtlFixture f;
    const auto phys = tinyFlash().pages();
    EXPECT_LT(f.ftl.logicalPages(), phys);
    EXPECT_GT(f.ftl.logicalPages(), phys / 2);
}

TEST(Ftl, UnmappedReadsAsZeros)
{
    FtlFixture f;
    EXPECT_FALSE(f.ftl.isMapped(3));
    const auto page = f.ftl.peekPage(3);
    EXPECT_EQ(page.size(), 256u);
    for (const auto b : page)
        EXPECT_EQ(b, 0);
}

TEST(Ftl, WriteThenReadBack)
{
    FtlFixture f;
    const auto data = fill(0xA5, 256);
    const ms::Tick written = f.ftl.writePages(5, data, 0);
    ASSERT_TRUE(f.ftl.isMapped(5));

    const ms::Tick read = f.ftl.readPages(5, 1, written);
    const auto cfg = tinyFlash();
    EXPECT_GE(read, written + cfg.readLatency +
                        ms::transferTicks(cfg.pageBytes,
                                          cfg.channelBytesPerSec));
    EXPECT_EQ(f.ftl.peekPage(5), data);
}

TEST(Ftl, OverwriteReplacesData)
{
    FtlFixture f;
    f.ftl.writePages(2, fill(1, 256), 0);
    f.ftl.writePages(2, fill(2, 256), 0);
    EXPECT_EQ(f.ftl.peekPage(2), fill(2, 256));
}

TEST(Ftl, MultiPageWriteSpansPages)
{
    FtlFixture f;
    const auto data = fill(7, 256 * 3 + 100);  // 4 pages, padded
    f.ftl.writePages(10, data, 0);
    for (std::uint64_t lpn = 10; lpn < 14; ++lpn)
        EXPECT_TRUE(f.ftl.isMapped(lpn));
    // Concatenated read-back equals the data (plus zero padding).
    std::vector<std::uint8_t> all;
    for (std::uint64_t lpn = 10; lpn < 14; ++lpn) {
        const auto p = f.ftl.peekPage(lpn);
        all.insert(all.end(), p.begin(), p.end());
    }
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(all[i], data[i]);
    for (std::size_t i = data.size(); i < all.size(); ++i)
        EXPECT_EQ(all[i], 0);
}

TEST(Ftl, WritesStripeAcrossPlanes)
{
    FtlFixture f;
    // Two single-page writes should land on different planes
    // (different channels in this geometry), so their program phases
    // overlap.
    const ms::Tick d0 = f.ftl.writePages(0, fill(1, 256), 0);
    (void)d0;
    EXPECT_GT(f.flash.dieTimeline(0, 0).busyTicks() +
                  f.flash.dieTimeline(1, 0).busyTicks(),
              0u);
    f.ftl.writePages(1, fill(2, 256), 0);
    EXPECT_GT(f.flash.dieTimeline(0, 0).busyTicks(), 0u);
    EXPECT_GT(f.flash.dieTimeline(1, 0).busyTicks(), 0u);
}

TEST(Ftl, GarbageCollectionReclaimsSpace)
{
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 4;
    cfg.gcHighWatermark = 6;
    FtlFixture f(cfg);

    // Hammer a small logical range so most physical pages become
    // invalid and GC has cheap victims.
    ms::Tick t = 0;
    for (int round = 0; round < 40; ++round) {
        for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
            t = f.ftl.writePages(lpn, fill(
                static_cast<std::uint8_t>(round), 256), t);
    }
    EXPECT_GT(f.ftl.gcRuns(), 0u);
    EXPECT_GT(f.flash.erasesIssued().value(), 0u);
    // Data integrity survives GC.
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        EXPECT_EQ(f.ftl.peekPage(lpn), fill(39, 256));
    EXPECT_GE(f.ftl.freeBlocks(), cfg.gcLowWatermark);
}

/** Property: random writes + overwrites always read back correctly. */
class FtlRandomProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FtlRandomProperty, ReadAfterWriteUnderChurn)
{
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 3;
    cfg.gcHighWatermark = 5;
    FtlFixture f(cfg);
    ms::Rng rng(GetParam());

    std::map<std::uint64_t, std::uint8_t> shadow;
    const std::uint64_t logical_span = 24;
    ms::Tick t = 0;
    for (int op = 0; op < 300; ++op) {
        const std::uint64_t lpn = rng.nextBelow(logical_span);
        const auto tag = static_cast<std::uint8_t>(rng.nextBelow(256));
        t = f.ftl.writePages(lpn, fill(tag, 256), t);
        shadow[lpn] = tag;
        if (op % 7 == 0) {
            // Spot check a random previously written page.
            const auto it = shadow.begin();
            EXPECT_EQ(f.ftl.peekPage(it->first),
                      fill(it->second, 256));
        }
    }
    for (const auto &[lpn, tag] : shadow)
        EXPECT_EQ(f.ftl.peekPage(lpn), fill(tag, 256));
    // Every shadowed page is still mapped, so reading it charges
    // flash time past t.
    for (const auto &[lpn, tag] : shadow)
        EXPECT_GT(f.ftl.readPages(lpn, 1, t), t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlRandomProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47));

TEST(Ftl, ParallelReadsAcrossDiesOverlap)
{
    FtlFixture f;
    ms::Tick t = 0;
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn)
        t = f.ftl.writePages(lpn, fill(9, 256), t);
    // A 4-page read touches pages striped over 2 channels; the total
    // time is below 4 sequential die reads.
    const ms::Tick start = t;
    const ms::Tick done = f.ftl.readPages(0, 4, start);
    const auto cfg = tinyFlash();
    EXPECT_LT(done - start, 4 * (cfg.readLatency +
                                 ms::transferTicks(
                                     cfg.pageBytes,
                                     cfg.channelBytesPerSec)));
}

TEST(Ftl, ReadPagesReportsOneTickPerPageInLpnOrder)
{
    // tinyFlash has two planes, one per channel; writes alternate
    // between them, so LPNs 0 and 3 share channel 0 and LPN 1 sits on
    // channel 1. LPN 2 stays unmapped.
    FtlFixture f;
    const auto cfg = tinyFlash();
    const ms::Tick read = cfg.readLatency;
    const ms::Tick xfer =
        ms::transferTicks(cfg.pageBytes, cfg.channelBytesPerSec);
    ms::Tick t = 0;
    for (const std::uint64_t lpn : {0, 1, 3})
        t = f.ftl.writePages(lpn, fill(static_cast<std::uint8_t>(lpn), 256),
                             t);
    const ms::Tick earliest = t;
    // Keep channel 1's die programming past earliest, so LPN 1 lands
    // after LPN 3 although it comes first in LPN order.
    f.ftl.writePages(5, fill(5, 256), earliest);

    std::vector<ms::Tick> ticks;
    bool media = false;
    const ms::Tick done =
        f.ftl.readPages(0, 4, earliest, &media, &ticks);
    ASSERT_EQ(ticks.size(), 4u);
    EXPECT_EQ(ticks[0], earliest + read + xfer);
    EXPECT_GE(ticks[1], earliest + cfg.programLatency + read + xfer);
    EXPECT_EQ(ticks[2], earliest);  // unmapped: no flash access
    EXPECT_GT(ticks[3], ticks[0]);  // queued behind LPN 0 on its die
    EXPECT_GT(ticks[1], ticks[3]);
    EXPECT_EQ(done, *std::max_element(ticks.begin(), ticks.end()));
    EXPECT_FALSE(media);

    // An unmapped-only range completes at earliest.
    EXPECT_EQ(f.ftl.readPages(2, 1, earliest, nullptr, &ticks), earliest);
    EXPECT_EQ(ticks, std::vector<ms::Tick>{earliest});
}

TEST(Ftl, ReadPagesFlagsInjectedMediaErrors)
{
    FtlFixture f;
    const ms::Tick t = f.ftl.writePages(0, fill(1, 256), 0);
    ms::FaultPlan plan;
    plan.mediaRate = 1.0;
    ms::FaultInjector fi(plan);
    ms::ScopedFaultInjector scope(&fi);

    // An unmapped page draws nothing.
    bool media = false;
    f.ftl.readPages(1, 1, t, &media);
    EXPECT_FALSE(media);
    EXPECT_EQ(fi.mediaErrors(), 0u);

    // A mapped page's read comes back uncorrectable, its time charged.
    std::vector<ms::Tick> ticks;
    const ms::Tick done = f.ftl.readPages(0, 2, t, &media, &ticks);
    EXPECT_TRUE(media);
    EXPECT_EQ(fi.mediaErrors(), 1u);
    EXPECT_EQ(ticks.size(), 2u);
    EXPECT_GT(done, t);
    EXPECT_EQ(f.ftl.peekPage(0), fill(1, 256));
}

TEST(FtlDeath, ReadBeyondCapacityPanics)
{
    FtlFixture f;
    EXPECT_DEATH(f.ftl.readPages(f.ftl.logicalPages(), 1, 0),
                 "beyond logical capacity");
}

TEST(Ftl, WearLevellingKeepsEraseSpreadBounded)
{
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 4;
    cfg.gcHighWatermark = 6;
    FtlFixture f(cfg);
    ms::Tick t = 0;
    // Sustained overwrite churn: GC runs constantly; the least-erased
    // tie-break keeps wear from concentrating.
    for (int round = 0; round < 120; ++round) {
        for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
            t = f.ftl.writePages(
                lpn, fill(static_cast<std::uint8_t>(round + lpn), 256),
                t);
        }
    }
    EXPECT_GT(f.ftl.gcRuns(), 10u);
    // With ~wear-aware victim selection the spread stays small
    // relative to the total erase count.
    EXPECT_LE(f.ftl.maxEraseDelta(), 12u);
}
