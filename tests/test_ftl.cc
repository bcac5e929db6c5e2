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
#include "obs/metrics.hh"
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

/** Logical byte offset of @p lpn's first byte. */
std::uint64_t
byteOf(std::uint64_t lpn)
{
    return lpn * tinyFlash().pageBytes;
}

/** @p lpn's whole page: its stored bytes, then zeros. */
std::vector<std::uint8_t>
wholePage(const ft::Ftl &ftl, std::uint64_t lpn)
{
    const auto stored = ftl.peekPage(lpn);
    std::vector<std::uint8_t> page(ftl.pageBytes(), 0);
    std::copy(stored.begin(), stored.end(), page.begin());
    return page;
}

/** The latest page's flash completion tick. */
ms::Tick
latest(const ft::PageReads &reads)
{
    return *std::max_element(reads.pageTicks.begin(),
                             reads.pageTicks.end());
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
    EXPECT_TRUE(f.ftl.peekPage(3).empty());
    EXPECT_EQ(wholePage(f.ftl, 3), std::vector<std::uint8_t>(256, 0));
}

TEST(Ftl, WriteThenReadBack)
{
    FtlFixture f;
    const auto data = fill(0xA5, 256);
    const ms::Tick written = f.ftl.writeBytes(byteOf(5), data, 0);
    ASSERT_TRUE(f.ftl.isMapped(5));

    const ms::Tick read = latest(f.ftl.readPages(5, 1, written));
    const auto cfg = tinyFlash();
    EXPECT_GE(read, written + cfg.readLatency +
                        ms::transferTicks(cfg.pageBytes,
                                          cfg.channelBytesPerSec));
    EXPECT_EQ(wholePage(f.ftl, 5), data);
}

TEST(Ftl, OverwriteReplacesData)
{
    // One three-page range rewritten many times, GC firing under it:
    // each page reads back the last write, never an older one.
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 4;
    cfg.gcHighWatermark = 6;
    FtlFixture f(cfg);
    ms::Tick t = 0;
    for (int round = 0; round < 200; ++round) {
        const auto tag = static_cast<std::uint8_t>(round * 7);
        const auto want = fill(tag, 3 * 256);
        t = f.ftl.writeBytes(byteOf(20), want, t);
        for (std::uint64_t lpn = 20; lpn < 23; ++lpn) {
            const auto off = static_cast<std::ptrdiff_t>((lpn - 20) * 256);
            ASSERT_EQ(wholePage(f.ftl, lpn),
                      std::vector<std::uint8_t>(want.begin() + off,
                                                want.begin() + off + 256))
                << "round " << round << " lpn " << lpn;
        }
    }
    EXPECT_GT(f.ftl.gcRuns(), 0u);
}

TEST(Ftl, ShortOverwriteKeepsTheBytesPastIt)
{
    // A write is read-modify-write: bytes past a short write's end are
    // what the previous write left there.
    FtlFixture f;
    f.ftl.writeBytes(byteOf(4), fill(0xFF, 256), 0);
    f.ftl.writeBytes(byteOf(4), fill(3, 100), 0);
    std::vector<std::uint8_t> want = fill(3, 100);
    const auto old = fill(0xFF, 256);
    want.insert(want.end(), old.begin() + 100, old.end());
    EXPECT_EQ(wholePage(f.ftl, 4), want);
}

TEST(Ftl, ShortWriteStoresItsBytesUpToItsEnd)
{
    // No padding: a page holds the bytes up to the highest one written,
    // zeros in front of a write that starts mid-page, and nothing past.
    for (const std::size_t lead : {0u, 1u, 100u}) {
        FtlFixture f;
        auto data = fill(6, 90);
        std::fill(data.end() - 10, data.end(), 0);  // written zeros stay
        f.ftl.writeBytes(byteOf(2) + lead, data, 0);
        std::vector<std::uint8_t> want(lead, 0);
        want.insert(want.end(), data.begin(), data.end());
        const auto stored = f.ftl.peekPage(2);
        EXPECT_EQ(std::vector<std::uint8_t>(stored.begin(), stored.end()),
                  want)
            << "lead " << lead;
    }
}

TEST(Ftl, AllZeroWriteReadsZeros)
{
    // The page is mapped and programmed (a read costs flash time) and
    // reads as zeros; zeros over a written page clear it.
    FtlFixture f;
    const std::vector<std::uint8_t> zeros(256, 0);
    const ms::Tick t = f.ftl.writeBytes(byteOf(7), zeros, 0);
    EXPECT_GT(t, 0u);
    EXPECT_TRUE(f.ftl.isMapped(7));
    EXPECT_EQ(wholePage(f.ftl, 7), zeros);
    EXPECT_GT(latest(f.ftl.readPages(7, 1, t)), t);

    f.ftl.writeBytes(byteOf(8), fill(4, 256), t);
    f.ftl.writeBytes(byteOf(8), zeros, t);
    EXPECT_EQ(wholePage(f.ftl, 8), zeros);
}

TEST(Ftl, MidPagePatchKeepsBothSides)
{
    FtlFixture f;
    auto want = fill(1, 256);
    f.ftl.writeBytes(byteOf(6), want, 0);
    const auto patch = fill(9, 40);
    f.ftl.writeBytes(byteOf(6) + 100, patch, 0);
    std::copy(patch.begin(), patch.end(), want.begin() + 100);
    EXPECT_EQ(wholePage(f.ftl, 6), want);

    // Zeros over the tail read as zeros; the head stays.
    f.ftl.writeBytes(byteOf(6) + 200, std::vector<std::uint8_t>(56, 0), 0);
    std::fill(want.begin() + 200, want.end(), 0);
    EXPECT_EQ(wholePage(f.ftl, 6), want);
}

TEST(Ftl, GcRelocationKeepsExactBytes)
{
    // Every LPN holds its own random bytes; a random overwrite stream
    // makes GC relocate still-valid pages, which must read back intact.
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 2;
    cfg.gcHighWatermark = 3;
    FtlFixture f(cfg);
    ms::Rng rng(9);
    const std::uint64_t span = 200;
    std::map<std::uint64_t, std::vector<std::uint8_t>> shadow;
    ms::Tick t = 0;
    for (int op = 0; op < 600; ++op) {
        const std::uint64_t lpn = op < static_cast<int>(span)
                                      ? static_cast<std::uint64_t>(op)
                                      : rng.nextBelow(span);
        std::vector<std::uint8_t> bytes(256);
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.nextBelow(256));
        t = f.ftl.writeBytes(byteOf(lpn), bytes, t);
        shadow[lpn] = std::move(bytes);
    }
    morpheus::obs::MetricsRegistry reg;
    f.ftl.writeStats(reg, "ftl");
    ASSERT_GT(reg.counter("ftl.gcRelocated"), 0u);
    for (const auto &[lpn, bytes] : shadow)
        EXPECT_EQ(wholePage(f.ftl, lpn), bytes) << "lpn " << lpn;
}

TEST(Ftl, GcRelocationKeepsShortPagesExact)
{
    // Random slices, often ending in zeros, patched into random pages
    // while GC relocates them: each page's stored bytes stay exactly
    // its image up to the highest byte written.
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 2;
    cfg.gcHighWatermark = 3;
    FtlFixture f(cfg);
    ms::Rng rng(17);
    const std::uint64_t span = 200;
    std::map<std::uint64_t, std::vector<std::uint8_t>> shadow;
    ms::Tick t = 0;
    for (int op = 0; op < 800; ++op) {
        const std::uint64_t lpn = op < static_cast<int>(span)
                                      ? static_cast<std::uint64_t>(op)
                                      : rng.nextBelow(span);
        const std::size_t lo = rng.nextBelow(256);
        const std::size_t n = 1 + rng.nextBelow(256 - lo);
        const std::size_t zeros = rng.nextBelow(n + 1);
        std::vector<std::uint8_t> bytes(n, 0);
        for (std::size_t i = 0; i + zeros < n; ++i)
            bytes[i] = static_cast<std::uint8_t>(rng.nextBelow(256));
        t = f.ftl.writeBytes(byteOf(lpn) + lo, bytes, t);
        auto &image = shadow[lpn];
        image.resize(std::max(image.size(), lo + n), 0);
        std::copy(bytes.begin(), bytes.end(), image.begin() + lo);
    }
    morpheus::obs::MetricsRegistry reg;
    f.ftl.writeStats(reg, "ftl");
    ASSERT_GT(reg.counter("ftl.gcRelocated"), 0u);
    for (const auto &[lpn, image] : shadow) {
        const auto stored = f.ftl.peekPage(lpn);
        EXPECT_EQ(std::vector<std::uint8_t>(stored.begin(), stored.end()),
                  image)
            << "lpn " << lpn;
    }
}

TEST(Ftl, MultiPageWriteSpansPages)
{
    // An unaligned write over five pages: its first and last pages keep
    // the bytes around it, the three between hold only its bytes.
    FtlFixture f;
    const auto old = fill(0x5A, 256 * 5);
    f.ftl.writeBytes(byteOf(10), old, 0);
    const auto data = fill(7, 256 * 3 + 100);
    f.ftl.writeBytes(byteOf(10) + 60, data, 0);
    for (std::uint64_t lpn = 10; lpn < 15; ++lpn)
        EXPECT_TRUE(f.ftl.isMapped(lpn));
    auto want = old;
    std::copy(data.begin(), data.end(), want.begin() + 60);
    std::vector<std::uint8_t> all;
    for (std::uint64_t lpn = 10; lpn < 15; ++lpn) {
        const auto p = wholePage(f.ftl, lpn);
        all.insert(all.end(), p.begin(), p.end());
    }
    EXPECT_EQ(all, want);
}

TEST(Ftl, WritesStripeAcrossPlanes)
{
    FtlFixture f;
    // Two single-page writes should land on different planes
    // (different channels in this geometry), so their program phases
    // overlap.
    const ms::Tick d0 = f.ftl.writeBytes(byteOf(0), fill(1, 256), 0);
    (void)d0;
    EXPECT_GT(f.flash.dieTimeline(0, 0).busyTicks() +
                  f.flash.dieTimeline(1, 0).busyTicks(),
              0u);
    f.ftl.writeBytes(byteOf(1), fill(2, 256), 0);
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
            t = f.ftl.writeBytes(byteOf(lpn), fill(
                static_cast<std::uint8_t>(round), 256), t);
    }
    EXPECT_GT(f.ftl.gcRuns(), 0u);
    EXPECT_GT(f.flash.erasesIssued().value(), 0u);
    // Data integrity survives GC.
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        EXPECT_EQ(wholePage(f.ftl, lpn), fill(39, 256));
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
        t = f.ftl.writeBytes(byteOf(lpn), fill(tag, 256), t);
        shadow[lpn] = tag;
        if (op % 7 == 0) {
            // Spot check a random previously written page.
            const auto it = shadow.begin();
            EXPECT_EQ(wholePage(f.ftl, it->first),
                      fill(it->second, 256));
        }
    }
    for (const auto &[lpn, tag] : shadow)
        EXPECT_EQ(wholePage(f.ftl, lpn), fill(tag, 256));
    // Every shadowed page is still mapped, so reading it charges
    // flash time past t.
    for (const auto &[lpn, tag] : shadow)
        EXPECT_GT(latest(f.ftl.readPages(lpn, 1, t)), t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlRandomProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47));

TEST(Ftl, ParallelReadsAcrossDiesOverlap)
{
    FtlFixture f;
    ms::Tick t = 0;
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn)
        t = f.ftl.writeBytes(byteOf(lpn), fill(9, 256), t);
    // A 4-page read touches pages striped over 2 channels; the total
    // time is below 4 sequential die reads.
    const ms::Tick start = t;
    const ms::Tick done = latest(f.ftl.readPages(0, 4, start));
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
        t = f.ftl.writeBytes(byteOf(lpn),
                             fill(static_cast<std::uint8_t>(lpn), 256), t);
    const ms::Tick earliest = t;
    // Keep channel 1's die programming past earliest, so LPN 1 lands
    // after LPN 3 although it comes first in LPN order.
    f.ftl.writeBytes(byteOf(5), fill(5, 256), earliest);

    const ft::PageReads reads = f.ftl.readPages(0, 4, earliest);
    const std::vector<ms::Tick> &ticks = reads.pageTicks;
    ASSERT_EQ(ticks.size(), 4u);
    EXPECT_EQ(ticks[0], earliest + read + xfer);
    EXPECT_GE(ticks[1], earliest + cfg.programLatency + read + xfer);
    EXPECT_EQ(ticks[2], earliest);  // unmapped: no flash access
    EXPECT_GT(ticks[3], ticks[0]);  // queued behind LPN 0 on its die
    EXPECT_GT(ticks[1], ticks[3]);
    EXPECT_FALSE(reads.mediaError);

    // An unmapped-only range completes at earliest.
    EXPECT_EQ(f.ftl.readPages(2, 1, earliest).pageTicks,
              std::vector<ms::Tick>{earliest});
}

TEST(Ftl, ReadPagesFlagsInjectedMediaErrors)
{
    FtlFixture f;
    const ms::Tick t = f.ftl.writeBytes(byteOf(0), fill(1, 256), 0);
    ms::FaultPlan plan;
    plan.mediaRate = 1.0;
    ms::FaultInjector fi(plan);
    ms::ScopedFaultInjector scope(&fi);

    // An unmapped page draws nothing.
    EXPECT_FALSE(f.ftl.readPages(1, 1, t).mediaError);
    EXPECT_EQ(fi.mediaErrors(), 0u);

    // A mapped page's read comes back uncorrectable, its time charged.
    const ft::PageReads reads = f.ftl.readPages(0, 2, t);
    EXPECT_TRUE(reads.mediaError);
    EXPECT_EQ(fi.mediaErrors(), 1u);
    EXPECT_EQ(reads.pageTicks.size(), 2u);
    EXPECT_GT(latest(reads), t);
    EXPECT_EQ(wholePage(f.ftl, 0), fill(1, 256));
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
            t = f.ftl.writeBytes(
                byteOf(lpn),
                fill(static_cast<std::uint8_t>(round + lpn), 256), t);
        }
    }
    EXPECT_GT(f.ftl.gcRuns(), 10u);
    // With ~wear-aware victim selection the spread stays small
    // relative to the total erase count.
    EXPECT_LE(f.ftl.maxEraseDelta(), 12u);
}

TEST(Ftl, FreePoolHandsOutBlocksInItsRecordedOrder)
{
    // A seeded overwrite stream with tight watermarks: GC fires often,
    // and a plane runs dry (two GC-free writes in a row land on one
    // die, the stripe having skipped the other plane). The expected
    // values were recorded from a build whose free pool held every
    // block in one list: a plane's free block is the one GC erased
    // last, else its lowest never-written block.
    ft::FtlConfig cfg;
    cfg.gcLowWatermark = 2;
    cfg.gcHighWatermark = 3;
    FtlFixture f(cfg);
    ms::Rng rng(1);
    const std::uint64_t span = 200;

    std::uint64_t tick_hash = 14695981039346656037ULL;  // FNV-1a
    unsigned same_die_pairs = 0;
    int prev_die = -1;
    std::uint64_t prev_gc = 0;
    ms::Tick t = 0;
    for (int op = 0; op < 600; ++op) {
        const std::uint64_t lpn = op < static_cast<int>(span)
                                      ? static_cast<std::uint64_t>(op)
                                      : rng.nextBelow(span);
        const ms::Tick die0 = f.flash.dieTimeline(0, 0).busyTicks();
        t = f.ftl.writeBytes(byteOf(lpn),
                             fill(static_cast<std::uint8_t>(op), 256), t);
        tick_hash = (tick_hash ^ t) * 1099511628211ULL;
        if (f.ftl.gcRuns() != prev_gc) {
            prev_gc = f.ftl.gcRuns();
            prev_die = -1;
            continue;
        }
        const int die =
            f.flash.dieTimeline(0, 0).busyTicks() != die0 ? 0 : 1;
        same_die_pairs += die == prev_die;
        prev_die = die;
    }

    morpheus::obs::MetricsRegistry reg;
    f.ftl.writeStats(reg, "ftl");
    EXPECT_EQ(tick_hash, 3025204546272628997ULL);
    EXPECT_EQ(t, 846784480000ULL);
    EXPECT_EQ(f.ftl.gcRuns(), 43u);
    EXPECT_EQ(reg.counter("ftl.gcRelocated"), 565u);
    EXPECT_EQ(same_die_pairs, 107u);
    EXPECT_EQ(f.ftl.freeBlocks(), 1u);
    const std::vector<std::uint64_t> expected_erases = {
        2, 3, 3, 4, 3, 5, 4, 4, 4, 3, 4, 3, 3, 3, 3, 4,
        4, 5, 3, 3, 5, 5, 4, 3, 4, 4, 4, 4, 3, 3, 4, 3};
    std::vector<std::uint64_t> erases;
    for (unsigned ch = 0; ch < 2; ++ch) {
        for (unsigned blk = 0; blk < 16; ++blk)
            erases.push_back(
                f.flash.eraseCount(fl::BlockPointer{ch, 0, 0, blk}));
    }
    EXPECT_EQ(erases, expected_erases);
}
