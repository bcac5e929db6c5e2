/**
 * @file
 * Unit tests for serialized-resource timelines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hh"
#include "sim/timeline.hh"

namespace ms = morpheus::sim;

TEST(Timeline, FirstAcquireStartsAtRequest)
{
    ms::Timeline t("t");
    EXPECT_EQ(t.acquire(100, 50), 100u);
    EXPECT_EQ(t.freeAt(), 150u);
}

TEST(Timeline, BackToBackRequestsQueue)
{
    ms::Timeline t("t");
    t.acquire(0, 100);
    // Second op asks for tick 10 but the resource is busy until 100.
    EXPECT_EQ(t.acquire(10, 30), 100u);
    EXPECT_EQ(t.freeAt(), 130u);
}

TEST(Timeline, GapsLeaveIdleTime)
{
    ms::Timeline t("t");
    t.acquire(0, 10);
    EXPECT_EQ(t.acquire(100, 10), 100u);
    EXPECT_EQ(t.busyTicks(), 20u);
    EXPECT_DOUBLE_EQ(t.utilization(200), 0.1);
}

TEST(Timeline, AcquireUntilReturnsCompletion)
{
    ms::Timeline t("t");
    EXPECT_EQ(t.acquireUntil(5, 20), 25u);
}

TEST(Timeline, UtilizationClampsToOne)
{
    ms::Timeline t("t");
    t.acquire(0, 1000);
    EXPECT_DOUBLE_EQ(t.utilization(10), 1.0);
    EXPECT_DOUBLE_EQ(t.utilization(0), 0.0);
}

TEST(Timeline, ResetClearsState)
{
    ms::Timeline t("t");
    t.acquire(0, 100);
    t.reset();
    EXPECT_EQ(t.freeAt(), 0u);
    EXPECT_EQ(t.busyTicks(), 0u);
    EXPECT_EQ(t.ops(), 0u);
}

TEST(TimelineBank, AcquireUnitTargetsSpecificUnit)
{
    ms::TimelineBank bank("b", 3);
    bank.acquireUnit(2, 0, 40);
    EXPECT_EQ(bank.unit(2).busyTicks(), 40u);
    EXPECT_EQ(bank.unit(0).busyTicks(), 0u);
    EXPECT_EQ(bank.unit(1).busyTicks(), 0u);
}

TEST(TimelineBankDeath, ZeroUnitsPanics)
{
    EXPECT_DEATH(ms::TimelineBank("b", 0), "at least one unit");
}

TEST(Timeline, GapFillingPlacesLateArrivalsEarly)
{
    // A reservation far in the future must not block a later-issued
    // request for an earlier slot (logically concurrent activities are
    // walked sequentially by the simulator).
    ms::Timeline t("t");
    t.acquire(1000000, 500);
    EXPECT_EQ(t.acquire(0, 200), 0u);          // fills the early gap
    EXPECT_EQ(t.acquire(100, 800000), 200u);   // fits before the island
    EXPECT_EQ(t.freeAt(), 1000500u);
}

TEST(Timeline, GapTooSmallSkipsToNextGap)
{
    ms::Timeline t("t");
    t.acquire(100, 50);   // busy [100,150)
    t.acquire(200, 50);   // busy [200,250)
    // A 80-tick request at 90 does not fit in [150,200); lands at 250.
    EXPECT_EQ(t.acquire(90, 80), 250u);
}

TEST(Timeline, AdjacentReservationsMerge)
{
    ms::Timeline t("t");
    t.acquire(0, 100);
    t.acquire(100, 100);
    t.acquire(200, 100);
    EXPECT_EQ(t.intervals(), 1u);
    EXPECT_EQ(t.freeAt(), 300u);
}

TEST(Timeline, ZeroDurationIsFree)
{
    ms::Timeline t("t");
    t.acquire(0, 100);
    EXPECT_EQ(t.acquire(50, 0), 50u);  // no occupancy, no queueing
    EXPECT_EQ(t.busyTicks(), 100u);
}

TEST(Timeline, BusyTicksAccumulateAcrossGapFills)
{
    ms::Timeline t("t");
    t.acquire(1000, 10);
    t.acquire(0, 10);
    t.acquire(500, 10);
    EXPECT_EQ(t.busyTicks(), 30u);
    EXPECT_EQ(t.ops(), 3u);
    EXPECT_EQ(t.intervals(), 3u);
}

// ------------------------------------------------- reservation floor

namespace {

/** What one reservation observed, for pruned-vs-unpruned comparison. */
struct Step
{
    ms::Tick start;
    ms::Tick freeAt;
    ms::Tick busy;
    std::uint64_t ops;
    bool operator==(const Step &) const = default;
};

/**
 * A seeded stream of reservations under a rising floor: each one asks
 * for a tick at or above the floor, often inside gaps earlier ones
 * left, with some zero-length ones. Returns what each observed and the
 * largest interval count the timeline held. With @p floor null the
 * floor stays 0 (nothing is pruned).
 */
std::vector<Step>
runStream(ms::Timeline &t, ms::ScopedReservationFloor *floor,
          std::size_t *max_intervals)
{
    ms::Rng rng(1234);
    std::vector<Step> steps;
    ms::Tick now = 0;
    *max_intervals = 0;
    for (int i = 0; i < 20000; ++i) {
        now += rng.nextBelow(40);
        if (floor != nullptr)
            floor->raise(now);
        const ms::Tick earliest = now + rng.nextBelow(400);
        const ms::Tick duration =
            rng.nextBool(0.05) ? 0 : 1 + rng.nextBelow(30);
        const ms::Tick start = t.acquire(earliest, duration);
        steps.push_back({start, t.freeAt(), t.busyTicks(), t.ops()});
        *max_intervals = std::max(*max_intervals, t.intervals());
    }
    return steps;
}

}  // namespace

TEST(TimelineFloor, PruningNeverChangesAPlacement)
{
    ms::Timeline unpruned("ref");
    std::size_t unpruned_max = 0;
    const std::vector<Step> ref =
        runStream(unpruned, nullptr, &unpruned_max);

    ms::Timeline pruned("pruned");
    std::size_t pruned_max = 0;
    std::vector<Step> got;
    {
        ms::ScopedReservationFloor floor;
        got = runStream(pruned, &floor, &pruned_max);
    }
    pruned.acquire(0, 1);  // the scope restored floor 0 on exit
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "reservation " << i;
    // The stream leaves thousands of gaps behind it; below the floor
    // they are forgotten, so the map stays small.
    EXPECT_GT(unpruned_max, 2000u);
    EXPECT_LT(pruned_max, 200u);
}

// ------------------------------------------------- reference model

namespace {

/**
 * Brute-force occupancy: one flag per tick. A reservation takes the
 * first run of @c duration free ticks at or after @c earliest.
 */
class TickModel
{
  public:
    ms::Tick
    acquire(ms::Tick earliest, ms::Tick duration)
    {
        ++_ops;
        if (duration == 0)
            return earliest;
        ms::Tick t = earliest;
        for (ms::Tick k = t; k < t + duration; ++k) {
            if (busy(k))
                t = k + 1;  // restart the run past the busy tick
        }
        if (_busy.size() < t + duration)
            _busy.resize(t + duration, false);
        std::fill(_busy.begin() + static_cast<std::ptrdiff_t>(t),
                  _busy.begin() + static_cast<std::ptrdiff_t>(t + duration),
                  true);
        _busyTicks += duration;
        return t;
    }

    bool busy(ms::Tick k) const { return k < _busy.size() && _busy[k]; }

    /** Length of the free run starting at @p k (ticks to the next busy
     *  one; 0 when @p k is busy or past the last reservation). */
    ms::Tick
    freeRun(ms::Tick k) const
    {
        ms::Tick n = 0;
        while (k + n < _busy.size() && !_busy[k + n])
            ++n;
        return k + n < _busy.size() ? n : 0;
    }

    /** Maximal busy runs: what a merged interval list must hold. */
    std::size_t
    runs() const
    {
        std::size_t n = 0;
        for (std::size_t k = 0; k < _busy.size(); ++k)
            n += _busy[k] && (k == 0 || !_busy[k - 1]);
        return n;
    }

    ms::Tick freeAt() const { return _busy.size(); }
    ms::Tick busyTicks() const { return _busyTicks; }
    std::uint64_t ops() const { return _ops; }

  private:
    std::vector<bool> _busy;
    ms::Tick _busyTicks = 0;
    std::uint64_t _ops = 0;
};

/**
 * Replay runStream's reservations against @p t and the tick model.
 * With @p bridge, about a third of them instead ask for exactly the
 * free run that starts at their tick, so the reservation closes a gap
 * between two busy spans and the spans on both sides merge.
 */
void
checkAgainstModel(ms::Timeline &t, ms::ScopedReservationFloor *floor,
                  bool bridge)
{
    ms::Rng rng(bridge ? 4321 : 1234);
    TickModel model;
    ms::Tick now = 0;
    for (int i = 0; i < 20000; ++i) {
        now += rng.nextBelow(40);
        if (floor != nullptr)
            floor->raise(now);
        const ms::Tick earliest = now + rng.nextBelow(400);
        ms::Tick duration = rng.nextBool(0.05) ? 0 : 1 + rng.nextBelow(30);
        if (bridge && rng.nextBool(0.3)) {
            ms::Tick k = earliest;
            while (model.busy(k))
                ++k;
            if (const ms::Tick gap = model.freeRun(k); gap > 0)
                duration = gap;
        }
        const ms::Tick want = model.acquire(earliest, duration);
        ASSERT_EQ(t.acquire(earliest, duration), want) << "reservation " << i;
        ASSERT_EQ(t.freeAt(), model.freeAt()) << "reservation " << i;
        ASSERT_EQ(t.busyTicks(), model.busyTicks()) << "reservation " << i;
        ASSERT_EQ(t.ops(), model.ops()) << "reservation " << i;
        if (floor == nullptr && i % 1000 == 0) {
            ASSERT_EQ(t.intervals(), model.runs()) << "reservation " << i;
        }
    }
}

}  // namespace

TEST(TimelineModel, MatchesPerTickOccupancy)
{
    ms::Timeline t("t");
    checkAgainstModel(t, nullptr, false);
}

TEST(TimelineModel, MatchesPerTickOccupancyWithBridgingMerges)
{
    ms::Timeline t("t");
    checkAgainstModel(t, nullptr, true);
}

TEST(TimelineModel, MatchesPerTickOccupancyUnderAFloor)
{
    for (const bool bridge : {false, true}) {
        ms::Timeline t("t");
        ms::ScopedReservationFloor floor;
        checkAgainstModel(t, &floor, bridge);
    }
}

TEST(TimelineFloor, ResetRestoresTheInitialState)
{
    ms::Timeline t("t");
    std::size_t first_max = 0;
    std::vector<Step> first;
    {
        ms::ScopedReservationFloor floor;
        first = runStream(t, &floor, &first_max);
    }
    t.reset();
    EXPECT_EQ(t.freeAt(), 0u);
    EXPECT_EQ(t.busyTicks(), 0u);
    EXPECT_EQ(t.ops(), 0u);
    EXPECT_EQ(t.intervals(), 0u);
    // The prune threshold is reset too: a replay prunes on the same
    // schedule and peaks at the same interval count.
    std::size_t second_max = 0;
    std::vector<Step> second;
    {
        ms::ScopedReservationFloor floor;
        second = runStream(t, &floor, &second_max);
    }
    EXPECT_EQ(second, first);
    EXPECT_EQ(second_max, first_max);
}

TEST(TimelineFloor, TrailingFloorKeepsTheMapSmall)
{
    ms::Timeline t("t");
    ms::ScopedReservationFloor floor;
    // Disjoint reservations [10i, 10i + 5), the floor trailing each.
    for (ms::Tick i = 0; i < 200; ++i) {
        floor.raise(i * 10);
        t.acquire(i * 10, 5);
    }
    EXPECT_EQ(t.freeAt(), 1995u);
    EXPECT_EQ(t.ops(), 200u);
    EXPECT_EQ(t.busyTicks(), 1000u);
    EXPECT_LE(t.intervals(), 64u);
    // The interval ending past the floor is kept: a reservation at the
    // floor still queues behind it.
    EXPECT_EQ(t.acquire(1990, 3), 1995u);
}

TEST(TimelineFloorDeath, AcquireBelowTheFloorPanics)
{
    EXPECT_DEATH(
        {
            ms::Timeline t("t");
            ms::ScopedReservationFloor floor;
            floor.raise(100);
            t.acquire(99, 1);
        },
        "reservation below the floor");
}

TEST(TimelineFloorDeath, FloorNeverMovesBackwards)
{
    EXPECT_DEATH(
        {
            ms::ScopedReservationFloor floor;
            floor.raise(100);
            floor.raise(50);
        },
        "floor moved backwards");
}
