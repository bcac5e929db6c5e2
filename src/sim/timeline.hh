/**
 * @file
 * Serialized-resource occupancy tracking.
 *
 * A Timeline models a resource that can serve one operation at a time
 * (a flash die, a DMA engine, a PCIe link direction, a CPU core). A
 * client asks for a slot of a given duration no earlier than some
 * tick; the timeline places the reservation in the earliest gap that
 * fits and records utilization.
 *
 * Reservations may arrive in any time order: the simulator walks
 * logically-concurrent activities (host threads, StorageApp instances)
 * one after another in program order, so a later-walked activity must
 * be able to claim an idle gap that an earlier-walked activity left
 * behind. Interval bookkeeping (a sorted vector of busy spans, merged
 * in place on insert) makes that exact rather than approximate.
 *
 * Most reservations land at or after the last busy span, and the few
 * that fill a gap slide past almost no spans, so a flat vector with a
 * tail check beats a node-based map: no allocation per reservation and
 * no search for the common case.
 */

#ifndef MORPHEUS_SIM_TIMELINE_HH
#define MORPHEUS_SIM_TIMELINE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace morpheus::sim {

/** Occupancy tracker for a one-op-at-a-time resource. */
class Timeline
{
  public:
    explicit Timeline(std::string name = "timeline")
        : _name(std::move(name))
    {}

    /**
     * Reserve the resource for @p duration ticks, starting no earlier
     * than @p earliest, in the earliest gap that fits.
     *
     * @return The tick at which the reservation begins.
     */
    Tick acquire(Tick earliest, Tick duration);

    /** acquire() and return the completion tick instead of the start. */
    Tick
    acquireUntil(Tick earliest, Tick duration)
    {
        return acquire(earliest, duration) + duration;
    }

    /** End of the last reservation (0 when never used). */
    Tick freeAt() const
    {
        return _busy.empty() ? 0 : _busy.back().second;
    }

    /** Total busy time accumulated. */
    Tick busyTicks() const { return _busyTicks; }

    /** Number of reservations made. */
    std::uint64_t ops() const { return _ops; }

    /** Number of distinct busy intervals currently tracked (pruned
     *  intervals below the reservation floor are not counted). */
    std::size_t intervals() const { return _busy.size(); }

    /** Fraction of [0, window) spent busy (clamped to [0, 1]). */
    double
    utilization(Tick window) const
    {
        if (window == 0)
            return 0.0;
        const double u = static_cast<double>(_busyTicks) /
                         static_cast<double>(window);
        return u > 1.0 ? 1.0 : u;
    }

    const std::string &name() const { return _name; }

    /** Drop all accumulated state (for test reuse). */
    void
    reset()
    {
        _busy.clear();
        _busyTicks = 0;
        _ops = 0;
        _pruneAt = kMinPruneIntervals;
    }

  private:
    /** Interval count below which acquire() never prunes. */
    static constexpr std::size_t kMinPruneIntervals = 64;

    /** Drop intervals ending at or before @p floor, keeping the last. */
    void prune(Tick floor);

    std::string _name;
    /** Busy spans [start, end), sorted by start, non-overlapping and
     *  non-adjacent. */
    std::vector<std::pair<Tick, Tick>> _busy;
    Tick _busyTicks = 0;
    std::uint64_t _ops = 0;
    /** Prune when _busy reaches this size (double the last result). */
    std::size_t _pruneAt = kMinPruneIntervals;
};

/**
 * RAII: a reservation floor for a scope. It starts at 0, may only be
 * raised, and the previous floor is restored on exit.
 */
class ScopedReservationFloor
{
  public:
    ScopedReservationFloor();
    ~ScopedReservationFloor();

    ScopedReservationFloor(const ScopedReservationFloor &) = delete;
    ScopedReservationFloor &
    operator=(const ScopedReservationFloor &) = delete;

    /** Promise that no later reservation starts before @p t. */
    void raise(Tick t);

  private:
    Tick _prev;
};

/**
 * A bank of identical serialized resources with earliest-free dispatch
 * (e.g., a pool of embedded cores or DMA channels when the requester
 * does not care which unit serves it).
 */
class TimelineBank
{
  public:
    TimelineBank(std::string name, unsigned count);

    /** Reserve whichever unit frees up first. @return start tick. */
    Tick acquire(Tick earliest, Tick duration, unsigned *unit = nullptr);

    /** Reserve a specific unit. */
    Tick
    acquireUnit(unsigned unit, Tick earliest, Tick duration)
    {
        return _units.at(unit).acquire(earliest, duration);
    }

    unsigned size() const { return static_cast<unsigned>(_units.size()); }
    const Timeline &unit(unsigned i) const { return _units.at(i); }
    Timeline &unit(unsigned i) { return _units.at(i); }

    /** Sum of busy ticks across units. */
    Tick totalBusyTicks() const;

  private:
    std::string _name;
    std::vector<Timeline> _units;
};

}  // namespace morpheus::sim

#endif  // MORPHEUS_SIM_TIMELINE_HH
