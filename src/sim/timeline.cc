#include "sim/timeline.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace morpheus::sim {

namespace {

/** The reservation floor; 0 outside a ScopedReservationFloor. */
Tick g_floor = 0;

}  // namespace

ScopedReservationFloor::ScopedReservationFloor() : _prev(g_floor)
{
    g_floor = 0;
}

ScopedReservationFloor::~ScopedReservationFloor() { g_floor = _prev; }

void
ScopedReservationFloor::raise(Tick t)
{
    MORPHEUS_ASSERT(t >= g_floor, "reservation floor moved backwards: ",
                    t, " < ", g_floor);
    g_floor = t;
}

Tick
Timeline::acquire(Tick earliest, Tick duration)
{
    MORPHEUS_ASSERT(earliest >= g_floor, _name,
                    ": reservation below the floor: ", earliest, " < ",
                    g_floor);
    ++_ops;
    if (duration == 0)
        return earliest;
    _busyTicks += duration;
    if (_busy.size() >= _pruneAt)
        prune(g_floor);

    // Candidate start: after any interval covering `earliest`.
    Tick t = earliest;
    auto it = _busy.upper_bound(t);
    if (it != _busy.begin()) {
        const auto prev = std::prev(it);
        if (prev->second > t)
            t = prev->second;
    }
    // Slide over intervals until a gap of `duration` opens.
    while (it != _busy.end() && it->first < t + duration) {
        t = it->second;
        ++it;
    }

    // Insert [t, t + duration), merging with adjacent spans.
    Tick start = t;
    Tick end = t + duration;
    if (!_busy.empty() && it != _busy.begin()) {
        const auto prev = std::prev(it);
        if (prev->second == start) {
            start = prev->first;
            it = _busy.erase(prev);
        }
    }
    if (it != _busy.end() && it->first == end) {
        end = it->second;
        it = _busy.erase(it);
    }
    _busy.emplace(start, end);
    return t;
}

void
Timeline::prune(Tick floor)
{
    // Ends ascend with starts, so the dead intervals form a prefix: it
    // stops at the first interval ending past the floor, or at the last
    // one, which freeAt() reads.
    auto keep = _busy.lower_bound(floor);
    if (keep != _busy.begin() && std::prev(keep)->second > floor)
        --keep;
    if (keep == _busy.end())
        --keep;
    _busy.erase(_busy.begin(), keep);
    _pruneAt = std::max(kMinPruneIntervals, 2 * _busy.size());
}

TimelineBank::TimelineBank(std::string name, unsigned count)
    : _name(std::move(name))
{
    MORPHEUS_ASSERT(count > 0, "TimelineBank needs at least one unit: ",
                    _name);
    _units.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        _units.emplace_back(_name + "[" + std::to_string(i) + "]");
}

Tick
TimelineBank::acquire(Tick earliest, Tick duration, unsigned *unit)
{
    unsigned best = 0;
    Tick best_free = _units[0].freeAt();
    for (unsigned i = 1; i < _units.size(); ++i) {
        if (_units[i].freeAt() < best_free) {
            best_free = _units[i].freeAt();
            best = i;
        }
    }
    if (unit)
        *unit = best;
    return _units[best].acquire(earliest, duration);
}

Tick
TimelineBank::totalBusyTicks() const
{
    Tick total = 0;
    for (const auto &u : _units)
        total += u.busyTicks();
    return total;
}

}  // namespace morpheus::sim
