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

    // Candidate start: after any interval covering `earliest`. `i` is
    // the first interval starting after `earliest`; a reservation at or
    // past the last interval's start needs no search.
    Tick t = earliest;
    std::size_t i = _busy.size();
    if (i > 0 && _busy.back().first > t) {
        i = static_cast<std::size_t>(
            std::upper_bound(_busy.begin(), _busy.end(), t,
                             [](Tick v, const std::pair<Tick, Tick> &b) {
                                 return v < b.first;
                             }) -
            _busy.begin());
    }
    if (i > 0 && _busy[i - 1].second > t)
        t = _busy[i - 1].second;
    // Slide over intervals until a gap of `duration` opens.
    while (i < _busy.size() && _busy[i].first < t + duration) {
        t = _busy[i].second;
        ++i;
    }

    // Insert [t, t + duration) before interval i, merging in place with
    // the spans it touches.
    const Tick end = t + duration;
    const bool join_prev = i > 0 && _busy[i - 1].second == t;
    const bool join_next = i < _busy.size() && _busy[i].first == end;
    if (join_prev && join_next) {
        _busy[i - 1].second = _busy[i].second;
        _busy.erase(_busy.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (join_prev) {
        _busy[i - 1].second = end;
    } else if (join_next) {
        _busy[i].first = t;
    } else {
        _busy.emplace(_busy.begin() + static_cast<std::ptrdiff_t>(i), t,
                      end);
    }
    return t;
}

void
Timeline::prune(Tick floor)
{
    // Ends ascend with starts, so the dead intervals form a prefix: it
    // stops at the first interval ending past the floor, or at the last
    // one, which freeAt() reads.
    std::size_t keep = 0;
    while (keep + 1 < _busy.size() && _busy[keep].second <= floor)
        ++keep;
    _busy.erase(_busy.begin(),
                _busy.begin() + static_cast<std::ptrdiff_t>(keep));
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
