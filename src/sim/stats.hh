/**
 * @file
 * Lightweight statistics package (gem5-flavoured).
 *
 * Components own Counter members (or expose levels as gauges) and
 * register them with a StatSet; StatSet::visit() walks them in name
 * order, and obs::MetricsRegistry snapshots that walk into the one
 * reporting channel (report(), writeJson()).
 */

#ifndef MORPHEUS_SIM_STATS_HH
#define MORPHEUS_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace morpheus::sim::stats {

/** A monotonically increasing event/byte counter. */
class Counter
{
  public:
    Counter &operator+=(std::uint64_t v) { _value += v; return *this; }
    Counter &operator++() { ++_value; return *this; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * A named registry of stats for one simulated system. Components
 * register pointers; the StatSet does not own them and they must
 * outlive it.
 */
class StatSet
{
  public:
    void registerCounter(const std::string &name, const Counter *c);
    /** A counter-typed value read through @p read at visit time
     *  (e.g. a level such as resident bytes, not an event count). */
    void registerGauge(const std::string &name,
                       std::function<std::uint64_t()> read);

    /** Look up a counter value by name (0 if absent). */
    std::uint64_t counterValue(const std::string &name) const;

    /**
     * Walk every registered counter and gauge by value, sorted by
     * name. Lets callers (e.g. obs::MetricsRegistry) snapshot the
     * values before the registered components die.
     */
    void visit(
        const std::function<void(const std::string &, std::uint64_t)> &fn)
        const;

  private:
    /** Counters and gauges, both read by value. */
    std::map<std::string, std::function<std::uint64_t()>> _counters;
};

}  // namespace morpheus::sim::stats

#endif  // MORPHEUS_SIM_STATS_HH
