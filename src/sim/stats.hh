/**
 * @file
 * The simulator's event/byte counter.
 *
 * Components own Counter members and, at collection time, write their
 * values into obs::MetricsRegistry (each component's writeStats()),
 * the one reporting channel (report(), writeJson()).
 */

#ifndef MORPHEUS_SIM_STATS_HH
#define MORPHEUS_SIM_STATS_HH

#include <cstdint>

namespace morpheus::sim::stats {

/** A monotonically increasing event/byte counter. */
class Counter
{
  public:
    Counter &operator+=(std::uint64_t v) { _value += v; return *this; }
    Counter &operator++() { ++_value; return *this; }
    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

}  // namespace morpheus::sim::stats

#endif  // MORPHEUS_SIM_STATS_HH
