/**
 * @file
 * Lightweight statistics package (gem5-flavoured).
 *
 * Components own Counter / Accumulator / Histogram members and register
 * them with a StatSet; StatSet::report() produces a deterministic,
 * alphabetically ordered dump for tests and benches.
 */

#ifndef MORPHEUS_SIM_STATS_HH
#define MORPHEUS_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

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

/** Tracks sum / count / min / max of a sampled quantity. */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    void
    reset()
    {
        _sum = 0.0;
        _count = 0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

  private:
    double _sum = 0.0;
    std::uint64_t _count = 0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/** Fixed-width-bucket histogram with under/overflow buckets. */
class Histogram
{
  public:
    /**
     * @param lo       Lower bound of the first bucket.
     * @param hi       Upper bound of the last bucket.
     * @param buckets  Number of equal-width buckets in [lo, hi).
     */
    Histogram(double lo, double hi, unsigned buckets);

    void sample(double v);

    std::uint64_t bucketCount(unsigned i) const { return _counts.at(i); }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t samples() const { return _acc.count(); }
    double mean() const { return _acc.mean(); }
    double min() const { return _acc.min(); }
    double max() const { return _acc.max(); }
    unsigned buckets() const { return static_cast<unsigned>(_counts.size()); }

    /** Approximate quantile: rank interpolation within the landing
     *  bucket, clamped to the exact observed min/max (so the deep tail
     *  reports the true extreme, never a bucket edge). */
    double quantile(double q) const;

    void reset();

  private:
    double _lo;
    double _width;
    std::vector<std::uint64_t> _counts;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    Accumulator _acc;
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
    /** A counter-typed value read through @p read at report time
     *  (e.g. a level such as resident bytes, not an event count). */
    void registerGauge(const std::string &name,
                       std::function<std::uint64_t()> read);
    void registerAccumulator(const std::string &name, const Accumulator *a);
    void registerScalar(const std::string &name, const double *v);

    /** Look up a counter value by name (0 if absent). */
    std::uint64_t counterValue(const std::string &name) const;

    /** Deterministic (sorted by name) dump, one "name value" per line. */
    void report(std::ostream &os) const;

    /**
     * Walk every registered stat by value, in report() order: counters
     * to @p counter_fn, accumulators as "<name>.mean" (scalar) plus
     * "<name>.count" (counter), scalars to @p scalar_fn. Lets callers
     * (e.g. obs::MetricsRegistry) snapshot the values before the
     * registered components die.
     */
    void visit(
        const std::function<void(const std::string &, std::uint64_t)>
            &counter_fn,
        const std::function<void(const std::string &, double)> &scalar_fn)
        const;

  private:
    /** Counters and gauges, both read by value. */
    std::map<std::string, std::function<std::uint64_t()>> _counters;
    std::map<std::string, const Accumulator *> _accumulators;
    std::map<std::string, const double *> _scalars;
};

}  // namespace morpheus::sim::stats

#endif  // MORPHEUS_SIM_STATS_HH
