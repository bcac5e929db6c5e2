#include "sim/stats.hh"

#include <cmath>
#include <utility>

#include "sim/logging.hh"

namespace morpheus::sim::stats {

Histogram::Histogram(double lo, double hi, unsigned buckets)
    : _lo(lo), _width((hi - lo) / buckets), _counts(buckets, 0)
{
    MORPHEUS_ASSERT(hi > lo, "histogram range is empty");
    MORPHEUS_ASSERT(buckets > 0, "histogram needs at least one bucket");
}

void
Histogram::sample(double v)
{
    _acc.sample(v);
    if (v < _lo) {
        ++_underflow;
        return;
    }
    const auto idx = static_cast<std::size_t>((v - _lo) / _width);
    if (idx >= _counts.size()) {
        ++_overflow;
        return;
    }
    ++_counts[idx];
}

double
Histogram::quantile(double q) const
{
    MORPHEUS_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    const std::uint64_t total = samples();
    if (total == 0)
        return 0.0;
    if (q == 0.0)
        return _acc.min();
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(total))));
    std::uint64_t seen = _underflow;
    if (seen >= target) {
        // The quantile falls among the samples below _lo; the exact
        // smallest sample bounds them all.
        return _acc.min();
    }
    for (std::size_t i = 0; i < _counts.size(); ++i) {
        const std::uint64_t in_bucket = _counts[i];
        if (seen + in_bucket >= target) {
            // Rank interpolation inside the landing bucket: the k-th of
            // its n samples sits k/n of the way through the bucket
            // (k = target - seen in [1, n]), instead of every rank
            // collapsing onto the midpoint. The exact observed extremes
            // clamp the estimate so a quantile can never leave the
            // sampled range.
            const double frac =
                static_cast<double>(target - seen) /
                static_cast<double>(in_bucket);
            const double v =
                _lo + (static_cast<double>(i) + frac) * _width;
            return std::min(std::max(v, _acc.min()), _acc.max());
        }
        seen += in_bucket;
    }
    // The quantile falls among the overflow samples above the last
    // bucket; the exact largest sample bounds them all.
    return _acc.max();
}

void
Histogram::reset()
{
    std::fill(_counts.begin(), _counts.end(), 0);
    _underflow = 0;
    _overflow = 0;
    _acc.reset();
}

void
StatSet::registerCounter(const std::string &name, const Counter *c)
{
    MORPHEUS_ASSERT(c != nullptr, "null counter: ", name);
    registerGauge(name, [c] { return c->value(); });
}

void
StatSet::registerGauge(const std::string &name,
                       std::function<std::uint64_t()> read)
{
    const bool inserted = _counters.emplace(name, std::move(read)).second;
    MORPHEUS_ASSERT(inserted, "duplicate counter name: ", name);
}

void
StatSet::registerAccumulator(const std::string &name, const Accumulator *a)
{
    MORPHEUS_ASSERT(a != nullptr, "null accumulator: ", name);
    const bool inserted = _accumulators.emplace(name, a).second;
    MORPHEUS_ASSERT(inserted, "duplicate accumulator name: ", name);
}

void
StatSet::registerScalar(const std::string &name, const double *v)
{
    MORPHEUS_ASSERT(v != nullptr, "null scalar: ", name);
    const bool inserted = _scalars.emplace(name, v).second;
    MORPHEUS_ASSERT(inserted, "duplicate scalar name: ", name);
}

std::uint64_t
StatSet::counterValue(const std::string &name) const
{
    const auto it = _counters.find(name);
    return it == _counters.end() ? 0 : it->second();
}

void
StatSet::report(std::ostream &os) const
{
    for (const auto &[name, read] : _counters)
        os << name << " " << read() << "\n";
    for (const auto &[name, a] : _accumulators) {
        os << name << ".mean " << a->mean() << "\n";
        os << name << ".count " << a->count() << "\n";
    }
    for (const auto &[name, v] : _scalars)
        os << name << " " << *v << "\n";
}

void
StatSet::visit(
    const std::function<void(const std::string &, std::uint64_t)>
        &counter_fn,
    const std::function<void(const std::string &, double)> &scalar_fn) const
{
    for (const auto &[name, read] : _counters)
        counter_fn(name, read());
    for (const auto &[name, a] : _accumulators) {
        scalar_fn(name + ".mean", a->mean());
        counter_fn(name + ".count", a->count());
    }
    for (const auto &[name, v] : _scalars)
        scalar_fn(name, *v);
}

}  // namespace morpheus::sim::stats
