#include "sim/stats.hh"

#include <utility>

#include "sim/logging.hh"

namespace morpheus::sim::stats {

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

std::uint64_t
StatSet::counterValue(const std::string &name) const
{
    const auto it = _counters.find(name);
    return it == _counters.end() ? 0 : it->second();
}

void
StatSet::visit(
    const std::function<void(const std::string &, std::uint64_t)> &fn)
    const
{
    for (const auto &[name, read] : _counters)
        fn(name, read());
}

}  // namespace morpheus::sim::stats
