#include "sched/core_dispatcher.hh"

#include <algorithm>
#include <limits>
#include <tuple>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace morpheus::sched {

CoreDispatcher::CoreDispatcher(const SchedConfig &config,
                               unsigned num_cores, LoadProbe probe,
                               DsramProbe dsram_probe,
                               std::string track_prefix)
    : _config(config), _numCores(num_cores), _probe(std::move(probe)),
      _dsramProbe(std::move(dsram_probe)),
      _trackPrefix(std::move(track_prefix)), _residents(num_cores, 0)
{
    MORPHEUS_ASSERT(num_cores > 0, "dispatcher needs at least one core");
}

sim::Tick
CoreDispatcher::backlog(unsigned core, sim::Tick now) const
{
    const sim::Tick free_at = _probe(core);
    return free_at > now ? free_at - now : 0;
}

bool
CoreDispatcher::fitsDsram(unsigned core, std::uint32_t dsram_needed) const
{
    return dsram_needed == 0 || !_dsramProbe ||
           _dsramProbe(core) >= dsram_needed;
}

unsigned
CoreDispatcher::leastLoadedCore(sim::Tick now,
                                std::uint32_t dsram_needed) const
{
    // A core without room for the instance's D-SRAM grant would bounce
    // the MINIT, so fit leads. Resident-instance count follows: a host
    // session only keeps about one MREAD batch reserved on its core's
    // timeline at a time, so between batches a core hosting a huge
    // in-flight stream reports a near-zero backlog. The instantaneous
    // timeline backlog only breaks ties.
    unsigned best = 0;
    auto best_key = std::make_tuple(
        true, std::numeric_limits<unsigned>::max(),
        std::numeric_limits<sim::Tick>::max(), 0u);
    for (unsigned c = 0; c < _numCores; ++c) {
        const auto key = std::make_tuple(!fitsDsram(c, dsram_needed),
                                         _residents[c], backlog(c, now),
                                         c);
        if (key < best_key) {
            best_key = key;
            best = c;
        }
    }
    return best;
}

unsigned
CoreDispatcher::placeInstance(std::uint32_t instance, sim::Tick now,
                              std::uint32_t dsram_needed)
{
    // A live instance keeps its placement (all packets with one
    // instance ID go to one core until it deinits).
    const auto it = _coreOf.find(instance);
    if (it != _coreOf.end())
        return it->second;
    const unsigned core = _config.placement == PlacementPolicy::kStatic
                              ? instance % _numCores
                              : leastLoadedCore(now, dsram_needed);
    _coreOf[instance] = core;
    ++_residents[core];
    ++_placements;
    // Dispatcher decisions are point events on one shared track.
    obs::traceInstant({_trackPrefix, "sched.dispatcher"}, "place", "sched",
                      now, {.instance = instance, .core = core});
    return core;
}

void
CoreDispatcher::releaseInstance(std::uint32_t instance)
{
    const auto it = _coreOf.find(instance);
    if (it == _coreOf.end())
        return;
    MORPHEUS_ASSERT(_residents[it->second] > 0,
                    "resident count underflow");
    --_residents[it->second];
    _coreOf.erase(it);
}

unsigned
CoreDispatcher::coreOf(std::uint32_t instance) const
{
    const auto it = _coreOf.find(instance);
    MORPHEUS_ASSERT(it != _coreOf.end(),
                    "coreOf() on an unplaced instance");
    return it->second;
}

void
CoreDispatcher::registerStats(sim::stats::StatSet &set,
                              const std::string &prefix) const
{
    set.registerCounter(prefix + ".placements", &_placements);
}

}  // namespace morpheus::sched
