/**
 * @file
 * Load-aware embedded-core dispatch for StorageApp instances.
 *
 * Replaces the paper's static `instance_id % numCores` mapping with
 * shortest-queue placement: MINIT assigns the instance to the core
 * hosting the fewest live instances (ties broken by the tick the
 * core's occupancy timeline frees, then core index). Resident count
 * leads because a host session keeps only about one MREAD batch
 * reserved at a time, so timeline backlog alone under-reports the
 * remaining work of long streams. An instance stays on its core from
 * MINIT to MDEINIT.
 *
 * With D-SRAM partitioning, each instance carries a scratchpad grant:
 * placement prefers cores with room for it (a packing signal ahead of
 * resident count and backlog).
 *
 * The dispatcher reads core load through probe callbacks (the SSD
 * controller passes each core's Timeline::freeAt and free D-SRAM
 * bytes), so this library needs no dependency on the ssd layer.
 */

#ifndef MORPHEUS_SCHED_CORE_DISPATCHER_HH
#define MORPHEUS_SCHED_CORE_DISPATCHER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/sched_config.hh"
#include "sim/stats.hh"

namespace morpheus::sched {

/** Chooses and tracks the embedded core serving each instance. */
class CoreDispatcher
{
  public:
    /** Returns the tick core @p idx becomes free. */
    using LoadProbe = std::function<sim::Tick(unsigned)>;
    /** Returns core @p idx's unreserved D-SRAM bytes. */
    using DsramProbe = std::function<std::uint32_t(unsigned)>;

    /** @p track_prefix prefixes the "sched.dispatcher" trace track
     *  ("dev1.sched.dispatcher") so fleet runs keep one track per
     *  device; empty (the default) keeps the classic name. */
    CoreDispatcher(const SchedConfig &config, unsigned num_cores,
                   LoadProbe probe, DsramProbe dsram_probe = {},
                   std::string track_prefix = {});

    /**
     * Pick the core for a new instance (MINIT). @p dsram_needed is the
     * instance's scratchpad grant (0 = unpartitioned): cores that can
     * hold it are preferred over cores that would bounce the MINIT.
     */
    unsigned placeInstance(std::uint32_t instance, sim::Tick now,
                           std::uint32_t dsram_needed = 0);

    /** The instance finished (MDEINIT or failed MINIT). */
    void releaseInstance(std::uint32_t instance);

    /** Current core of a live instance. */
    unsigned coreOf(std::uint32_t instance) const;

    /** Live instances currently assigned to @p core. */
    unsigned residents(unsigned core) const { return _residents.at(core); }

    std::uint64_t placements() const { return _placements.value(); }

    void registerStats(sim::stats::StatSet &set,
                       const std::string &prefix) const;

  private:
    /** Backlog of @p core at @p now (0 when idle). */
    sim::Tick backlog(unsigned core, sim::Tick now) const;
    /** True when @p core can hold a @p dsram_needed -byte grant. */
    bool fitsDsram(unsigned core, std::uint32_t dsram_needed) const;
    unsigned leastLoadedCore(sim::Tick now,
                             std::uint32_t dsram_needed) const;

    const SchedConfig _config;
    const unsigned _numCores;
    LoadProbe _probe;
    DsramProbe _dsramProbe;
    const std::string _trackPrefix;

    std::unordered_map<std::uint32_t, unsigned> _coreOf;
    std::vector<unsigned> _residents;

    sim::stats::Counter _placements;
};

}  // namespace morpheus::sched

#endif  // MORPHEUS_SCHED_CORE_DISPATCHER_HH
