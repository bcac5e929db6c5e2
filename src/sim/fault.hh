/**
 * @file
 * Seeded, deterministic fault injection.
 *
 * A FaultPlan names per-event-class Bernoulli rates (uncorrectable
 * flash page reads, transient DMA transfer faults, StorageApp crashes
 * and hangs, dropped CQEs); a FaultInjector draws from one independent
 * Rng stream per class so changing one rate never perturbs another
 * class's schedule. Components consult the process-global injector
 * through sim::faultInjector() with a single null check — when no
 * injector is installed (the default) zero RNG draws happen and the
 * simulation is bit-identical to a build without this file.
 */

#ifndef MORPHEUS_SIM_FAULT_HH
#define MORPHEUS_SIM_FAULT_HH

#include <cstdint>
#include <string>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace morpheus::sim {

/**
 * The fault schedule's parameters. All rates default to zero, so a
 * default-constructed plan is inactive; the plan is fully determined
 * by (rates, seed), making every injected fault schedule reproducible.
 */
struct FaultPlan
{
    double mediaRate = 0.0;  ///< P(uncorrectable read) per flash page.
    double dmaRate = 0.0;    ///< P(transient fault) per data DMA move.
    double crashRate = 0.0;  ///< P(StorageApp crash) per processed chunk.
    double hangRate = 0.0;   ///< P(StorageApp hang) per processed chunk.
    double dropRate = 0.0;   ///< P(CQE dropped) per completion post.

    /** DMA moves below this size never fault: doorbells, SQEs and CQEs
     *  ride control paths whose loss the protocol layer models
     *  separately (dropped CQEs). 512 B exempts all of them while
     *  exposing every payload transfer. */
    std::uint64_t dmaMinBytes = 512;

    /** Simulated time a hung StorageApp seizes its core before the
     *  controller watchdog kills the instance (also the watchdog
     *  deadline). Default 200 us. */
    Tick watchdogTicks = 200'000'000;

    std::uint64_t seed = 1;  ///< Base seed for the per-class streams.

    /** True when any fault class can fire. */
    bool
    active() const
    {
        return mediaRate > 0.0 || dmaRate > 0.0 || crashRate > 0.0 ||
               hangRate > 0.0 || dropRate > 0.0;
    }

    /**
     * Parse a "key=value,key=value" spec, e.g.
     * "media=2e-3,dma=1e-3,crash=5e-4,hang=1e-4,drop=1e-3,seed=7".
     * Keys: media, dma, crash, hang, drop (finite rates in [0,1]);
     * dma_min (bytes), watchdog_us, seed (unsigned integers). Each
     * value must be one number, consumed whole. @return false with a
     * message in @p error on a malformed spec (@p out untouched).
     */
    static bool tryParse(const std::string &spec, FaultPlan *out,
                         std::string *error);

    /** The tryParse() spec of this plan: the keys whose values differ
     *  from a default plan's, in the order above ("" for the default
     *  plan). watchdog_us is in whole microseconds. */
    std::string spec() const;
};

/**
 * Draws fault decisions per the plan and counts what it injected.
 * Each fault class consumes its own Rng stream (seeded seed ^ salt),
 * so the media-error schedule at a given seed is invariant under
 * turning DMA faults on or off, and vice versa.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    const FaultPlan &plan() const { return _plan; }

    /** Draw: does this flash page read come back uncorrectable? */
    bool mediaError();

    /** Draw: does this @p bytes-sized DMA move fault in flight?
     *  Always false below plan().dmaMinBytes (no draw consumed). */
    bool dmaFault(std::uint64_t bytes);

    /** Draw: does the StorageApp crash processing this chunk? */
    bool appCrash();

    /** Draw: does the StorageApp hang processing this chunk? */
    bool appHang();

    /** Draw: is this completion entry dropped before reaching the CQ? */
    bool dropCqe();

    /** Record a recovery event (not a draw): a device-side retry of a
     *  faulted outbound DMA segment. */
    void noteDmaRetry() { ++_dmaRetries; }

    /** Record a watchdog kill of a hung instance (not a draw). */
    void noteWatchdogKill() { ++_watchdogKills; }

    std::uint64_t mediaErrors() const { return _mediaErrors.value(); }
    std::uint64_t dmaFaults() const { return _dmaFaults.value(); }
    std::uint64_t dmaRetries() const { return _dmaRetries.value(); }
    std::uint64_t appCrashes() const { return _appCrashes.value(); }
    std::uint64_t appHangs() const { return _appHangs.value(); }
    std::uint64_t droppedCqes() const { return _droppedCqes.value(); }
    std::uint64_t watchdogKills() const { return _watchdogKills.value(); }

  private:
    FaultPlan _plan;
    Rng _mediaRng;
    Rng _dmaRng;
    Rng _crashRng;
    Rng _hangRng;
    Rng _dropRng;
    stats::Counter _mediaErrors;
    stats::Counter _dmaFaults;
    stats::Counter _dmaRetries;
    stats::Counter _appCrashes;
    stats::Counter _appHangs;
    stats::Counter _droppedCqes;
    stats::Counter _watchdogKills;
};

/** The process-global injector, or nullptr when faults are disabled. */
FaultInjector *faultInjector();

/** Install @p fi as the global injector (nullptr disables). Returns
 *  the previously installed injector. */
FaultInjector *setFaultInjector(FaultInjector *fi);

/** RAII: install an injector for a scope, restore the previous one. */
class ScopedFaultInjector
{
  public:
    explicit ScopedFaultInjector(FaultInjector *fi)
        : _prev(setFaultInjector(fi))
    {
    }
    ~ScopedFaultInjector() { setFaultInjector(_prev); }

    ScopedFaultInjector(const ScopedFaultInjector &) = delete;
    ScopedFaultInjector &operator=(const ScopedFaultInjector &) = delete;

  private:
    FaultInjector *_prev;
};

}  // namespace morpheus::sim

#endif  // MORPHEUS_SIM_FAULT_HH
