/**
 * @file
 * Overload-aware host/device hybrid placement.
 *
 * Past embedded-core saturation the device path stops being the right
 * answer for every request: MINITs queue behind declared backlog, the
 * D-SRAM partitioner starts bouncing, and tail latency collapses. In
 * the spirit of Conduit's programmer-transparent multi-resource NDP
 * and OffloadFS's dynamic storage/host offloading decisions, the
 * HybridPlacementPolicy makes per-request placement a cost decision
 * across three executors:
 *
 *  - the embedded core (the paper's path — always preferred while the
 *    device has headroom),
 *  - the host CPU (the baseline read()+convert path, with its modeled
 *    load and queueing), and
 *  - a split of the two (the device streams+parses a prefix while the
 *    host converts the remainder concurrently).
 *
 * The decision is driven by the scheduler's live signals — the
 * arbiter's declared backlog bytes, per-core queue depth, the
 * kDsramExhausted bounce rate — against the modeled host CPU backlog.
 * A two-watermark hysteresis (spill entered at the high watermark,
 * left at the low one) keeps placement from flapping, and when *both*
 * resources are saturated a shed valve bounces the request with an
 * explicit retry-after instead of building an unbounded queue.
 *
 * The CircuitBreaker below is the per-tenant availability state
 * machine: consecutive device-path failures open it, every Nth routed
 * request while open is a half-open probe, and a probe success closes
 * it. It is consulted *before* the placement policy — a breaker-open
 * tenant is already host-routed for availability, never double-routed
 * by overload.
 *
 * Everything here is deterministic and allocation-free per decision;
 * with HybridConfig::enabled false, decide() degenerates to kDevice
 * and touches no state, keeping disabled runs bit-identical.
 */

#ifndef MORPHEUS_SCHED_HYBRID_POLICY_HH
#define MORPHEUS_SCHED_HYBRID_POLICY_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace morpheus::sched {

/** Where one request executes. */
enum class ExecPlacement : std::uint8_t {
    kDevice = 0,  ///< Embedded core (the paper's path).
    kHost,        ///< Host CPU baseline read()+convert.
    kSplit,       ///< Device parses a prefix, host the remainder.
    kShed,        ///< Bounced with retry-after: both sides saturated.
};

/** Number of ExecPlacement values (array extent). */
constexpr std::size_t kNumPlacements = 4;

/** Short stable name ("device", "host", "split", "shed"). */
const char *placementName(ExecPlacement p);

/** Bytes of an @p stream_bytes stream the device parses in a split
 *  (the prefix; the host converts the rest). */
std::uint64_t splitPrefixBytes(std::uint64_t stream_bytes);

/** Knobs of the hybrid layer (all off by default). The hysteresis
 *  exit, D-SRAM bounce hold and split shape are fixed constants of the
 *  policy (hybrid_policy.cc). */
struct HybridConfig
{
    /** Master switch; false keeps every request on the device path. */
    bool enabled = false;

    /** Route every request to the host path (the host-only comparator
     *  of an offered-load sweep; only meaningful with enabled). */
    bool forceHost = false;

    /**
     * Device-pressure high watermark: the device load score reaches
     * 1.0 when declared-but-unserved backlog (plus the queue-depth
     * equivalent) reaches this many bytes, which enters spill mode.
     */
    std::uint64_t spillEnterBytes = 256 * sim::kKiB;

    /** Host backlog (µs of queued work on the least-loaded core) at
     *  which the host load score reaches 1.0. */
    double hostHighUs = 1000.0;

    /** Multiplier on the host path's modeled conversion cycles (> 1
     *  models a slower host; the serving driver passes it as each
     *  host::hostExecute request's costScale). */
    double hostCostScale = 1.0;

    /** Enable the shed valve. */
    bool shed = false;

    /** Both load scores at or above this factor = overloaded: bounce
     *  the request instead of queueing it on either side. (Device
     *  load is admission-bounded in practice, so factors much above
     *  ~2 make the valve unreachable.) */
    double shedFactor = 2.0;

    /** Base retry-after of a shed bounce (the serving driver scales it
     *  linearly with the request's bounce count). */
    std::uint32_t shedRetryUs = 200;

    /** Shed bounces one request absorbs before it is terminally
     *  rejected (deterministic shedding instead of an unbounded retry
     *  loop). */
    unsigned shedMaxBounces = 8;
};

/** Live load signals one decision reads. */
struct HybridSignals
{
    /** Declared-but-unserved stream bytes on the target device
     *  (TenantArbiter::totalDeclaredBacklog). */
    std::uint64_t backlogBytes = 0;
    /** Resident instances across the target device's cores. */
    unsigned queueDepth = 0;
    /** Cumulative kDsramExhausted bounce count on the device (the
     *  policy reacts to increments). */
    std::uint64_t dsramBounces = 0;
    /** Queued work on the least-loaded host core, in microseconds. */
    double hostBacklogUs = 0.0;
    /** This request's stream length. */
    std::uint64_t requestBytes = 0;
};

/** One placement verdict. */
struct PlacementDecision
{
    ExecPlacement placement = ExecPlacement::kDevice;
    /** Retry-after hint of a kShed bounce, microseconds. */
    std::uint32_t retryAfterUs = 0;
    /** The load scores behind the verdict (1.0 = watermark). */
    double deviceLoad = 0.0;
    double hostLoad = 0.0;
};

/**
 * Per-device placement policy. Stateful (hysteresis + bounce-rate
 * tracking), so fleet drivers keep one per SSD.
 */
class HybridPlacementPolicy
{
  public:
    explicit HybridPlacementPolicy(const HybridConfig &config);

    /** Place one request given the signals at @p now. */
    PlacementDecision decide(const HybridSignals &sig, sim::Tick now);

    /** Currently past the high watermark (spill mode). */
    bool spilling() const { return _spill; }

    /** Spill-mode transitions (both directions). */
    std::uint64_t flips() const { return _flips; }

    /** Decisions handed out per placement. */
    std::uint64_t
    decisions(ExecPlacement p) const
    {
        return _decisions[static_cast<std::size_t>(p)];
    }

    const HybridConfig &config() const { return _config; }

  private:
    const HybridConfig _config;
    bool _spill = false;
    std::uint64_t _flips = 0;
    std::uint64_t _lastDsramBounces = 0;
    sim::Tick _bounceHotUntil = 0;
    std::array<std::uint64_t, kNumPlacements> _decisions{};
};

/**
 * Per-tenant circuit breaker over the device path: route() answers
 * where the tenant's next request goes, onDeviceSuccess()/
 * onDeviceFailure() feed terminal device-path outcomes back.
 */
class CircuitBreaker
{
  public:
    CircuitBreaker() = default;
    /** @p threshold consecutive failures open the breaker (0 disables
     *  opening); while open every @p probe_every -th routed request is
     *  a half-open probe (0 = never probe). */
    CircuitBreaker(unsigned threshold, unsigned probe_every)
        : _threshold(threshold), _probeEvery(probe_every)
    {
    }

    enum class Route : std::uint8_t {
        kDevice,  ///< Closed: the device path.
        kHost,    ///< Open: the host path.
        kProbe,   ///< Open, but this request tests the device.
    };

    /** Route the tenant's next request (counts it while open). */
    Route
    route()
    {
        if (!_open)
            return Route::kDevice;
        ++_sinceOpen;
        const bool probe =
            _probeEvery > 0 && _sinceOpen % _probeEvery == 0;
        return probe ? Route::kProbe : Route::kHost;
    }

    /** A device-path request (probe or not) completed successfully.
     *  @return true when this success closed an open breaker. */
    bool
    onDeviceSuccess()
    {
        const bool closed = _open;
        _open = false;
        _consecutive = 0;
        return closed;
    }

    /** A device-path request failed terminally. @return true when this
     *  failure tripped the breaker open (a failed probe leaves it
     *  open without re-transitioning). */
    bool
    onDeviceFailure()
    {
        ++_consecutive;
        if (_threshold > 0 && !_open &&
            _consecutive >= _threshold) {
            _open = true;
            _sinceOpen = 0;
            return true;
        }
        return false;
    }

    bool open() const { return _open; }

  private:
    unsigned _threshold = 3;
    unsigned _probeEvery = 8;
    unsigned _consecutive = 0;
    bool _open = false;
    std::uint64_t _sinceOpen = 0;
};

}  // namespace morpheus::sched

#endif  // MORPHEUS_SCHED_HYBRID_POLICY_HH
