#include "sched/hybrid_policy.hh"

#include <algorithm>

namespace morpheus::sched {

namespace {

/** Low watermark as a fraction of the high one: spill mode is left
 *  when the device load score falls below it (hysteresis). */
constexpr double kSpillExitFraction = 0.5;

/** Bytes one resident instance counts for in the device load score,
 *  so queue depth matters even for undeclared streams. */
constexpr std::uint64_t kResidentBytes = 16 * sim::kKiB;

/** How long a fresh kDsramExhausted bounce pins the device load score
 *  at (at least) the high watermark: scratchpad pressure is saturation
 *  even when the byte backlog looks shallow. */
constexpr sim::Tick kDsramBounceHold = 200 * sim::kPsPerUs;

/** Split only when the busier side's load is within this factor of
 *  the other's: splitting a request across a 10x-lopsided pair just
 *  straggles on the loaded half. */
constexpr double kSplitBalance = 4.0;

/** Smallest stream worth splitting. */
constexpr std::uint64_t kSplitMinBytes = 16 * sim::kKiB;

/** Fraction of the stream the device parses in a split. */
constexpr double kSplitDeviceShare = 0.5;

}  // namespace

std::uint64_t
splitPrefixBytes(std::uint64_t stream_bytes)
{
    return static_cast<std::uint64_t>(static_cast<double>(stream_bytes) *
                                      kSplitDeviceShare);
}

const char *
placementName(ExecPlacement p)
{
    switch (p) {
      case ExecPlacement::kDevice:
        return "device";
      case ExecPlacement::kHost:
        return "host";
      case ExecPlacement::kSplit:
        return "split";
      case ExecPlacement::kShed:
        return "shed";
    }
    return "?";
}

HybridPlacementPolicy::HybridPlacementPolicy(const HybridConfig &config)
    : _config(config)
{
}

PlacementDecision
HybridPlacementPolicy::decide(const HybridSignals &sig, sim::Tick now)
{
    PlacementDecision d;
    if (!_config.enabled) {
        // Disabled: no state is touched, so a disabled policy never
        // perturbs anything a caller might compare bit-for-bit.
        return d;
    }
    if (_config.forceHost) {
        d.placement = ExecPlacement::kHost;
        ++_decisions[static_cast<std::size_t>(d.placement)];
        return d;
    }

    // Device pressure: declared backlog plus a per-resident equivalent
    // (so undeclared streams still count), normalized so 1.0 is the
    // spill watermark. A fresh D-SRAM bounce pins the score at the
    // watermark for a hold window — scratchpad exhaustion is
    // saturation regardless of how the byte backlog looks.
    const double denom = static_cast<double>(
        std::max<std::uint64_t>(1, _config.spillEnterBytes));
    double device_load =
        (static_cast<double>(sig.backlogBytes) +
         static_cast<double>(sig.queueDepth) *
             static_cast<double>(kResidentBytes)) /
        denom;
    if (sig.dsramBounces > _lastDsramBounces) {
        _lastDsramBounces = sig.dsramBounces;
        _bounceHotUntil = now + kDsramBounceHold;
    }
    if (now < _bounceHotUntil)
        device_load = std::max(device_load, 1.0);

    const double host_load =
        sig.hostBacklogUs / std::max(1e-9, _config.hostHighUs);
    d.deviceLoad = device_load;
    d.hostLoad = host_load;

    // Two-watermark hysteresis: spill entered at 1.0, left below the
    // exit fraction, so placement does not flap around the threshold.
    if (!_spill && device_load >= 1.0) {
        _spill = true;
        ++_flips;
    } else if (_spill && device_load < kSpillExitFraction) {
        _spill = false;
        ++_flips;
    }

    if (!_spill) {
        d.placement = ExecPlacement::kDevice;
    } else if (_config.shed && device_load >= _config.shedFactor &&
               host_load >= _config.shedFactor) {
        // Both sides saturated: bounce with an explicit retry-after
        // instead of queueing on either.
        d.placement = ExecPlacement::kShed;
        d.retryAfterUs = _config.shedRetryUs;
    } else if (sig.requestBytes >= kSplitMinBytes &&
               std::max(device_load, host_load) <=
                   kSplitBalance *
                       std::max(1e-9,
                                std::min(device_load, host_load))) {
        // Comparable pressure on both sides: run them concurrently on
        // one request instead of picking the (barely) lighter one.
        d.placement = ExecPlacement::kSplit;
    } else {
        d.placement = host_load < device_load ? ExecPlacement::kHost
                                              : ExecPlacement::kDevice;
    }
    ++_decisions[static_cast<std::size_t>(d.placement)];
    return d;
}

}  // namespace morpheus::sched
