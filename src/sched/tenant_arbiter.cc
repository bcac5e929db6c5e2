#include "sched/tenant_arbiter.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace morpheus::sched {

TenantArbiter::TenantArbiter(const SchedConfig &config) : _config(config)
{
}

AdmitDecision
TenantArbiter::admitInstance(std::uint32_t instance, sim::Tick arrival,
                             std::uint64_t backlog_bytes)
{
    // A MINIT reusing a live instance ID would fail in the runtime
    // anyway; bouncing it here keeps the live instance's admission
    // state intact.
    if (_instanceBacklog.count(instance))
        return AdmitDecision{arrival, true};

    _closedDone.erase(_closedDone.begin(),
                      _closedDone.upper_bound(arrival));

    sim::Tick start = arrival;
    const unsigned cap = _config.maxInflightTotal;
    const auto inflight =
        _openTotal + static_cast<unsigned>(_closedDone.size());
    if (cap != 0 && inflight >= cap) {
        // Queue: the MINIT starts when enough remembered completions
        // free the slot. Open instances have unknown completion ticks,
        // so a slot held only by them means the host must retry.
        if (_openTotal >= cap)
            return AdmitDecision{arrival, true};
        // The (inflight - cap + 1)-th remembered completion brings the
        // count below the cap.
        auto it = _closedDone.begin();
        std::advance(it, inflight - cap);
        start = *it;
        ++_queued;
        _queuedDelayTicks += start - arrival;
    }

    _instanceBacklog[instance] = backlog_bytes;
    _totalBacklog += backlog_bytes;
    ++_openTotal;
    ++_admitted;
    return AdmitDecision{start, false};
}

bool
TenantArbiter::releaseInstance(std::uint32_t instance)
{
    // Clear any declared backlog the stream never submitted.
    const auto it = _instanceBacklog.find(instance);
    if (it == _instanceBacklog.end())
        return false;
    _totalBacklog -= it->second;
    _instanceBacklog.erase(it);
    return true;
}

void
TenantArbiter::onInstanceDone(std::uint32_t instance, sim::Tick done)
{
    if (!releaseInstance(instance))
        return;
    MORPHEUS_ASSERT(_openTotal > 0,
                    "instance completion without an open instance");
    --_openTotal;
    _closedDone.insert(done);
}

void
TenantArbiter::dropInstance(std::uint32_t instance)
{
    if (releaseInstance(instance) && _openTotal > 0)
        --_openTotal;
}

void
TenantArbiter::onDataArrival(std::uint32_t instance, std::uint64_t bytes)
{
    const auto it = _instanceBacklog.find(instance);
    if (it == _instanceBacklog.end())
        return;
    // Hosts may stream more than they declared; never underflow.
    const std::uint64_t served = std::min(it->second, bytes);
    it->second -= served;
    _totalBacklog -= served;
}

std::uint64_t
TenantArbiter::declaredBacklog(std::uint32_t instance) const
{
    const auto it = _instanceBacklog.find(instance);
    return it == _instanceBacklog.end() ? 0 : it->second;
}

std::uint32_t
TenantArbiter::retryAfterHintUs() const
{
    const unsigned open = std::max(1u, _openTotal);
    double ticks;
    if (_ewmaBytesPerTick > 0.0 && _totalBacklog > 0) {
        ticks = static_cast<double>(_totalBacklog) / _ewmaBytesPerTick /
                static_cast<double>(open);
    } else {
        // No service-rate observation (or nothing declared) yet: a
        // fixed small hint beats both an immediate bounce storm and an
        // arbitrarily long stall.
        ticks = 50.0 * static_cast<double>(sim::kPsPerUs);
    }
    const double us = ticks / static_cast<double>(sim::kPsPerUs);
    return static_cast<std::uint32_t>(std::clamp(us, 1.0, 65535.0));
}

void
TenantArbiter::onDataDone(std::uint64_t bytes, sim::Tick start,
                          sim::Tick done)
{
    if (done <= start || bytes == 0)
        return;
    const double rate = static_cast<double>(bytes) /
                        static_cast<double>(done - start);
    _ewmaBytesPerTick = _ewmaBytesPerTick == 0.0
                            ? rate
                            : 0.9 * _ewmaBytesPerTick + 0.1 * rate;
}

void
TenantArbiter::registerStats(sim::stats::StatSet &set,
                             const std::string &prefix) const
{
    set.registerCounter(prefix + ".instancesAdmitted", &_admitted);
    set.registerCounter(prefix + ".instancesQueued", &_queued);
    set.registerCounter(prefix + ".queuedDelayTicks",
                        &_queuedDelayTicks);
}

}  // namespace morpheus::sched
