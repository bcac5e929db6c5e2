/**
 * @file
 * Unit tests for the multi-tenant scheduler (sched/) plus end-to-end
 * serving-driver properties: determinism across identical seeded runs
 * and starvation freedom under skewed load.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "sched/core_dispatcher.hh"
#include "sched/tenant_arbiter.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

constexpr sim::Tick kUs = sim::kPsPerUs;

sched::SchedConfig
loadAwareConfig()
{
    sched::SchedConfig cfg;
    cfg.placement = sched::PlacementPolicy::kLoadAware;
    return cfg;
}

}  // namespace

// ---------------------------------------------------------- dispatcher

TEST(CoreDispatcher, StaticPlacementIsModulo)
{
    sched::SchedConfig cfg;  // defaults: kStatic
    sched::CoreDispatcher d(cfg, 4, [](unsigned) { return sim::Tick{0}; });
    EXPECT_EQ(d.placeInstance(0, 0), 0u);
    EXPECT_EQ(d.placeInstance(5, 0), 1u);
    EXPECT_EQ(d.placeInstance(11, 0), 3u);
}

TEST(CoreDispatcher, PlacementIsStableForLiveInstance)
{
    sched::CoreDispatcher d(loadAwareConfig(), 4,
                            [](unsigned) { return sim::Tick{0}; });
    const unsigned core = d.placeInstance(7, 0);
    EXPECT_EQ(d.placeInstance(7, 1000), core);
    EXPECT_EQ(d.residents(core), 1u);  // not double-counted
    EXPECT_EQ(d.placements(), 1u);
}

TEST(CoreDispatcher, LoadAwareSpreadsByResidency)
{
    // All cores report an idle timeline; placement must still spread
    // instances instead of herding onto core 0.
    sched::CoreDispatcher d(loadAwareConfig(), 4,
                            [](unsigned) { return sim::Tick{0}; });
    std::vector<unsigned> residents(4, 0);
    for (std::uint32_t i = 0; i < 8; ++i)
        ++residents[d.placeInstance(i, 0)];
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(residents[c], 2u) << "core " << c;
}

TEST(CoreDispatcher, LoadAwareBreaksTiesByBacklog)
{
    // Equal residency; core 2's timeline is free soonest.
    const std::vector<sim::Tick> free_at = {30 * kUs, 20 * kUs, 5 * kUs,
                                            40 * kUs};
    sched::CoreDispatcher d(loadAwareConfig(), 4,
                            [&](unsigned c) { return free_at[c]; });
    EXPECT_EQ(d.placeInstance(0, 0), 2u);
}

TEST(CoreDispatcher, ReleaseFreesTheSlot)
{
    sched::CoreDispatcher d(loadAwareConfig(), 2,
                            [](unsigned) { return sim::Tick{0}; });
    const unsigned core = d.placeInstance(1, 0);
    d.releaseInstance(1);
    EXPECT_EQ(d.residents(core), 0u);
    d.releaseInstance(99);  // unknown instance: no-op
}

TEST(CoreDispatcher, DsramPackingPrefersCoresWithRoom)
{
    // Core 0 is nearly out of D-SRAM: an instance carrying a grant
    // must land on core 1 even though index order favors core 0.
    sched::CoreDispatcher d(
        loadAwareConfig(), 2, [](unsigned) { return sim::Tick{0}; },
        [](unsigned c) { return c == 0 ? 1024u : 256u * 1024u; });
    EXPECT_EQ(d.placeInstance(0, 0, 64 * 1024), 1u);
    // Without a grant the fit signal is neutral; the emptier core
    // (fewer residents) wins as before.
    EXPECT_EQ(d.placeInstance(1, 0, 0), 0u);
}

// ------------------------------------------------------------- arbiter

TEST(TenantArbiter, UnlimitedAdmissionByDefault)
{
    sched::SchedConfig cfg;  // maxInflightTotal 0 = unlimited
    sched::TenantArbiter a(cfg);
    for (std::uint32_t i = 0; i < 64; ++i) {
        const auto d = a.admitInstance(i, /*arrival=*/i);
        EXPECT_FALSE(d.retry);
        EXPECT_EQ(d.start, i);
    }
    EXPECT_EQ(a.instancesAdmitted(), 64u);
    EXPECT_EQ(a.openInstances(), 64u);
}

TEST(TenantArbiter, DeclaredBacklogDrainsWithDataCommands)
{
    sched::SchedConfig cfg;
    sched::TenantArbiter a(cfg);
    a.admitInstance(/*instance=*/7, /*arrival=*/0,
                    /*backlog_bytes=*/1 << 20);
    EXPECT_EQ(a.declaredBacklog(7), std::uint64_t{1} << 20);
    EXPECT_EQ(a.declaredBacklog(8), 0u);  // unknown instance
    a.onDataArrival(7, 256 << 10);
    EXPECT_EQ(a.declaredBacklog(7), std::uint64_t{768} << 10);
    a.onInstanceDone(7, 1000);
    EXPECT_EQ(a.declaredBacklog(7), 0u);
}

TEST(TenantArbiter, DeclaredBacklogClampsAndClearsOnEveryExit)
{
    sched::SchedConfig cfg;
    sched::TenantArbiter a(cfg);
    a.admitInstance(50, 0, /*backlog_bytes=*/1000);
    a.admitInstance(51, 0, /*backlog_bytes=*/512 << 10);
    a.admitInstance(52, 0, /*backlog_bytes=*/300);
    EXPECT_EQ(a.totalDeclaredBacklog(), 1300u + (512u << 10));

    // A host that streams more than it declared drains its own entry
    // to zero and never underflows the device total.
    a.onDataArrival(50, 400);
    a.onDataArrival(51, 10 << 20);
    a.onDataArrival(99, 4096);  // unknown instance: no-op
    EXPECT_EQ(a.declaredBacklog(50), 600u);
    EXPECT_EQ(a.declaredBacklog(51), 0u);
    EXPECT_EQ(a.totalDeclaredBacklog(), 900u);

    // The residue clears at MDEINIT even when the stream was cut
    // short, and at a dropped instance (failed MINIT, watchdog kill).
    a.onInstanceDone(50, 100);
    EXPECT_EQ(a.totalDeclaredBacklog(), 300u);
    a.dropInstance(52);
    EXPECT_EQ(a.declaredBacklog(52), 0u);
    EXPECT_EQ(a.totalDeclaredBacklog(), 0u);
    EXPECT_EQ(a.openInstances(), 1u);
    a.onInstanceDone(51, 200);
    EXPECT_EQ(a.openInstances(), 0u);
}

TEST(TenantArbiter, QueuePolicyDelaysBehindClosedInstances)
{
    sched::SchedConfig cfg;
    cfg.maxInflightTotal = 2;
    sched::TenantArbiter a(cfg);
    ASSERT_FALSE(a.admitInstance(20, 0).retry);
    ASSERT_FALSE(a.admitInstance(21, 0).retry);
    a.onInstanceDone(20, 700);
    a.onInstanceDone(21, 900);

    // Both slots are held by *closed* instances whose completion ticks
    // are known: the third MINIT is queued to the earliest free tick.
    const auto d = a.admitInstance(22, 100);
    EXPECT_FALSE(d.retry);
    EXPECT_EQ(d.start, 700u);
    EXPECT_EQ(a.instancesQueued(), 1u);

    // A fourth arrival needs the second remembered completion too.
    const auto d2 = a.admitInstance(23, 200);
    EXPECT_FALSE(d2.retry);
    EXPECT_EQ(d2.start, 900u);
    EXPECT_EQ(a.instancesQueued(), 2u);
}

TEST(TenantArbiter, QueuePolicyBouncesBehindOpenInstances)
{
    sched::SchedConfig cfg;
    cfg.maxInflightTotal = 1;
    sched::TenantArbiter a(cfg);
    ASSERT_FALSE(a.admitInstance(30, 0).retry);
    // The slot is held by an open instance (completion unknown): the
    // arbiter cannot pick a start tick, so the host must retry.
    const auto d = a.admitInstance(31, 50, /*backlog_bytes=*/4096);
    EXPECT_TRUE(d.retry);
    EXPECT_EQ(a.openInstances(), 1u);
    EXPECT_EQ(a.totalDeclaredBacklog(), 0u);  // nothing registered
    a.onInstanceDone(30, 500);
    EXPECT_FALSE(a.admitInstance(31, 600).retry);
}

TEST(TenantArbiter, DuplicateLiveInstanceBounces)
{
    sched::SchedConfig cfg;
    sched::TenantArbiter a(cfg);
    ASSERT_FALSE(a.admitInstance(40, 0, /*backlog_bytes=*/100).retry);
    EXPECT_TRUE(a.admitInstance(40, 10, /*backlog_bytes=*/999).retry);
    // The live registration is untouched.
    EXPECT_EQ(a.declaredBacklog(40), 100u);
    EXPECT_EQ(a.openInstances(), 1u);
}

// ----------------------------------------------- end-to-end properties

namespace {

wk::ServingOptions
skewedServing(sched::PlacementPolicy placement)
{
    wk::ServingOptions opts;
    opts.durationSec = 0.01;
    opts.seed = 7;
    const double rates[] = {16000.0, 2000.0, 1000.0};
    for (std::uint32_t t = 0; t < 3; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        spec.arrivalsPerSec = rates[t];
        opts.tenants.push_back(spec);
    }
    opts.sys.ssd.sched.placement = placement;
    opts.sys.ssd.sched.maxInflightTotal = 12;
    // Partition each core's scratchpad between co-residents so the
    // end-to-end runs also exercise grants, bounces, and retries.
    opts.sys.ssd.sched.dsramPartitioning = true;
    return opts;
}

}  // namespace

TEST(Serving, IdenticalSeededRunsAreDeterministic)
{
    const auto opts = skewedServing(sched::PlacementPolicy::kLoadAware);
    const wk::ServingReport a = wk::runServing(opts);
    const wk::ServingReport b = wk::runServing(opts);

    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.p99Us, b.p99Us);
    EXPECT_DOUBLE_EQ(a.jainFairness, b.jainFairness);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].completed, b.tenants[i].completed);
        EXPECT_EQ(a.tenants[i].servedBytes, b.tenants[i].servedBytes);
        EXPECT_DOUBLE_EQ(a.tenants[i].p99Us, b.tenants[i].p99Us);
    }
}

TEST(Serving, NoTenantStarvesUnderSkewedLoad)
{
    const wk::ServingReport r = wk::runServing(
        skewedServing(sched::PlacementPolicy::kLoadAware));

    ASSERT_EQ(r.tenants.size(), 3u);
    EXPECT_GT(r.completed, 0u);
    for (const auto &t : r.tenants) {
        // Every tenant finishes everything it submitted (open loop:
        // queueing shows up as latency, not loss) and makes progress.
        EXPECT_GT(t.submitted, 0u) << "tenant " << t.id;
        EXPECT_EQ(t.completed + t.rejected, t.submitted)
            << "tenant " << t.id;
        EXPECT_GT(t.completed, 0u) << "tenant " << t.id;
        EXPECT_GT(t.servedBytes, 0u) << "tenant " << t.id;
    }
    // The 16:2:1 demand skew must not collapse served bytes
    // entirely: Jain stays above the single-tenant-hogging
    // floor of 1/n ~= 0.33.
    EXPECT_GT(r.jainFairness, 0.4);
}

TEST(Serving, DefaultPostureBouncesOnFullIsram)
{
    // The CLI's default serve posture at 40k req/s: static placement
    // and no admission cap stack more resident int-array images on one
    // core than its I-SRAM holds. Those MINITs must bounce and retry,
    // not fail the run.
    wk::ServingOptions opts;
    opts.durationSec = 0.01;
    opts.seed = 42;
    for (std::uint32_t t = 0; t < 3; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        spec.arrivalsPerSec = 40000.0 / 3.0;
        opts.tenants.push_back(spec);
    }
    const wk::ServingReport r = wk::runServing(opts);
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.lost, 0u);
    EXPECT_EQ(r.submitted, r.completed + r.rejected + r.lost);
    std::uint64_t retries = 0;
    for (const wk::TenantReport &t : r.tenants)
        retries += t.retries;
    EXPECT_GT(retries, 0u);  // the I-SRAM bounces did happen
}

TEST(Serving, StaticPlacementStillWorksEndToEnd)
{
    const wk::ServingReport r = wk::runServing(
        skewedServing(sched::PlacementPolicy::kStatic));
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
}

TEST(Serving, ClosedLoopCompletesTheQuotaDeterministically)
{
    wk::ServingOptions opts =
        skewedServing(sched::PlacementPolicy::kLoadAware);
    opts.closedLoop = true;
    opts.closedLoopConcurrency = 3;
    opts.closedLoopRequests = 24;

    const wk::ServingReport a = wk::runServing(opts);
    // Every tenant issues exactly its quota — the closed loop ignores
    // durationSec and arrival rates — and self-throttling means no
    // request is ever lost.
    EXPECT_EQ(a.submitted, 3u * 24u);
    EXPECT_EQ(a.completed + a.rejected, a.submitted);
    EXPECT_EQ(a.lost, 0u);
    EXPECT_GT(a.throughputPerSec, 0.0);
    for (const auto &t : a.tenants)
        EXPECT_EQ(t.submitted, 24u) << "tenant " << t.id;

    const wk::ServingReport b = wk::runServing(opts);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.p99Us, b.p99Us);
}

TEST(Serving, ClosedLoopConcurrencyTradesThroughputForLatency)
{
    // The defining closed-loop property: more in-flight requests per
    // tenant raises throughput (until saturation) and mean latency.
    wk::ServingOptions opts =
        skewedServing(sched::PlacementPolicy::kLoadAware);
    opts.closedLoop = true;
    opts.closedLoopRequests = 24;

    opts.closedLoopConcurrency = 1;
    const wk::ServingReport lo = wk::runServing(opts);
    opts.closedLoopConcurrency = 4;
    const wk::ServingReport hi = wk::runServing(opts);

    EXPECT_GT(hi.throughputPerSec, lo.throughputPerSec);
    EXPECT_GE(hi.meanUs, lo.meanUs);
}

// ------------------------------------------------------ circuit breaker

TEST(CircuitBreaker, OpensAfterThresholdConsecutiveFailures)
{
    sched::CircuitBreaker br(3, 8);
    EXPECT_FALSE(br.onDeviceFailure());
    EXPECT_FALSE(br.onDeviceFailure());
    EXPECT_FALSE(br.open());
    EXPECT_TRUE(br.onDeviceFailure());  // third: trips
    EXPECT_TRUE(br.open());
    // Already open: further failures never re-report the transition.
    EXPECT_FALSE(br.onDeviceFailure());
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount)
{
    sched::CircuitBreaker br(3, 8);
    br.onDeviceFailure();
    br.onDeviceFailure();
    EXPECT_FALSE(br.onDeviceSuccess());  // nothing to close
    br.onDeviceFailure();
    br.onDeviceFailure();
    EXPECT_FALSE(br.open());  // the streak restarted at the success
}

TEST(CircuitBreaker, ProbesEveryNthRoutedRequestWhileOpen)
{
    sched::CircuitBreaker br(1, 4);
    br.onDeviceFailure();
    ASSERT_TRUE(br.open());
    // Requests 1-3 host-route; every 4th is a half-open probe.
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(br.route(), sched::CircuitBreaker::Route::kHost);
        EXPECT_EQ(br.route(), sched::CircuitBreaker::Route::kHost);
        EXPECT_EQ(br.route(), sched::CircuitBreaker::Route::kHost);
        EXPECT_EQ(br.route(), sched::CircuitBreaker::Route::kProbe);
    }
}

TEST(CircuitBreaker, ProbeSuccessReclosesProbeFailureDoesNot)
{
    sched::CircuitBreaker br(1, 2);
    br.onDeviceFailure();
    br.route();  // host
    ASSERT_EQ(br.route(), sched::CircuitBreaker::Route::kProbe);
    // Failed probe: stays open (no new transition), keeps probing.
    EXPECT_FALSE(br.onDeviceFailure());
    EXPECT_TRUE(br.open());
    br.route();
    ASSERT_EQ(br.route(), sched::CircuitBreaker::Route::kProbe);
    // Successful probe: closes, and routing returns to the device.
    EXPECT_TRUE(br.onDeviceSuccess());
    EXPECT_FALSE(br.open());
    EXPECT_EQ(br.route(), sched::CircuitBreaker::Route::kDevice);
}

TEST(CircuitBreaker, ZeroThresholdNeverOpens)
{
    sched::CircuitBreaker br(0, 8);
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(br.onDeviceFailure());
    EXPECT_FALSE(br.open());
    EXPECT_EQ(br.route(), sched::CircuitBreaker::Route::kDevice);
}

// ------------------------------------------------------- hybrid policy

namespace {

sched::HybridConfig
hybridOn()
{
    sched::HybridConfig h;
    h.enabled = true;
    return h;
}

sched::HybridSignals
signals(std::uint64_t backlog, double host_us,
        std::uint64_t bytes = 64 * sim::kKiB)
{
    sched::HybridSignals sig;
    sig.backlogBytes = backlog;
    sig.hostBacklogUs = host_us;
    sig.requestBytes = bytes;
    return sig;
}

}  // namespace

TEST(HybridPolicy, DisabledIsInertAndAlwaysDevice)
{
    sched::HybridPlacementPolicy pol(sched::HybridConfig{});
    const auto d = pol.decide(signals(1u << 30, 1e9), 0);
    EXPECT_EQ(d.placement, sched::ExecPlacement::kDevice);
    EXPECT_EQ(pol.flips(), 0u);
    for (unsigned p = 0; p < sched::kNumPlacements; ++p)
        EXPECT_EQ(pol.decisions(static_cast<sched::ExecPlacement>(p)),
                  0u);
}

TEST(HybridPolicy, ForceHostRoutesEverything)
{
    sched::HybridConfig h = hybridOn();
    h.forceHost = true;
    sched::HybridPlacementPolicy pol(h);
    EXPECT_EQ(pol.decide(signals(0, 0.0), 0).placement,
              sched::ExecPlacement::kHost);
    EXPECT_EQ(pol.decisions(sched::ExecPlacement::kHost), 1u);
}

TEST(HybridPolicy, HysteresisEntersAtHighExitsAtLowWatermark)
{
    // The host side stays idle throughout, so no load pair is balanced
    // enough to split.
    sched::HybridConfig h = hybridOn();
    sched::HybridPlacementPolicy pol(h);
    const std::uint64_t high = h.spillEnterBytes;

    // Below the high watermark: device, no spill.
    EXPECT_EQ(pol.decide(signals(high - 1, 0.0), 0).placement,
              sched::ExecPlacement::kDevice);
    EXPECT_FALSE(pol.spilling());

    // At the watermark: spill mode, host is the lighter side.
    EXPECT_EQ(pol.decide(signals(high, 0.0), 0).placement,
              sched::ExecPlacement::kHost);
    EXPECT_TRUE(pol.spilling());
    EXPECT_EQ(pol.flips(), 1u);

    // Back between the watermarks: still spilling (hysteresis).
    EXPECT_TRUE(pol.decide(signals(3 * high / 4, 0.0), 0).deviceLoad <
                1.0);
    EXPECT_TRUE(pol.spilling());
    EXPECT_EQ(pol.flips(), 1u);

    // Below the exit fraction: spill mode left.
    (void)pol.decide(signals(high / 4, 0.0), 0);
    EXPECT_FALSE(pol.spilling());
    EXPECT_EQ(pol.flips(), 2u);
}

TEST(HybridPolicy, DsramBouncePinsDeviceLoadForTheHoldWindow)
{
    sched::HybridPlacementPolicy pol(hybridOn());
    const sim::Tick hold = 200 * sim::kPsPerUs;  // the policy's hold
    sched::HybridSignals sig = signals(0, 0.0);
    sig.dsramBounces = 1;  // a fresh bounce, empty byte backlog
    EXPECT_EQ(pol.decide(sig, 0).placement,
              sched::ExecPlacement::kHost);
    EXPECT_TRUE(pol.spilling());
    // Inside the hold window the score stays pinned...
    EXPECT_GE(pol.decide(sig, hold - 1).deviceLoad, 1.0);
    // ...and past it (and no new bounce) pressure decays.
    const auto d = pol.decide(sig, hold + 1);
    EXPECT_LT(d.deviceLoad, 1.0);
    EXPECT_FALSE(pol.spilling());
}

TEST(HybridPolicy, ShedsOnlyWhenBothSidesSaturated)
{
    sched::HybridConfig h = hybridOn();
    h.shed = true;
    h.shedFactor = 2.0;
    sched::HybridPlacementPolicy pol(h);
    const std::uint64_t saturated = 4 * h.spillEnterBytes;

    // Device saturated, host idle: spill to the host, don't shed.
    EXPECT_EQ(pol.decide(signals(saturated, 0.0), 0).placement,
              sched::ExecPlacement::kHost);
    // Both past shedFactor x watermark: bounce with retry-after.
    const auto d =
        pol.decide(signals(saturated, 4.0 * h.hostHighUs), 0);
    EXPECT_EQ(d.placement, sched::ExecPlacement::kShed);
    EXPECT_EQ(d.retryAfterUs, h.shedRetryUs);
}

TEST(HybridPolicy, SplitsWhenLoadsComparableRoutesLighterOtherwise)
{
    sched::HybridConfig h = hybridOn();
    sched::HybridPlacementPolicy pol(h);
    const std::uint64_t high = h.spillEnterBytes;

    // Comparable pressure (within the 4x split balance): split, the
    // device taking the first half of the stream.
    const auto split =
        pol.decide(signals(2 * high, 2.0 * h.hostHighUs), 0);
    EXPECT_EQ(split.placement, sched::ExecPlacement::kSplit);
    EXPECT_EQ(sched::splitPrefixBytes(64 * sim::kKiB), 32 * sim::kKiB);

    // Lopsided toward the device: the host is the lighter side.
    EXPECT_EQ(pol.decide(signals(16 * high, 0.1), 0).placement,
              sched::ExecPlacement::kHost);

    // Requests under the 16 KiB split minimum never split — lighter
    // side instead.
    EXPECT_EQ(pol.decide(signals(2 * high, 1.0 * h.hostHighUs,
                                 16 * sim::kKiB - 1), 0)
                  .placement,
              sched::ExecPlacement::kHost);
    EXPECT_EQ(pol.decide(signals(2 * high, 1.0 * h.hostHighUs,
                                 16 * sim::kKiB), 0)
                  .placement,
              sched::ExecPlacement::kSplit);
}

// ------------------------------------------------- hybrid serving runs

TEST(Serving, HybridSplitEngagesAndEveryRequestResolves)
{
    wk::ServingOptions opts =
        skewedServing(sched::PlacementPolicy::kLoadAware);
    // Default knobs: the skewed mix drives the device past the spill
    // watermark, spill loads the host until the two sides are within
    // the split balance, and the large size classes clear the split
    // minimum.
    opts.hybrid.enabled = true;

    const wk::ServingReport r = wk::runServing(opts);
    EXPECT_GT(r.splitRequests, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_EQ(r.lost, 0u);
    EXPECT_GT(r.hybridDecisions[static_cast<std::size_t>(
                  sched::ExecPlacement::kSplit)],
              0u);
}

TEST(Serving, HybridRunsAreDeterministic)
{
    wk::ServingOptions opts =
        skewedServing(sched::PlacementPolicy::kLoadAware);
    opts.hybrid.enabled = true;
    opts.hybrid.shed = true;
    opts.hybrid.shedFactor = 1.0;

    const wk::ServingReport a = wk::runServing(opts);
    const wk::ServingReport b = wk::runServing(opts);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.fallbackOverload, b.fallbackOverload);
    EXPECT_EQ(a.splitRequests, b.splitRequests);
    EXPECT_EQ(a.shedBounces, b.shedBounces);
    EXPECT_EQ(a.hybridFlips, b.hybridFlips);
    EXPECT_DOUBLE_EQ(a.p99Us, b.p99Us);
}

TEST(Serving, BreakerOpenTenantIsNotDoubleRoutedByOverload)
{
    // Faults trip breakers while hybrid overload routing is active;
    // the two host-path triggers must stay disjoint: every fallback
    // carries exactly one reason, and the per-reason counters close
    // the accounting.
    wk::ServingOptions opts =
        skewedServing(sched::PlacementPolicy::kLoadAware);
    opts.hybrid.enabled = true;
    opts.hybrid.spillEnterBytes = 64 * sim::kKiB;
    opts.recovery.enabled = true;
    opts.breakerThreshold = 2;
    sim::FaultPlan plan;
    plan.mediaRate = 8e-3;
    plan.crashRate = 4e-3;
    plan.seed = 9;
    opts.faults = plan;

    const wk::ServingReport r = wk::runServing(opts);
    EXPECT_EQ(r.lost, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_GT(r.fallbacks, 0u);
    EXPECT_EQ(r.fallbacks,
              r.fallbackBreaker + r.fallbackOverload + r.fallbackProbe);
    for (const wk::TenantReport &t : r.tenants) {
        EXPECT_EQ(t.fallbacks, t.fallbackBreaker + t.fallbackOverload +
                                   t.fallbackProbe)
            << "tenant " << t.id;
    }
}

// ------------------------------------------------ bounded host memory

namespace {

/**
 * A closed loop of tiny int-array requests, @p per_tenant per tenant.
 * @return the run's host DRAM resident bytes from the registry.
 */
std::uint64_t
residentAfter(std::uint64_t per_tenant, bool hybrid,
              wk::ServingReport *report)
{
    wk::ServingOptions opts =
        skewedServing(sched::PlacementPolicy::kLoadAware);
    opts.closedLoop = true;
    opts.closedLoopConcurrency = 4;
    opts.closedLoopRequests = per_tenant;
    for (wk::TenantSpec &t : opts.tenants) {
        t.sizeClassValues = {64, 512};
        t.sizeClassProb = {0.8, 0.2};
    }
    if (hybrid) {
        // Spill from the first declared byte: the host-execution
        // engine's staging and object buffers carry much of the load.
        opts.hybrid.enabled = true;
        opts.hybrid.spillEnterBytes = 1;
    }
    obs::MetricsRegistry reg;
    opts.metrics = &reg;
    *report = wk::runServing(opts);
    return reg.counter("sys.host.mem.residentBytes");
}

void
expectClosed(const wk::ServingReport &r)
{
    EXPECT_EQ(r.submitted, r.completed + r.rejected + r.lost);
    EXPECT_EQ(r.lost, 0u);
}

}  // namespace

TEST(Serving, HostMemoryIsFlatInTheRequestCount)
{
    // Every DMA target and MINIT image buffer goes back to the host
    // allocator at its request's terminal outcome, so four times the
    // requests touch exactly the same host DRAM.
    wk::ServingReport small, large;
    const std::uint64_t n = residentAfter(64, false, &small);
    const std::uint64_t n4 = residentAfter(256, false, &large);
    EXPECT_GT(n, 0u);
    EXPECT_EQ(n4, n);
    expectClosed(small);
    expectClosed(large);
    EXPECT_EQ(large.submitted, 4 * small.submitted);
}

TEST(Serving, HybridHostMemoryIsFlatInTheRequestCount)
{
    wk::ServingReport small, large;
    const std::uint64_t n = residentAfter(64, true, &small);
    const std::uint64_t n4 = residentAfter(256, true, &large);
    EXPECT_GT(large.fallbackOverload + large.splitRequests, 0u);
    EXPECT_EQ(n4, n);
    expectClosed(small);
    expectClosed(large);
}

// ------------------------------------------------- one outcome ledger

namespace {

/** One terminal kind the ledger test drives: how to configure a run
 *  that reaches it, and the check that the run did. */
struct LedgerRow
{
    const char *name;
    void (*setup)(wk::ServingOptions &);
    bool (*engaged)(const wk::ServingReport &);
};

void
faulty(wk::ServingOptions &o)
{
    sim::FaultPlan plan;
    plan.mediaRate = 8e-3;
    plan.crashRate = 0.2;  // so often that half-open probes fail too
    plan.seed = 9;
    o.faults = plan;
    o.recovery.enabled = true;
}

const LedgerRow kLedgerRows[] = {
    {"device completion, cache hit and MWRITE",
     [](wk::ServingOptions &o) {
         o.closedLoop = true;
         o.closedLoopRequests = 48;
         o.objectsPerClass = 4;
         o.zipfSkew = 1.1;
         o.sys.ssd.cache.enabled = true;
         for (wk::TenantSpec &t : o.tenants)
             t.writeFraction = 0.2;
     },
     [](const wk::ServingReport &r) {
         return r.completed > r.fallbacks && r.cacheHits > 0 &&
                r.writes > 0;
     }},
    {"breaker and probe fallbacks",
     [](wk::ServingOptions &o) {
         faulty(o);
         o.breakerThreshold = 1;
         // Long enough for an open breaker to route a probe every
         // kBreakerProbeEvery requests and see some of them fail.
         o.durationSec = 0.03;
     },
     [](const wk::ServingReport &r) {
         return r.fallbackBreaker > 0 && r.fallbackProbe > 0;
     }},
    {"overload fallback, split and shed reject",
     [](wk::ServingOptions &o) {
         for (wk::TenantSpec &t : o.tenants)
             t.arrivalsPerSec *= 8.0;
         o.hybrid.enabled = true;
         o.hybrid.shed = true;
         o.hybrid.shedFactor = 1.0;
         o.hybrid.hostCostScale = 4.0;
     },
     [](const wk::ServingReport &r) {
         return r.fallbackOverload > 0 && r.splitRequests > 0 &&
                r.shedBounces > 0 && r.rejected > 0;
     }},
    {"lost",
     [](wk::ServingOptions &o) {
         faulty(o);
         o.breakerThreshold = 0;
     },
     [](const wk::ServingReport &r) { return r.lost > 0; }},
    {"2-SSD fleet",
     [](wk::ServingOptions &o) {
         o.sys.numSsds = 2;
         o.objectsPerClass = 4;
     },
     [](const wk::ServingReport &r) {
         return r.shards.size() == 2 && r.shards[0].requests > 0 &&
                r.shards[1].requests > 0;
     }},
};

}  // namespace

TEST(Serving, OutcomeLedgerIsTheOnlyReportingChannel)
{
    for (const LedgerRow &row : kLedgerRows) {
        SCOPED_TRACE(row.name);
        wk::ServingOptions opts =
            skewedServing(sched::PlacementPolicy::kLoadAware);
        row.setup(opts);
        obs::MetricsRegistry reg;
        opts.metrics = &reg;
        const wk::ServingReport r = wk::runServing(opts);
        EXPECT_TRUE(row.engaged(r));

        // Every ledger counter reaches the registry under its name,
        // tenant by tenant and in total, and the total is the sum.
        for (const wk::OutcomeField &f : wk::kOutcomeFields) {
            SCOPED_TRACE(f.name);
            std::uint64_t sum = 0;
            for (const wk::TenantReport &t : r.tenants) {
                sum += t.*f.member;
                const std::string key = "serving.tenant." +
                                        std::to_string(t.id) + "." +
                                        f.name;
                if (f.scopes & wk::kTenantScope) {
                    EXPECT_EQ(reg.counter(key), t.*f.member);
                }
            }
            EXPECT_EQ(r.*f.member, sum);
            if (f.scopes & (wk::kTotalScope | wk::kHybridScope)) {
                const bool federated =
                    (f.scopes & wk::kTotalScope) || opts.hybrid.enabled;
                EXPECT_EQ(reg.counter(std::string("serving.") + f.name),
                          federated ? r.*f.member : 0);
            }
        }

        // Closure: every request ends in exactly one terminal state,
        // and every fallback carries exactly one reason.
        for (const wk::OutcomeCounts &c :
             {static_cast<const wk::OutcomeCounts &>(r),
              static_cast<const wk::OutcomeCounts &>(r.tenants.front())}) {
            EXPECT_EQ(c.submitted, c.completed + c.rejected + c.lost);
            EXPECT_EQ(c.fallbacks, c.fallbackBreaker + c.fallbackOverload +
                                       c.fallbackProbe);
        }
        std::uint64_t shard_requests = 0, shard_completed = 0;
        for (const wk::ShardReport &s : r.shards) {
            shard_requests += s.requests;
            shard_completed += s.completed;
            EXPECT_EQ(reg.counter("shard." + std::to_string(s.device) +
                                  ".requests"),
                      s.requests);
        }
        if (!r.shards.empty()) {
            EXPECT_EQ(shard_requests, r.submitted);
            EXPECT_EQ(shard_completed, r.completed);
        }
    }
}

TEST(Serving, SloCountsViolationsWithoutBurnWindows)
{
    // Burn windows are an extra view: turning them off must not stop
    // violations and the burn rate from being counted.
    wk::ServingOptions opts =
        skewedServing(sched::PlacementPolicy::kLoadAware);
    opts.slo.enabled = true;
    opts.slo.targetUs = 100.0;
    const wk::ServingReport windowed = wk::runServing(opts);
    opts.slo.windowUs = 0.0;
    const wk::ServingReport plain = wk::runServing(opts);

    std::uint64_t violations = 0;
    for (std::size_t i = 0; i < plain.tenants.size(); ++i) {
        const wk::TenantReport &w = windowed.tenants[i];
        const wk::TenantReport &p = plain.tenants[i];
        EXPECT_EQ(p.sloViolations, w.sloViolations) << "tenant " << p.id;
        EXPECT_DOUBLE_EQ(p.sloBurnRate, w.sloBurnRate) << "tenant " << p.id;
        EXPECT_EQ(p.sloGoodWindows + p.sloBadWindows, 0u);
        EXPECT_GT(w.sloGoodWindows + w.sloBadWindows, 0u);
        violations += p.sloViolations;
    }
    EXPECT_GT(violations, 0u);
}
