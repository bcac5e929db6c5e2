/**
 * @file
 * Robustness gate: open-loop serving under seeded fault injection.
 *
 * Runs the identical arrival trace four times:
 *
 *   1. fault-free with driver recovery enabled (availability baseline);
 *   2. under an active FaultPlan with the full recovery stack — driver
 *      timeouts + bounded retries, watchdog kills, per-tenant circuit
 *      breaker routing to the baseline host path;
 *   3. the recovery-off ablation (no retries, no breaker/fallback)
 *      under the same faults;
 *   4. a repeat of (2) with identical options.
 *
 * Self-checks (the exit status):
 *   - run 2 completes every submitted request (lost == 0) with
 *     p99 <= 3x the fault-free p99, while every injected fault class
 *     fired at least once;
 *   - run 3 demonstrably loses requests (lost > 0) — the faults are
 *     real, recovery is what absorbs them;
 *   - run 4's federated metrics report is byte-identical to run 2's
 *     (seeded determinism survives the whole recovery stack);
 *   - attaching an all-zero-rate plan to run 1 leaves its metrics
 *     byte-identical (inactive plan == no plan).
 *
 * Writes BENCH_serving_fault_soak.json: the headline is the faulted
 * run's p99 over the clean run's (lower is better), and every run but
 * the determinism repeats embeds its federated metrics. Progress goes
 * to stderr.
 */

#include <cstdio>

#include "bench_common.hh"
#include "obs/metrics.hh"
#include "sim/fault.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/** The soak's fault schedule. Rates are tuned so every class fires at
 *  least once inside the default 20 ms window at seed 42 while the
 *  damage stays within the availability gate's tail budget. */
sim::FaultPlan
soakPlan()
{
    sim::FaultPlan plan;
    plan.mediaRate = 8e-3;
    plan.dmaRate = 6e-3;
    plan.crashRate = 3e-3;
    plan.hangRate = 6e-3;
    plan.dropRate = 8e-3;
    plan.seed = 9;
    return plan;
}

wk::ServingOptions
makeOptions(bool faults, bool recover)
{
    wk::ServingOptions opts;
    opts.durationSec = 0.02 * (morpheus::bench::benchScale() / 0.25);
    opts.seed = 42;
    for (std::uint32_t t = 0; t < 3; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        spec.arrivalsPerSec = 4000.0;
        opts.tenants.push_back(spec);
    }
    opts.sys.ssd.sched.placement = sched::PlacementPolicy::kLoadAware;
    opts.sys.ssd.sched.maxInflightTotal = 12;
    opts.sys.ssd.sched.dsramPartitioning = true;
    opts.flushThreshold = 60 * sim::kKiB;

    if (faults)
        opts.faults = soakPlan();
    // Recovery stays *enabled* even in the ablation: wait() must still
    // synthesize timeout completions for suppressed CQEs (disabled
    // recovery panics on them, by design). The ablation removes the
    // healing — no resubmissions, no breaker, no host fallback.
    opts.recovery.enabled = true;
    if (recover) {
        opts.breakerThreshold = 3;
    } else {
        opts.recovery.maxRetries = 0;
        opts.breakerThreshold = 0;
    }
    return opts;
}

}  // namespace

int
main()
{
    std::fprintf(stderr,
                 "== serving_fault_soak: availability under injected "
                 "faults ==\n");
    bench::EnvTrace trace;

    // Run 1: fault-free availability baseline (recovery on, no plan).
    bench::BenchRuns runs;
    const wk::ServingReport clean =
        bench::runRecorded(runs, "clean", makeOptions(false, true));
    const obs::MetricsRegistry clean_reg = runs.back().second;
    std::fprintf(stderr,
                 "clean    : %llu/%llu completed, p99 %8.1f us\n",
                 static_cast<unsigned long long>(clean.completed),
                 static_cast<unsigned long long>(clean.submitted),
                 clean.p99Us);

    // Run 1b: identical, but with an all-zero-rate plan attached. An
    // inactive plan must install nothing: zero RNG draws, identical
    // federated metrics.
    obs::MetricsRegistry zero_reg;
    wk::ServingOptions zero_opts = makeOptions(false, true);
    zero_opts.faults = sim::FaultPlan{};  // explicit inactive plan
    zero_opts.metrics = &zero_reg;
    (void)wk::runServing(zero_opts);

    // Run 2: the same trace under fire, full recovery stack.
    const wk::ServingOptions fault_opts = makeOptions(true, true);
    const wk::ServingReport fault =
        bench::runRecorded(runs, "faulted", fault_opts);
    const obs::MetricsRegistry fault_reg = runs.back().second;
    std::fprintf(stderr,
                 "faulted  : %llu/%llu completed, %llu device "
                 "failures, %llu fallbacks, %llu retries, p99 %8.1f "
                 "us\n",
                 static_cast<unsigned long long>(fault.completed),
                 static_cast<unsigned long long>(fault.submitted),
                 static_cast<unsigned long long>(fault.deviceFailures),
                 static_cast<unsigned long long>(fault.fallbacks),
                 static_cast<unsigned long long>(fault.driverRetries),
                 fault.p99Us);

    // Run 3: same faults, recovery ablated — requests are lost.
    const wk::ServingReport ablate =
        bench::runRecorded(runs, "ablated", makeOptions(true, false));
    std::fprintf(stderr,
                 "ablated  : %llu/%llu completed, %llu lost\n",
                 static_cast<unsigned long long>(ablate.completed),
                 static_cast<unsigned long long>(ablate.submitted),
                 static_cast<unsigned long long>(ablate.lost));

    // Run 4: run 2 again — the whole faulted run must be bit-stable.
    obs::MetricsRegistry repeat_reg;
    wk::ServingOptions repeat_opts = fault_opts;
    repeat_opts.metrics = &repeat_reg;
    (void)wk::runServing(repeat_opts);

    // Run 5: run 2's schedule with the streaming chunk pipeline on.
    // Readahead, sub-buffer parse, and coalesced flushes overlap the
    // stages but must not change fault semantics: nothing lost, every
    // request completed or terminally rejected.
    wk::ServingOptions pipe_opts = makeOptions(true, true);
    pipe_opts.sys.ssd.pipeline.enabled = true;
    const wk::ServingReport pipe =
        bench::runRecorded(runs, "pipelined", pipe_opts);
    std::fprintf(stderr,
                 "pipelined: %llu/%llu completed, %llu device "
                 "failures, p99 %8.1f us\n",
                 static_cast<unsigned long long>(pipe.completed),
                 static_cast<unsigned long long>(pipe.submitted),
                 static_cast<unsigned long long>(pipe.deviceFailures),
                 pipe.p99Us);

    // Run 6: run 2's schedule with the object cache on. Hot objects
    // are replayed from controller DRAM, but fault semantics must
    // hold: a crashed or media-faulted stream never populates the
    // cache, so availability and correctness survive unchanged.
    wk::ServingOptions cache_opts = makeOptions(true, true);
    cache_opts.sys.ssd.cache.enabled = true;
    const wk::ServingReport cached =
        bench::runRecorded(runs, "cached", cache_opts);
    const std::uint64_t cache_insertions =
        runs.back().second.counter("sys.morpheus.cache.insertions");
    std::fprintf(stderr,
                 "cached   : %llu/%llu completed, %llu cache hits, "
                 "%llu device failures, p99 %8.1f us\n",
                 static_cast<unsigned long long>(cached.completed),
                 static_cast<unsigned long long>(cached.submitted),
                 static_cast<unsigned long long>(cached.cacheHits),
                 static_cast<unsigned long long>(cached.deviceFailures),
                 cached.p99Us);

    // Run 7: run 2's schedule with hybrid host/device execution on.
    // Overload spill, splits, and faults now interleave, but the
    // availability contract must hold unchanged: nothing lost, bounded
    // tail, and the whole hybrid run bit-deterministic in its seed
    // (run 7b repeats it with identical options).
    wk::ServingOptions hybrid_opts = makeOptions(true, true);
    hybrid_opts.hybrid.enabled = true;
    const wk::ServingReport hybrid =
        bench::runRecorded(runs, "hybrid", hybrid_opts);
    const obs::MetricsRegistry &hybrid_reg = runs.back().second;
    obs::MetricsRegistry hybrid2_reg;
    wk::ServingOptions hybrid2_opts = hybrid_opts;
    hybrid2_opts.metrics = &hybrid2_reg;
    (void)wk::runServing(hybrid2_opts);
    std::fprintf(
        stderr,
        "hybrid   : %llu/%llu completed, %llu fallbacks "
        "(%llu breaker / %llu overload / %llu probe), %llu splits, "
        "p99 %8.1f us\n",
        static_cast<unsigned long long>(hybrid.completed),
        static_cast<unsigned long long>(hybrid.submitted),
        static_cast<unsigned long long>(hybrid.fallbacks),
        static_cast<unsigned long long>(hybrid.fallbackBreaker),
        static_cast<unsigned long long>(hybrid.fallbackOverload),
        static_cast<unsigned long long>(hybrid.fallbackProbe),
        static_cast<unsigned long long>(hybrid.splitRequests),
        hybrid.p99Us);

    bench::Gates check;
    // Availability: with recovery on, nothing is lost — every request
    // either completes (device path or fallback) or is terminally
    // rejected by admission, under faults exactly as without them.
    check(clean.lost == 0, "clean run loses nothing");
    check(clean.deviceFailures == 0, "clean run sees no device failures");
    check(fault.lost == 0, "faulted run loses nothing");
    check(fault.completed + fault.rejected == fault.submitted,
          "faulted: completed + rejected == submitted");
    // Bounded degradation: the tail may inflate, but not past 3x.
    check(fault.p99Us <= 3.0 * clean.p99Us,
          "faulted p99 within 3x the fault-free p99");
    // The soak actually exercised every fault class and every
    // recovery mechanism.
    check(fault_reg.counter("sys.faults.mediaErrors") >= 1,
          "media errors fired");
    check(fault_reg.counter("sys.faults.dmaFaults") >= 1,
          "DMA faults fired");
    check(fault_reg.counter("sys.faults.appCrashes") >= 1,
          "app crashes fired");
    check(fault_reg.counter("sys.faults.appHangs") >= 1,
          "app hangs fired");
    check(fault_reg.counter("sys.faults.droppedCqes") >= 1,
          "CQEs dropped");
    check(fault_reg.counter("sys.faults.watchdogKills") >= 1,
          "watchdog killed a hung instance");
    check(fault.deviceFailures >= 1, "device-path failures occurred");
    check(fault.fallbacks >= 1, "host fallback used");
    check(fault.driverRetries >= 1, "driver retried");
    // The ablation proves the faults are load-bearing: without
    // retries/fallback the same schedule loses requests — and, since
    // breakerThreshold == 0 disables the breaker entirely, the host
    // fallback path must never have run.
    check(ablate.lost > 0, "ablated run loses requests");
    check(ablate.fallbacks == 0, "ablated run never falls back");
    // Hybrid execution under fire preserves the same contract and is
    // itself bit-deterministic.
    check(hybrid.lost == 0, "hybrid faulted run loses nothing");
    check(hybrid.completed + hybrid.rejected == hybrid.submitted,
          "hybrid: completed + rejected == submitted");
    check(hybrid.p99Us <= 3.0 * clean.p99Us,
          "hybrid faulted p99 within 3x the fault-free p99");
    check(hybrid.fallbacks == hybrid.fallbackBreaker +
                                  hybrid.fallbackOverload +
                                  hybrid.fallbackProbe,
          "per-reason fallbacks sum to the total");
    check(hybrid_reg == hybrid2_reg, "hybrid faulted rerun bit-identical");
    // The pipeline preserves the availability contract under fire.
    check(pipe.lost == 0, "pipelined faulted run loses nothing");
    check(pipe.completed + pipe.rejected == pipe.submitted,
          "pipelined: completed + rejected == submitted");
    check(pipe.p99Us <= 3.0 * clean.p99Us,
          "pipelined faulted p99 within 3x the fault-free p99");
    // The object cache preserves the availability contract under fire
    // and actually serves hits (the request mix repeats hot objects).
    check(cached.lost == 0, "cached faulted run loses nothing");
    check(cached.completed + cached.rejected == cached.submitted,
          "cached: completed + rejected == submitted");
    check(cached.cacheHits >= 1, "cache hits under the repeating mix");
    check(cache_insertions >= 1, "cache populated");
    // Determinism guards.
    check(fault_reg == repeat_reg, "faulted rerun bit-identical");
    check(clean_reg == zero_reg, "zero-rate plan leaves the clean run");

    bench::writeBenchJson(
        "serving_fault_soak", "faultedP99Inflation",
        clean.p99Us > 0.0 ? fault.p99Us / clean.p99Us : 0.0, "x",
        /*higher_is_better=*/false,
        {{"cleanP99Us", clean.p99Us, "us"},
         {"faultedP99Us", fault.p99Us, "us"},
         {"ablatedLost", static_cast<double>(ablate.lost), "requests"}},
        fault_opts.sys, runs);
    return check.exitStatus();
}
