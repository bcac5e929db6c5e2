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
 * Emits one JSON document on stdout; progress goes to stderr.
 */

#include <cstdio>
#include <sstream>
#include <string>

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

std::string
reportString(const obs::MetricsRegistry &reg)
{
    std::ostringstream os;
    reg.report(os);
    return os.str();
}

void
printRunJson(const char *name, const wk::ServingReport &r,
             const obs::MetricsRegistry &reg, bool last)
{
    std::printf("    \"%s\": {\n", name);
    std::printf("      \"submitted\": %llu,\n",
                static_cast<unsigned long long>(r.submitted));
    std::printf("      \"completed\": %llu,\n",
                static_cast<unsigned long long>(r.completed));
    std::printf("      \"rejected\": %llu,\n",
                static_cast<unsigned long long>(r.rejected));
    std::printf("      \"lost\": %llu,\n",
                static_cast<unsigned long long>(r.lost));
    std::printf("      \"device_failures\": %llu,\n",
                static_cast<unsigned long long>(r.deviceFailures));
    std::printf("      \"fallbacks\": %llu,\n",
                static_cast<unsigned long long>(r.fallbacks));
    std::printf("      \"driver_retries\": %llu,\n",
                static_cast<unsigned long long>(r.driverRetries));
    std::printf("      \"driver_timeouts\": %llu,\n",
                static_cast<unsigned long long>(r.driverTimeouts));
    std::printf("      \"p50_us\": %.2f,\n", r.p50Us);
    std::printf("      \"p99_us\": %.2f,\n", r.p99Us);
    std::printf("      \"max_us\": %.2f,\n", r.maxUs);
    std::printf("      \"faults\": {\"media\": %llu, \"dma\": %llu, "
                "\"crash\": %llu, \"hang\": %llu, \"drop\": %llu, "
                "\"watchdog_kills\": %llu}\n",
                static_cast<unsigned long long>(
                    reg.counter("sys.faults.mediaErrors")),
                static_cast<unsigned long long>(
                    reg.counter("sys.faults.dmaFaults")),
                static_cast<unsigned long long>(
                    reg.counter("sys.faults.appCrashes")),
                static_cast<unsigned long long>(
                    reg.counter("sys.faults.appHangs")),
                static_cast<unsigned long long>(
                    reg.counter("sys.faults.droppedCqes")),
                static_cast<unsigned long long>(
                    reg.counter("sys.faults.watchdogKills")));
    std::printf("    }%s\n", last ? "" : ",");
}

bool
check(bool cond, const char *what)
{
    if (!cond)
        std::fprintf(stderr, "FAIL: %s\n", what);
    return cond;
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
    obs::MetricsRegistry clean_reg;
    wk::ServingOptions clean_opts = makeOptions(false, true);
    clean_opts.metrics = &clean_reg;
    const wk::ServingReport clean = wk::runServing(clean_opts);
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
    obs::MetricsRegistry fault_reg;
    wk::ServingOptions fault_opts = makeOptions(true, true);
    fault_opts.metrics = &fault_reg;
    const wk::ServingReport fault = wk::runServing(fault_opts);
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
    obs::MetricsRegistry ablate_reg;
    wk::ServingOptions ablate_opts = makeOptions(true, false);
    ablate_opts.metrics = &ablate_reg;
    const wk::ServingReport ablate = wk::runServing(ablate_opts);
    std::fprintf(stderr,
                 "ablated  : %llu/%llu completed, %llu lost\n",
                 static_cast<unsigned long long>(ablate.completed),
                 static_cast<unsigned long long>(ablate.submitted),
                 static_cast<unsigned long long>(ablate.lost));

    // Run 4: run 2 again — the whole faulted run must be bit-stable.
    obs::MetricsRegistry repeat_reg;
    wk::ServingOptions repeat_opts = makeOptions(true, true);
    repeat_opts.metrics = &repeat_reg;
    (void)wk::runServing(repeat_opts);

    // Run 5: run 2's schedule with the streaming chunk pipeline on.
    // Readahead, sub-buffer parse, and coalesced flushes overlap the
    // stages but must not change fault semantics: nothing lost, every
    // request completed or terminally rejected.
    obs::MetricsRegistry pipe_reg;
    wk::ServingOptions pipe_opts = makeOptions(true, true);
    pipe_opts.sys.ssd.pipeline.enabled = true;
    pipe_opts.metrics = &pipe_reg;
    const wk::ServingReport pipe = wk::runServing(pipe_opts);
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
    obs::MetricsRegistry cache_reg;
    wk::ServingOptions cache_opts = makeOptions(true, true);
    cache_opts.sys.ssd.cache.enabled = true;
    cache_opts.metrics = &cache_reg;
    const wk::ServingReport cached = wk::runServing(cache_opts);
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
    obs::MetricsRegistry hybrid_reg;
    wk::ServingOptions hybrid_opts = makeOptions(true, true);
    hybrid_opts.hybrid.enabled = true;
    hybrid_opts.metrics = &hybrid_reg;
    const wk::ServingReport hybrid = wk::runServing(hybrid_opts);
    obs::MetricsRegistry hybrid2_reg;
    wk::ServingOptions hybrid2_opts = makeOptions(true, true);
    hybrid2_opts.hybrid.enabled = true;
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

    bool ok = true;
    // Availability: with recovery on, nothing is lost — every request
    // either completes (device path or fallback) or is terminally
    // rejected by admission, under faults exactly as without them.
    ok &= check(clean.lost == 0, "clean run lost requests");
    ok &= check(clean.deviceFailures == 0,
                "clean run saw device failures");
    ok &= check(fault.lost == 0, "faulted run lost requests");
    ok &= check(fault.completed + fault.rejected == fault.submitted,
                "faulted run: completed+rejected != submitted");
    // Bounded degradation: the tail may inflate, but not past 3x.
    ok &= check(fault.p99Us <= 3.0 * clean.p99Us,
                "faulted p99 exceeds 3x fault-free p99");
    // The soak actually exercised every fault class and every
    // recovery mechanism.
    ok &= check(fault_reg.counter("sys.faults.mediaErrors") >= 1,
                "no media errors fired");
    ok &= check(fault_reg.counter("sys.faults.dmaFaults") >= 1,
                "no DMA faults fired");
    ok &= check(fault_reg.counter("sys.faults.appCrashes") >= 1,
                "no app crashes fired");
    ok &= check(fault_reg.counter("sys.faults.appHangs") >= 1,
                "no app hangs fired");
    ok &= check(fault_reg.counter("sys.faults.droppedCqes") >= 1,
                "no CQEs dropped");
    ok &= check(fault_reg.counter("sys.faults.watchdogKills") >= 1,
                "watchdog never killed a hung instance");
    ok &= check(fault.deviceFailures >= 1, "no device-path failures");
    ok &= check(fault.fallbacks >= 1, "host fallback never used");
    ok &= check(fault.driverRetries >= 1, "driver never retried");
    // The ablation proves the faults are load-bearing: without
    // retries/fallback the same schedule loses requests — and, since
    // breakerThreshold == 0 disables the breaker entirely, the host
    // fallback path must never have run.
    ok &= check(ablate.lost > 0, "ablated run lost nothing");
    ok &= check(ablate.fallbacks == 0,
                "recovery-off ablation used the host fallback");
    // Hybrid execution under fire preserves the same contract and is
    // itself bit-deterministic.
    ok &= check(hybrid.lost == 0, "hybrid faulted run lost requests");
    ok &= check(hybrid.completed + hybrid.rejected == hybrid.submitted,
                "hybrid run: completed+rejected != submitted");
    ok &= check(hybrid.p99Us <= 3.0 * clean.p99Us,
                "hybrid faulted p99 exceeds 3x fault-free p99");
    ok &= check(hybrid.fallbacks == hybrid.fallbackBreaker +
                                        hybrid.fallbackOverload +
                                        hybrid.fallbackProbe,
                "per-reason fallback counters do not sum to total");
    ok &= check(reportString(hybrid_reg) == reportString(hybrid2_reg),
                "hybrid faulted rerun not bit-identical");
    // The pipeline preserves the availability contract under fire.
    ok &= check(pipe.lost == 0, "pipelined faulted run lost requests");
    ok &= check(pipe.completed + pipe.rejected == pipe.submitted,
                "pipelined run: completed+rejected != submitted");
    ok &= check(pipe.p99Us <= 3.0 * clean.p99Us,
                "pipelined faulted p99 exceeds 3x fault-free p99");
    // The object cache preserves the availability contract under fire
    // and actually serves hits (the request mix repeats hot objects).
    ok &= check(cached.lost == 0, "cached faulted run lost requests");
    ok &= check(cached.completed + cached.rejected == cached.submitted,
                "cached run: completed+rejected != submitted");
    ok &= check(cached.cacheHits >= 1,
                "cache never hit under the soak's repeating mix");
    ok &= check(cache_reg.counter("sys.morpheus.cache.insertions") >= 1,
                "cache never populated");
    // Determinism guards.
    ok &= check(reportString(fault_reg) == reportString(repeat_reg),
                "faulted rerun not bit-identical");
    ok &= check(reportString(clean_reg) == reportString(zero_reg),
                "zero-rate plan perturbed the clean run");

    std::printf("{\n  \"runs\": {\n");
    printRunJson("clean", clean, clean_reg, false);
    printRunJson("faulted", fault, fault_reg, false);
    printRunJson("ablated", ablate, ablate_reg, true);
    std::printf("  },\n");
    std::printf("  \"p99_inflation\": %.3f,\n",
                clean.p99Us > 0.0 ? fault.p99Us / clean.p99Us : 0.0);
    std::printf("  \"self_check\": %s\n}\n", ok ? "true" : "false");

    std::fprintf(stderr,
                 "BENCH_RESULT {\"bench\": \"serving_fault_soak\", "
                 "\"scale\": %g, \"clean_p99_us\": %.2f, "
                 "\"faulted_p99_us\": %.2f, \"lost_ablated\": %llu, "
                 "\"self_check\": %s}\n",
                 morpheus::bench::benchScale(), clean.p99Us,
                 fault.p99Us,
                 static_cast<unsigned long long>(ablate.lost),
                 ok ? "true" : "false");
    std::fprintf(stderr, "self-check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
