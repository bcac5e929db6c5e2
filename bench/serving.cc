/**
 * @file
 * The serving sweep: the beyond-paper serving extensions, one section
 * each, every gate simulated. Sections, in run order, each writing one
 * BENCH_<name>.json (with the federated metrics of its runs) that
 * tools/check_bench.py gates:
 *   - serving_breakdown (DESIGN.md §14): per-request critical-path
 *     attribution and the flight recorder; observedP99Us;
 *   - serving_cache (§13): the deserialized-object cache on a
 *     Zipf-skewed closed loop; cacheP99Speedup;
 *   - serving_fault_soak (§10): open-loop serving under seeded fault
 *     injection; faultedP99Inflation;
 *   - serving_fleet (§12): a 1/2/4-SSD shard fabric behind one
 *     switch; fleetSpeedup4x;
 *   - serving_overload (§15): hybrid host/device execution past
 *     device saturation; hybridThroughputGain;
 *   - serving_pushdown (§16): a columnar pushdown tenant beside a
 *     full-object one at equal load; pushdownP99Speedup.
 *
 * Progress and one "gate <claim> pass|FAIL" line per self-check go to
 * stderr; stdout stays empty. Exits 1 when any gate of any section
 * fails. MORPHEUS_TRACE=<file.json> records the whole sweep as one
 * trace; MORPHEUS_SLOW_TRACES=<file.json> writes the breakdown
 * section's retained slowest traces.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "obs/critical_path.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/fault.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

bool
near(double a, double b, double rel_tol)
{
    const double denom = std::max(std::fabs(a), std::fabs(b));
    return denom == 0.0 || std::fabs(a - b) / denom <= rel_tol;
}

double
stageSum(const std::array<double, obs::kNumStages> &stages)
{
    double s = 0.0;
    for (const double v : stages)
        s += v;
    return s;
}

/**
 * Critical-path attribution under serving load. Runs the tail-latency
 * bench's headline point (3 tenants skewed 4:1:1 at saturating load
 * under the load-aware dispatcher) bare, then with the whole
 * observability stack (flight recorder, critical-path attribution,
 * timeline, SLO burn tracking), and checks:
 *   1. trace invariance: the instrumented results are bit-identical
 *      to the bare run's;
 *   2. the stage breakdown is exact: the p99-ranked request's stage
 *      times sum to the measured p99, and the mean stage times to the
 *      mean, within 1%;
 *   3. the recorder retained the slowest requests and exports a
 *      Chrome JSON document;
 *   4. every timeline row has one value per column.
 */
void
breakdown(bench::Gates &check)
{
    std::fprintf(stderr, "== serving_breakdown: critical-path "
                         "attribution + flight recorder ==\n");
    wk::ServingOptions opts = bench::contendedServing();
    opts.durationSec = 0.02 * bench::servingWindows();
    bench::setSkewedLoad(opts, 24000.0, 4.0);
    opts.sys.ssd.sched.placement = sched::PlacementPolicy::kLoadAware;

    const wk::ServingReport plain = wk::runServing(opts);

    obs::FlightRecorderConfig frc;
    frc.slowestK = 8;
    obs::FlightRecorder recorder(frc);
    obs::Timeline timeline(100 * sim::kPsPerUs);
    wk::ServingOptions inst_opts = opts;
    inst_opts.flightRecorder = &recorder;
    inst_opts.breakdown = true;
    inst_opts.timeline = &timeline;
    inst_opts.slo.enabled = true;
    inst_opts.slo.targetUs = 4000.0;
    bench::BenchRuns runs;
    const wk::ServingReport inst =
        bench::runRecorded(runs, "instrumented", inst_opts);
    runs.back().second.setCounter("obs.timeline_rows",
                                  timeline.rows().size());

    // 1. Trace invariance: identical simulated results.
    check(plain.makespan == inst.makespan,
          "instrumented makespan matches the bare run");
    check(plain.completed == inst.completed,
          "instrumented completion count matches");
    check(plain.p50Us == inst.p50Us && plain.p95Us == inst.p95Us &&
              plain.p99Us == inst.p99Us && plain.meanUs == inst.meanUs,
          "instrumented latency percentiles match");

    // 2. Attribution exactness.
    check(inst.attributed == inst.completed,
          "every completed request is attributed");
    check(near(stageSum(inst.stageP99Us), inst.p99Us, 0.01),
          "p99 stage sum within 1% of the measured p99");
    check(near(stageSum(inst.stageMeanUs), inst.meanUs, 0.01),
          "mean stage sum within 1% of the measured mean");
    for (const wk::TenantReport &tr : inst.tenants) {
        check(near(stageSum(tr.stageP99Us), tr.p99Us, 0.01),
              "tenant p99 stage sum within 1% of its p99");
        check(tr.p999Us >= tr.p99Us && tr.maxUs >= tr.p999Us,
              "tenant tail quantiles monotone");
    }

    // 3. Recorder retention + export shape.
    const auto retained = recorder.retained();
    check(!retained.empty(), "recorder retained traces");
    check(retained.size() <= frc.slowestK + frc.maxFailed,
          "recorder retained within its configured budget");
    bool spans_ok = true;
    double worst_us = 0.0;
    for (const auto &rt : retained) {
        worst_us = std::max(
            worst_us, static_cast<double>(rt.meta.latency()) /
                          static_cast<double>(sim::kPsPerUs));
        spans_ok = spans_ok && (!rt.spans.empty() || rt.meta.failed);
    }
    check(spans_ok, "every retained completed trace has spans");
    check(near(worst_us, inst.maxUs, 0.01),
          "slowest retained trace matches the measured max");
    std::ostringstream chrome;
    recorder.writeChromeJson(chrome);
    check(chrome.str().rfind("{\"traceEvents\":[", 0) == 0,
          "slow-trace export is a Chrome JSON document");
    if (const char *path = std::getenv("MORPHEUS_SLOW_TRACES")) {
        std::ofstream f(path);
        f << chrome.str();
        std::fprintf(stderr, "slow traces -> %s\n", path);
    }

    // 4. Timeline shape.
    check(!timeline.rows().empty(), "timeline recorded rows");
    bool widths_ok = true;
    for (const auto &row : timeline.rows())
        widths_ok = widths_ok &&
                    row.values.size() == timeline.columns().size();
    check(widths_ok, "every timeline row has one value per column");

    // Per-tenant stage shares: the "p99 is 62% parse, 21% admission
    // wait" view.
    for (const wk::TenantReport &tr : inst.tenants) {
        const double total = stageSum(tr.stageP99Us);
        std::fprintf(stderr, "tenant %u p99 %8.1f us =", tr.id,
                     tr.p99Us);
        for (std::size_t s = 0; s < obs::kNumStages; ++s) {
            if (tr.stageP99Us[s] <= 0.0)
                continue;
            std::fprintf(stderr, " %s %.0f%%",
                         obs::stageName(static_cast<obs::Stage>(s)),
                         total > 0.0
                             ? 100.0 * tr.stageP99Us[s] / total
                             : 0.0);
        }
        std::fprintf(stderr, "\n");
    }

    bench::writeBenchJson(
        "serving_breakdown", "observedP99Us", inst.p99Us, "us",
        /*higher_is_better=*/false,
        {{"completed", static_cast<double>(inst.completed), "requests"},
         {"p999Us", inst.p999Us, "us"},
         {"retainedTraces", static_cast<double>(retained.size()),
          "traces"}},
        inst_opts.sys, runs);
}

/**
 * The object cache (DESIGN.md §13). Runs the identical closed-loop
 * quota against one device with the cache off, then on, over a
 * Zipf-skewed object popularity, so a hot set exists. A hit is
 * answered from controller DRAM (no flash fetch, no re-parse, no
 * embedded-core slot), so the cached run must cut the p99 by >= 20%
 * at the same offered load, with a hit rate >= 0.5, every tenant
 * hitting and the uncached run never hitting.
 */
void
cache(bench::Gates &gate)
{
    std::fprintf(stderr, "== serving_cache: deserialized-object cache "
                         "on a Zipf-skewed mix ==\n");
    const auto options = [](bool cache_on) {
        wk::ServingOptions opts = bench::contendedServing();
        opts.closedLoop = true;
        // The same quota and in-flight budget in both runs, so the
        // latency delta is the cache's doing. The cached run needs
        // enough requests past the cold-start misses (one per distinct
        // object) that the p99 reflects steady state.
        opts.closedLoopRequests =
            static_cast<std::uint64_t>(512.0 * bench::servingWindows());
        opts.closedLoopConcurrency = 16;
        // Several objects per size class: a hot set exists, and the
        // whole mix fits the default 64 MiB DRAM budget, so the hit
        // rate tracks the skew rather than eviction churn.
        opts.objectsPerClass = 8;
        opts.zipfSkew = 1.1;
        opts.sys.ssd.cache.enabled = cache_on;
        return opts;
    };

    bench::BenchRuns runs;
    std::fprintf(stderr, "running cache_off...\n");
    const wk::ServingReport off =
        bench::runRecorded(runs, "cache_off", options(false));
    std::fprintf(stderr, "running cache_on...\n");
    const wk::ServingOptions on_opts = options(true);
    const wk::ServingReport on =
        bench::runRecorded(runs, "cache_on", on_opts);

    const double hit_rate =
        on.completed ? static_cast<double>(on.cacheHits) /
                           static_cast<double>(on.completed)
                     : 0.0;
    const double p99_improvement =
        off.p99Us > 0.0 ? 1.0 - on.p99Us / off.p99Us : 0.0;

    bench::writeBenchJson(
        "serving_cache", "cacheP99Speedup",
        on.p99Us > 0.0 ? off.p99Us / on.p99Us : 0.0, "x",
        /*higher_is_better=*/true,
        {{"p99Improvement", p99_improvement, "fraction"},
         {"hitRate", hit_rate, "fraction"},
         {"offP99Us", off.p99Us, "us"},
         {"onP99Us", on.p99Us, "us"},
         {"meanSpeedup", on.meanUs > 0.0 ? off.meanUs / on.meanUs : 0.0,
          "x"},
         {"throughputSpeedup",
          off.throughputPerSec > 0.0
              ? on.throughputPerSec / off.throughputPerSec
              : 0.0,
          "x"}},
        on_opts.sys, runs);

    gate(off.completed == off.submitted &&
             on.completed == on.submitted &&
             on.submitted == off.submitted,
         "identical quota, every request done");
    gate(off.cacheHits == 0, "cache off never hits");
    bool all_tenants_hit = !on.tenants.empty();
    for (const wk::TenantReport &t : on.tenants)
        all_tenants_hit = all_tenants_hit && t.cacheHits > 0;
    gate(all_tenants_hit, "every tenant sees cache hits");
    gate(hit_rate >= 0.5, "hit rate >= 0.5");
    gate(p99_improvement >= 0.20, "cache-on p99 improves >= 20%");
}

/** Options of one fault-soak run: @p faults attaches the soak's fault
 *  plan, @p recover keeps the healing on. */
wk::ServingOptions
soakOptions(bool faults, bool recover)
{
    wk::ServingOptions opts = bench::contendedServing();
    opts.durationSec = 0.02 * bench::servingWindows();
    bench::setSkewedLoad(opts, 12000.0, 1.0);
    opts.sys.ssd.sched.placement = sched::PlacementPolicy::kLoadAware;
    if (faults) {
        // Rates tuned so every class fires at least once inside the
        // default 20 ms window at seed 42 while the damage stays
        // within the availability gate's tail budget.
        opts.faults.mediaRate = 8e-3;
        opts.faults.dmaRate = 6e-3;
        opts.faults.crashRate = 3e-3;
        opts.faults.hangRate = 6e-3;
        opts.faults.dropRate = 8e-3;
        opts.faults.seed = 9;
    }
    // Recovery stays *enabled* even in the ablation: wait() must still
    // synthesize timeout completions for suppressed CQEs (disabled
    // recovery panics on them, by design). The ablation removes the
    // healing: no resubmissions, no breaker, no host fallback.
    opts.recovery.enabled = true;
    if (recover) {
        opts.breakerThreshold = 3;
    } else {
        opts.recovery.maxRetries = 0;
        opts.breakerThreshold = 0;
    }
    return opts;
}

/**
 * Availability under seeded fault injection (DESIGN.md §10). One
 * arrival trace, run fault-free, then under the fault plan with the
 * full recovery stack (driver timeouts + bounded retries, watchdog
 * kills, per-tenant circuit breaker to the host path), with recovery
 * ablated, and under faults with the pipeline, the object cache or
 * hybrid execution on. Gates: with recovery on nothing is lost and
 * p99 stays within 3x the fault-free p99, while every fault class
 * fired; the ablation loses requests; faulted reruns and an all-zero
 * plan are bit-identical to their references.
 */
void
faultSoak(bench::Gates &check)
{
    std::fprintf(stderr,
                 "== serving_fault_soak: availability under injected "
                 "faults ==\n");

    // Run 1: fault-free availability baseline (recovery on, no plan).
    bench::BenchRuns runs;
    const wk::ServingReport clean =
        bench::runRecorded(runs, "clean", soakOptions(false, true));
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
    wk::ServingOptions zero_opts = soakOptions(false, true);
    zero_opts.faults = sim::FaultPlan{};
    zero_opts.metrics = &zero_reg;
    (void)wk::runServing(zero_opts);

    // Run 2: the same trace under fire, full recovery stack.
    const wk::ServingOptions fault_opts = soakOptions(true, true);
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

    // Run 3: same faults, recovery ablated: requests are lost.
    const wk::ServingReport ablate =
        bench::runRecorded(runs, "ablated", soakOptions(true, false));
    std::fprintf(stderr, "ablated  : %llu/%llu completed, %llu lost\n",
                 static_cast<unsigned long long>(ablate.completed),
                 static_cast<unsigned long long>(ablate.submitted),
                 static_cast<unsigned long long>(ablate.lost));

    // Run 4: run 2 again; the whole faulted run must be bit-stable.
    obs::MetricsRegistry repeat_reg;
    wk::ServingOptions repeat_opts = fault_opts;
    repeat_opts.metrics = &repeat_reg;
    (void)wk::runServing(repeat_opts);

    // Run 5: run 2 with the streaming chunk pipeline on. Readahead,
    // sub-buffer parse and coalesced flushes overlap the stages but
    // must not change fault semantics.
    wk::ServingOptions pipe_opts = soakOptions(true, true);
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

    // Run 6: run 2 with the object cache on. A crashed or
    // media-faulted stream never populates the cache, so availability
    // and correctness survive unchanged.
    wk::ServingOptions cache_opts = soakOptions(true, true);
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

    // Run 7: run 2 with hybrid host/device execution on. Overload
    // spill, splits and faults interleave, but the availability
    // contract holds and the run is bit-deterministic (run 7b repeats
    // it).
    wk::ServingOptions hybrid_opts = soakOptions(true, true);
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

    // Availability: with recovery on, every request either completes
    // (device path or fallback) or is terminally rejected by
    // admission, under faults exactly as without them.
    check(clean.lost == 0, "clean run loses nothing");
    check(clean.deviceFailures == 0, "clean run sees no device failures");
    check(fault.lost == 0, "faulted run loses nothing");
    check(fault.completed + fault.rejected == fault.submitted,
          "faulted: completed + rejected == submitted");
    check(fault.p99Us <= 3.0 * clean.p99Us,
          "faulted p99 within 3x the fault-free p99");
    // The soak exercised every fault class and recovery mechanism.
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
    // The faults are load-bearing: without retries/fallback the same
    // schedule loses requests, and with breakerThreshold == 0 the host
    // fallback path never runs.
    check(ablate.lost > 0, "ablated run loses requests");
    check(ablate.fallbacks == 0, "ablated run never falls back");
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
    check(pipe.lost == 0, "pipelined faulted run loses nothing");
    check(pipe.completed + pipe.rejected == pipe.submitted,
          "pipelined: completed + rejected == submitted");
    check(pipe.p99Us <= 3.0 * clean.p99Us,
          "pipelined faulted p99 within 3x the fault-free p99");
    check(cached.lost == 0, "cached faulted run loses nothing");
    check(cached.completed + cached.rejected == cached.submitted,
          "cached: completed + rejected == submitted");
    check(cached.cacheHits >= 1, "cache hits under the repeating mix");
    check(cache_insertions >= 1, "cache populated");
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
}

/** Max/min device-path request count across shards (1 = balanced). */
double
shardImbalance(const wk::ServingReport &r)
{
    std::uint64_t lo = ~0ULL, hi = 0;
    for (const wk::ShardReport &s : r.shards) {
        lo = std::min(lo, s.requests);
        hi = std::max(hi, s.requests);
    }
    return lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo)
                  : 0.0;
}

/**
 * Fleet scaling (DESIGN.md §12). The identical closed-loop quota
 * against 1, 2 and 4 devices behind one PCIe switch, objects
 * hash-placed, plus the p99 cost of a Zipf-skewed popularity (hot
 * shards) at 4. Gates: every request completes, and 4 devices reach
 * >= 3x the single device's throughput at the same offered load.
 */
void
fleet(bench::Gates &gate)
{
    std::fprintf(stderr, "== serving_fleet: shard-fabric throughput "
                         "scaling ==\n");
    const auto options = [](unsigned ssds, double zipf_skew) {
        wk::ServingOptions opts = bench::contendedServing();
        opts.closedLoop = true;
        // The same quota and in-flight budget at every fleet size, so
        // throughput measures capacity. The quota must dwarf the
        // in-flight budget or the makespan is all ramp and drain.
        opts.closedLoopRequests =
            static_cast<std::uint64_t>(512.0 * bench::servingWindows());
        opts.closedLoopConcurrency = 16;
        opts.sys.numSsds = ssds;
        // Enough objects per size class that hashed placement uses
        // every shard; the skew then concentrates requests on the
        // shards that own the hot objects.
        opts.objectsPerClass = 8;
        opts.zipfSkew = zipf_skew;
        return opts;
    };

    struct RunSpec
    {
        const char *name;
        unsigned ssds;
        double skew;
    };
    const RunSpec specs[] = {
        {"ssd1_uniform", 1, 0.0},
        {"ssd2_uniform", 2, 0.0},
        {"ssd4_uniform", 4, 0.0},
        {"ssd4_zipf", 4, 1.1},
    };
    bench::BenchRuns runs;
    std::vector<wk::ServingReport> reports;
    for (const RunSpec &spec : specs) {
        std::fprintf(stderr, "running %s...\n", spec.name);
        reports.push_back(bench::runRecorded(
            runs, spec.name, options(spec.ssds, spec.skew)));
    }

    const wk::ServingReport &r1 = reports[0];
    const wk::ServingReport &r2 = reports[1];
    const wk::ServingReport &r4 = reports[2];
    const wk::ServingReport &rz = reports[3];
    const double speedup2 = r2.throughputPerSec / r1.throughputPerSec;
    const double speedup4 = r4.throughputPerSec / r1.throughputPerSec;

    bench::writeBenchJson(
        "serving_fleet", "fleetSpeedup4x", speedup4, "x",
        /*higher_is_better=*/true,
        {{"speedup2x", speedup2, "x"},
         {"ssd1ThroughputPerSec", r1.throughputPerSec, "req/s"},
         {"ssd4ThroughputPerSec", r4.throughputPerSec, "req/s"},
         {"ssd4P99Us", r4.p99Us, "us"},
         {"zipfP99Us", rz.p99Us, "us"},
         {"zipfP99Cost", r4.p99Us > 0.0 ? rz.p99Us / r4.p99Us : 0.0,
          "ratio"},
         {"zipfImbalance", shardImbalance(rz), "ratio"}},
        options(4, 0.0).sys, runs);

    gate(r1.completed == r1.submitted && r4.completed == r4.submitted &&
             rz.completed == rz.submitted,
         "every request completes");
    gate(speedup4 >= 3.0, "4-SSD speedup >= 3x");
    gate(speedup2 > 1.0, "2-SSD speedup > 1x");
    gate(r4.shards.size() == 4, "per-shard reports present");
}

/** The hybrid posture under test: spill + split + shed. */
sched::HybridConfig
hybridConfig()
{
    sched::HybridConfig h;
    h.enabled = true;
    h.shed = true;
    // Shed as soon as BOTH sides sit at their watermarks: at 1.6x
    // saturation the residual load has nowhere useful to queue, and
    // bouncing it is what keeps the completed requests' tail bounded.
    h.shedFactor = 1.0;
    h.shedMaxBounces = 3;
    h.shedRetryUs = 150;
    // Keep the host-side queue short: past ~500 us of queued host
    // work the host stops being a useful place to send overflow.
    h.hostHighUs = 500.0;
    return h;
}

/**
 * Graceful degradation past device saturation (DESIGN.md §15). A
 * device-only deployment's tail collapses past saturation and a
 * host-only one caps at the host's conversion rate; hybrid placement
 * should beat both by spilling and splitting, and shed the residue
 * deterministically. Calibrates the device's saturation S with a
 * closed loop (its self-throttled rate is the service capacity),
 * measures the pre-saturation p99 at 0.5 x S under the hybrid config,
 * then runs one arrival trace at 1.6 x S device-only, host-only and
 * hybrid, and the hybrid run again. Gates: nothing lost, hybrid
 * throughput beats both single-executor runs, hybrid p99 within 3x the
 * pre-saturation p99, closed fallback accounting, and a bit-identical
 * hybrid rerun.
 */
void
overload(bench::Gates &check)
{
    std::fprintf(stderr,
                 "== serving_overload: hybrid execution past device "
                 "saturation ==\n");
    const auto options = [](double total_rate) {
        wk::ServingOptions opts = bench::contendedServing();
        opts.durationSec = 0.02 * bench::servingWindows();
        opts.sys.ssd.sched.placement = sched::PlacementPolicy::kLoadAware;
        bench::setSkewedLoad(opts, total_rate, 1.0);
        return opts;
    };

    // 1. Calibrate device-path saturation with a closed loop (which
    // ignores arrival rates).
    wk::ServingOptions cal_opts = options(0.0);
    cal_opts.closedLoop = true;
    cal_opts.closedLoopConcurrency = 8;
    cal_opts.closedLoopRequests =
        static_cast<std::uint64_t>(64.0 * bench::servingWindows());
    bench::BenchRuns runs;
    const wk::ServingReport cal =
        bench::runRecorded(runs, "calibration", cal_opts);
    const double saturation = cal.throughputPerSec;
    std::fprintf(stderr, "saturation: %.0f req/s (closed loop)\n",
                 saturation);

    // 2. Pre-saturation tail under the hybrid config at 0.5 x S; the
    // policy keeps everything on the device at that load.
    wk::ServingOptions pre_opts = options(0.5 * saturation);
    pre_opts.hybrid = hybridConfig();
    const wk::ServingReport pre =
        bench::runRecorded(runs, "pre_saturation", pre_opts);
    std::fprintf(stderr, "pre-saturation: p99 %8.1f us at 0.5x\n",
                 pre.p99Us);

    // 3. The same offered load at 1.6 x S, three ways.
    const double offered = 1.6 * saturation;
    const wk::ServingReport dev =
        bench::runRecorded(runs, "device_only", options(offered));
    std::fprintf(stderr,
                 "device-only: %llu completed, %.0f req/s, "
                 "p99 %8.1f us\n",
                 static_cast<unsigned long long>(dev.completed),
                 dev.throughputPerSec, dev.p99Us);

    wk::ServingOptions host_opts = options(offered);
    host_opts.hybrid = hybridConfig();
    host_opts.hybrid.forceHost = true;
    host_opts.hybrid.shed = false;
    const wk::ServingReport host =
        bench::runRecorded(runs, "host_only", host_opts);
    std::fprintf(stderr,
                 "host-only  : %llu completed, %.0f req/s, "
                 "p99 %8.1f us\n",
                 static_cast<unsigned long long>(host.completed),
                 host.throughputPerSec, host.p99Us);

    wk::ServingOptions hy_opts = options(offered);
    hy_opts.hybrid = hybridConfig();
    const wk::ServingReport hy = bench::runRecorded(runs, "hybrid", hy_opts);
    const obs::MetricsRegistry &hy_reg = runs.back().second;
    std::fprintf(stderr,
                 "hybrid     : %llu completed, %.0f req/s, "
                 "p99 %8.1f us (%llu spill, %llu split, %llu shed "
                 "bounces)\n",
                 static_cast<unsigned long long>(hy.completed),
                 hy.throughputPerSec, hy.p99Us,
                 static_cast<unsigned long long>(hy.fallbackOverload),
                 static_cast<unsigned long long>(hy.splitRequests),
                 static_cast<unsigned long long>(hy.shedBounces));

    // 4. Determinism: the identical hybrid run, byte for byte.
    obs::MetricsRegistry hy2_reg;
    wk::ServingOptions hy2_opts = hy_opts;
    hy2_opts.metrics = &hy2_reg;
    (void)wk::runServing(hy2_opts);

    check(cal.lost == 0 && pre.lost == 0 && dev.lost == 0 &&
              host.lost == 0 && hy.lost == 0,
          "no run loses requests");
    check(hy.completed + hy.rejected == hy.submitted,
          "hybrid: completed + rejected == submitted");
    check(hy.throughputPerSec > dev.throughputPerSec,
          "hybrid beats device-only throughput");
    check(hy.throughputPerSec > host.throughputPerSec,
          "hybrid beats host-only throughput");
    check(hy.p99Us <= 3.0 * pre.p99Us,
          "hybrid p99 within 3x the pre-saturation p99");
    // The hybrid layer engaged (the comparison is not vacuous) and
    // its accounting is closed.
    check(hy.fallbackOverload + hy.splitRequests > 0,
          "hybrid spilled or split");
    check(hy.fallbacks == hy.fallbackBreaker + hy.fallbackOverload +
                              hy.fallbackProbe,
          "per-reason fallbacks sum to the total");
    check(hy_reg == hy2_reg, "hybrid rerun bit-identical");

    const double best_single =
        std::max(dev.throughputPerSec, host.throughputPerSec);
    bench::writeBenchJson(
        "serving_overload", "hybridThroughputGain",
        best_single > 0.0 ? hy.throughputPerSec / best_single : 0.0, "x",
        /*higher_is_better=*/true,
        {{"saturationPerSec", saturation, "req/s"},
         {"deviceOnlyPerSec", dev.throughputPerSec, "req/s"},
         {"hostOnlyPerSec", host.throughputPerSec, "req/s"},
         {"hybridPerSec", hy.throughputPerSec, "req/s"},
         {"preSaturationP99Us", pre.p99Us, "us"},
         {"hybridP99Us", hy.p99Us, "us"},
         {"p99Inflation",
          pre.p99Us > 0.0 ? hy.p99Us / pre.p99Us : 0.0, "x"}},
        hy_opts.sys, runs);
}

/**
 * Projection and predicate pushdown under serving load (DESIGN.md
 * §16). Two columnar tenants at equal offered load over the same
 * table geometry: tenant 1 pushes a 10%-selectivity projection of 2
 * of 6 columns down, tenant 2 ships the full table (descriptor-less
 * scan, the full-object posture). A CSV tenant adds read+write
 * background traffic. Gates: the pushdown tenant's p99 beats the
 * full-object tenant's, and the CSV tenant wrote.
 */
void
pushdown(bench::Gates &gate)
{
    std::fprintf(stderr, "== serving_pushdown: pushdown vs full-object "
                         "p99 at equal load ==\n");
    // Not contendedServing(): no D-SRAM partitioning. A closed loop
    // keeps a fixed number of requests in flight per tenant, so latency
    // traces service time (transfer + scan), not queue position. At
    // most 12 instances in flight, so overload queues host-side instead
    // of failing MINITs.
    wk::ServingOptions opts;
    opts.seed = 42;
    opts.closedLoop = true;
    opts.closedLoopConcurrency = 2;
    opts.closedLoopRequests =
        static_cast<std::uint64_t>(64.0 * bench::servingWindows());
    opts.sys.ssd.sched.maxInflightTotal = 12;
    wk::TenantSpec push;
    push.id = 1;
    push.format = wk::TenantFormat::kColumnar;
    push.pushdown = true;
    push.selectivity = 0.10;
    push.projectColumns = 2;
    push.tableColumns = 6;
    push.sizeClassValues = {4096, 16384};
    push.sizeClassProb = {0.75, 0.25};
    push.arrivalsPerSec = 3000.0;
    wk::TenantSpec full = push;
    full.id = 2;
    full.pushdown = false;
    wk::TenantSpec csv;
    csv.id = 3;
    csv.format = wk::TenantFormat::kCsv;
    csv.sizeClassValues = {512, 2048};
    csv.sizeClassProb = {0.8, 0.2};
    csv.arrivalsPerSec = 2500.0;
    csv.writeFraction = 0.4;
    opts.tenants = {push, full, csv};

    bench::BenchRuns runs;
    const wk::ServingReport rep = bench::runRecorded(runs, "mix", opts);
    const char *names[] = {"pushdown", "full-object", "csv r/w"};
    for (std::size_t t = 0; t < rep.tenants.size(); ++t)
        std::fprintf(stderr,
                     "%-11s: %llu completed, %llu writes, p99 %8.1f us, "
                     "served %.2f MB\n",
                     names[t],
                     static_cast<unsigned long long>(rep.tenants[t].completed),
                     static_cast<unsigned long long>(rep.tenants[t].writes),
                     rep.tenants[t].p99Us, rep.tenants[t].servedBytes / 1e6);
    const double push_p99 = rep.tenants[0].p99Us;
    const double full_p99 = rep.tenants[1].p99Us;
    gate(push_p99 < full_p99, "pushdown p99 beats the full-object p99");
    gate(rep.tenants[2].writes > 0, "the CSV tenant wrote");

    bench::writeBenchJson(
        "serving_pushdown", "pushdownP99Speedup",
        push_p99 > 0.0 ? full_p99 / push_p99 : 0.0, "x",
        /*higher_is_better=*/true,
        {{"serving_p99_pushdown_us", push_p99, "us"},
         {"serving_p99_fullobject_us", full_p99, "us"},
         {"serving_writes", static_cast<double>(rep.writes), "count"}},
        opts.sys, runs);
}

}  // namespace

int
main()
{
    bench::EnvTrace trace;
    bench::Gates gate;
    breakdown(gate);
    cache(gate);
    faultSoak(gate);
    fleet(gate);
    overload(gate);
    pushdown(gate);
    return gate.exitStatus();
}
