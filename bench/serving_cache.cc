/**
 * @file
 * Deserialized-object cache gate (DESIGN.md §13).
 *
 * Runs the identical closed-loop request quota against one
 * Morpheus-SSD twice — object cache off, then on — with a Zipf-skewed
 * object popularity so a hot set exists for the cache to capture.
 * Cache hits are answered from controller DRAM (no flash fetch, no
 * re-parse, no embedded-core slot), so the cached run must cut the
 * p99 latency at the same offered load. Writes BENCH_serving_cache.json
 * with both runs' federated metrics; progress goes to stderr.
 *
 * Exit status is the self-check: both runs complete every request,
 * the uncached run never reports a hit, every tenant sees hits with
 * the cache on, and cache-on p99 improves on cache-off by >= 20%.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/** The cache gate: cache-on p99 must improve on cache-off by this. */
constexpr double kMinP99Improvement = 0.20;

/** Hot-set capture: overall hit rate the cached run must reach. */
constexpr double kMinHitRate = 0.5;

wk::ServingOptions
makeOptions(bool cache_on)
{
    wk::ServingOptions opts;
    opts.seed = 42;
    opts.closedLoop = true;
    // Identical offered load in both runs: the same per-tenant request
    // quota and in-flight budget, so the latency delta is the cache's
    // doing, not a load difference. MORPHEUS_BENCH_SCALE scales the
    // quota (0.25 = 1x). The floor is higher than the fleet bench's:
    // the cached run needs enough requests past the cold-start misses
    // (one per distinct object) that the p99 reflects steady state.
    const double scale = morpheus::bench::benchScale() / 0.25;
    opts.closedLoopRequests = static_cast<std::uint64_t>(
        std::max(256.0, 512.0 * scale));
    opts.closedLoopConcurrency = 16;
    for (std::uint32_t t = 0; t < 3; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        opts.tenants.push_back(spec);
    }
    // Several distinct objects per size class with Zipf-skewed
    // popularity: a hot set exists, and the whole object mix fits the
    // default 64 MiB DRAM budget, so the steady-state hit rate tracks
    // the skew rather than eviction churn.
    opts.objectsPerClass = 8;
    opts.zipfSkew = 1.1;
    // Same contended scheduler posture as the fleet bench: bounded
    // in-flight instances and partitioned D-SRAM grants — exactly the
    // queueing a hit bypasses.
    opts.sys.ssd.sched.maxInflightTotal = 12;
    opts.sys.ssd.sched.dsramPartitioning = true;
    opts.flushThreshold = 60 * sim::kKiB;
    opts.sys.ssd.cache.enabled = cache_on;
    return opts;
}

}  // namespace

int
main()
{
    morpheus::bench::banner(
        "object-cache serving gate (beyond-paper extension)",
        "hot deserialized objects answered from controller DRAM cut "
        "the p99 of a Zipf-skewed closed-loop serving mix");

    morpheus::bench::BenchRuns runs;
    std::fprintf(stderr, "running cache_off...\n");
    const wk::ServingReport off =
        morpheus::bench::runRecorded(runs, "cache_off", makeOptions(false));
    std::fprintf(stderr, "running cache_on...\n");
    const wk::ServingOptions on_opts = makeOptions(true);
    const wk::ServingReport on =
        morpheus::bench::runRecorded(runs, "cache_on", on_opts);

    const double hit_rate =
        on.completed
            ? static_cast<double>(on.cacheHits) /
                  static_cast<double>(on.completed)
            : 0.0;
    const double p99_speedup = on.p99Us > 0.0 ? off.p99Us / on.p99Us
                                              : 0.0;
    const double p99_improvement =
        off.p99Us > 0.0 ? 1.0 - on.p99Us / off.p99Us : 0.0;
    const double mean_speedup = on.meanUs > 0.0 ? off.meanUs / on.meanUs
                                                : 0.0;
    const double tput_speedup =
        off.throughputPerSec > 0.0
            ? on.throughputPerSec / off.throughputPerSec
            : 0.0;

    morpheus::bench::writeBenchJson(
        "serving_cache", "cacheP99Speedup", p99_speedup, "x",
        /*higher_is_better=*/true,
        {{"p99Improvement", p99_improvement, "fraction"},
         {"hitRate", hit_rate, "fraction"},
         {"offP99Us", off.p99Us, "us"},
         {"onP99Us", on.p99Us, "us"},
         {"meanSpeedup", mean_speedup, "x"},
         {"throughputSpeedup", tput_speedup, "x"}},
        on_opts.sys, runs);

    // ---- self-checks -------------------------------------------------
    morpheus::bench::Gates gate;
    gate(off.completed == off.submitted &&
             on.completed == on.submitted &&
             on.submitted == off.submitted,
         "identical quota, every request done");
    gate(off.cacheHits == 0, "cache off never hits");
    bool all_tenants_hit = !on.tenants.empty();
    for (const wk::TenantReport &t : on.tenants)
        all_tenants_hit = all_tenants_hit && t.cacheHits > 0;
    gate(all_tenants_hit, "every tenant sees cache hits");
    gate(hit_rate >= kMinHitRate, "hit rate >= 0.5");
    gate(p99_improvement >= kMinP99Improvement,
         "cache-on p99 improves >= 20%");
    return gate.exitStatus();
}
