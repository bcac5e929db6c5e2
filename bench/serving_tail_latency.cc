/**
 * @file
 * Beyond-paper extension: multi-tenant open-loop serving tails.
 *
 * Sweeps tenant skew (one hot tenant vs. two cold ones) and offered
 * load, running the identical arrival trace under the paper's static
 * modulo placement and under the load-aware (join-shortest-queue)
 * dispatcher. Emits one JSON document on stdout; progress goes to
 * stderr.
 *
 * Exit status is the self-check: load-aware placement must beat static
 * placement on p99 latency at the headline skewed/high-load point.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/** One sweep point: offered load split 'skew:1:1' across 3 tenants. */
struct Point
{
    double skew;
    double totalPerSec;
};

wk::ServingOptions
makeOptions(const Point &p, sched::PlacementPolicy placement)
{
    wk::ServingOptions opts;
    // Default run: ~20 ms of traffic. MORPHEUS_BENCH_SCALE scales the
    // observation window (0.25 is the suite-wide default = 1x here).
    opts.durationSec = 0.02 * (morpheus::bench::benchScale() / 0.25);
    opts.seed = 42;
    const double base = p.totalPerSec / (p.skew + 2.0);
    for (std::uint32_t t = 0; t < 3; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        spec.arrivalsPerSec = (t == 0) ? p.skew * base : base;
        opts.tenants.push_back(spec);
    }
    opts.sys.ssd.sched.placement = placement;
    // Bound concurrent instances: ~3 per core keeps every admitted
    // image inside I-SRAM, with the overflow absorbed by the admission
    // queue (kQueue) instead of failing MINITs device-side.
    opts.sys.ssd.sched.maxInflightTotal = 12;
    // Per-instance D-SRAM grants in force: co-residents split each
    // core's scratchpad (256 KiB / 4 = a 64 KiB grant each) instead of
    // silently overcommitting it. Keep the unpartitioned 64 KiB flush
    // cadence as closely as the grant allows: staging must stay
    // strictly inside the grant (grant-full is not a legal threshold),
    // so flush 4 KiB shy of it rather than at the default grant/4.
    opts.sys.ssd.sched.dsramPartitioning = true;
    opts.flushThreshold = 60 * sim::kKiB;
    return opts;
}

void
printTenantJson(const wk::TenantReport &t, bool last)
{
    std::printf("          {\"id\": %u, \"submitted\": %llu, "
                "\"completed\": %llu, \"rejected\": %llu, "
                "\"retries\": %llu, \"dsram_bounces\": %llu, "
                "\"served_bytes\": %llu, \"p50_us\": %.2f, "
                "\"p95_us\": %.2f, \"p99_us\": %.2f, "
                "\"p999_us\": %.2f, \"max_us\": %.2f}%s\n",
                t.id,
                static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.rejected),
                static_cast<unsigned long long>(t.retries),
                static_cast<unsigned long long>(t.dsramBounces),
                static_cast<unsigned long long>(t.servedBytes),
                t.p50Us, t.p95Us, t.p99Us, t.p999Us, t.maxUs,
                last ? "" : ",");
}

void
printPolicyJson(const char *name, const wk::ServingReport &r,
                const obs::MetricsRegistry &reg, bool last)
{
    std::printf("      \"%s\": {\n", name);
    std::printf("        \"completed\": %llu,\n",
                static_cast<unsigned long long>(r.completed));
    std::printf("        \"mean_us\": %.2f,\n", r.meanUs);
    std::printf("        \"p50_us\": %.2f,\n", r.p50Us);
    std::printf("        \"p95_us\": %.2f,\n", r.p95Us);
    std::printf("        \"p99_us\": %.2f,\n", r.p99Us);
    std::printf("        \"p999_us\": %.2f,\n", r.p999Us);
    std::printf("        \"max_us\": %.2f,\n", r.maxUs);
    std::printf("        \"jain_fairness\": %.4f,\n", r.jainFairness);
    std::printf("        \"throughput_per_sec\": %.0f,\n",
                r.throughputPerSec);
    // Device-side scheduler counter, federated out of the simulated
    // machine through the metrics registry.
    std::printf("        \"dsram_bounces\": %llu,\n",
                static_cast<unsigned long long>(
                    reg.counter("sys.ssd.sched.dsramBounces")));
    std::printf("        \"tenants\": [\n");
    for (std::size_t i = 0; i < r.tenants.size(); ++i)
        printTenantJson(r.tenants[i], i + 1 == r.tenants.size());
    std::printf("        ]\n");
    std::printf("      }%s\n", last ? "" : ",");
}

}  // namespace

int
main()
{
    std::fprintf(stderr,
                 "== serving_tail_latency: static vs load-aware "
                 "placement ==\n");

    // MORPHEUS_TRACE=<file.json> records every sweep run as one trace.
    bench::EnvTrace trace;

    const std::vector<Point> points = {
        {1.0, 12000.0},  // balanced, moderate load
        {4.0, 12000.0},  // skewed, moderate load
        {8.0, 12000.0},  // heavily skewed, moderate load
        {8.0, 24000.0},  // heavily skewed, saturating load
        {4.0, 24000.0},  // headline: skewed, high load
    };

    bool ok = true;
    double headline_static_p99 = 0.0;
    double headline_load_p99 = 0.0;
    std::uint64_t completed_total = 0;
    std::printf("{\n  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        obs::MetricsRegistry stat_reg;
        wk::ServingOptions stat_opts =
            makeOptions(p, sched::PlacementPolicy::kStatic);
        stat_opts.metrics = &stat_reg;
        const wk::ServingReport stat = wk::runServing(stat_opts);

        obs::MetricsRegistry load_reg;
        wk::ServingOptions load_opts =
            makeOptions(p, sched::PlacementPolicy::kLoadAware);
        load_opts.metrics = &load_reg;
        const wk::ServingReport load = wk::runServing(load_opts);

        std::fprintf(stderr,
                     "skew %4.1f rate %6.0f/s | p99 static %8.1f us  "
                     "load-aware %8.1f us  (%+5.1f%%)\n",
                     p.skew, p.totalPerSec, stat.p99Us, load.p99Us,
                     stat.p99Us > 0.0
                         ? 100.0 * (load.p99Us - stat.p99Us) / stat.p99Us
                         : 0.0);

        // Self-check: on every skewed point the load-aware dispatcher
        // must not lose on p99, and on the headline point it must win.
        if (p.skew > 1.0 && load.p99Us > stat.p99Us)
            ok = false;
        if (i + 1 == points.size() && !(load.p99Us < stat.p99Us))
            ok = false;

        if (i + 1 == points.size()) {
            headline_static_p99 = stat.p99Us;
            headline_load_p99 = load.p99Us;
        }
        completed_total += stat.completed + load.completed;

        std::printf("    {\n");
        std::printf("      \"skew\": %.1f,\n", p.skew);
        std::printf("      \"total_arrivals_per_sec\": %.0f,\n",
                    p.totalPerSec);
        printPolicyJson("static", stat, stat_reg, false);
        printPolicyJson("load_aware", load, load_reg, true);
        std::printf("    }%s\n", i + 1 == points.size() ? "" : ",");
    }
    std::printf("  ]\n}\n");

    // Overhead gate: always-on tail-based flight recording must stay
    // cheap enough to leave enabled. Re-run the headline point three
    // times bare and three times with a recorder attached, alternating
    // to spread scheduler noise evenly, and compare the best (least
    // noisy) wall-clock of each. The slack term absorbs timer jitter
    // on sub-100 ms runs; the 5% ratio is the real budget. The
    // recorder run must also reproduce the bare run's p99 exactly
    // (trace invariance).
    double bare_best_ms = 1e300, rec_best_ms = 1e300;
    bool rec_identical = true;
    for (int iter = 0; iter < 3; ++iter) {
        const auto b0 = std::chrono::steady_clock::now();
        const wk::ServingReport bare = wk::runServing(
            makeOptions(points.back(), sched::PlacementPolicy::kLoadAware));
        const auto b1 = std::chrono::steady_clock::now();

        obs::FlightRecorder recorder{obs::FlightRecorderConfig{}};
        const obs::ScopedTraceSink scope(recorder);
        const auto r0 = std::chrono::steady_clock::now();
        const wk::ServingReport rec = wk::runServing(
            makeOptions(points.back(), sched::PlacementPolicy::kLoadAware));
        const auto r1 = std::chrono::steady_clock::now();

        bare_best_ms = std::min(
            bare_best_ms,
            std::chrono::duration<double, std::milli>(b1 - b0).count());
        rec_best_ms = std::min(
            rec_best_ms,
            std::chrono::duration<double, std::milli>(r1 - r0).count());
        rec_identical = rec_identical && bare.p99Us == rec.p99Us &&
                        bare.completed == rec.completed &&
                        bare.makespan == rec.makespan;
    }
    const double budget_ms = bare_best_ms * 1.05 + 100.0;
    const bool overhead_ok = rec_best_ms <= budget_ms;
    std::fprintf(stderr,
                 "recorder overhead: bare %.1f ms  recorded %.1f ms  "
                 "budget %.1f ms  identical results %s -> %s\n",
                 bare_best_ms, rec_best_ms, budget_ms,
                 rec_identical ? "yes" : "NO",
                 overhead_ok ? "ok" : "OVER");
    if (!overhead_ok || !rec_identical)
        ok = false;

    // One-line machine-readable summary (stderr keeps stdout a pure
    // JSON document): future runs build a perf trajectory from CI logs.
    std::fprintf(stderr,
                 "BENCH_RESULT {\"bench\": \"serving_tail_latency\", "
                 "\"scale\": %g, \"points\": %zu, "
                 "\"completed_total\": %llu, "
                 "\"headline_static_p99_us\": %.2f, "
                 "\"headline_load_aware_p99_us\": %.2f, "
                 "\"self_check\": %s}\n",
                 morpheus::bench::benchScale(), points.size(),
                 static_cast<unsigned long long>(completed_total),
                 headline_static_p99, headline_load_p99,
                 ok ? "true" : "false");

    bench::writeBenchJson(
        "serving_tail_latency", "headlineLoadAwareP99Us",
        headline_load_p99, "us", /*higher_is_better=*/false,
        {{"headlineStaticP99Us", headline_static_p99, "us"},
         {"completedTotal", static_cast<double>(completed_total),
          "requests"}},
        bench::BenchConfig{});

    std::fprintf(stderr, "self-check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
