/**
 * @file
 * Beyond-paper extension: multi-tenant open-loop serving tails.
 *
 * Sweeps tenant skew (one hot tenant vs. two cold ones) and offered
 * load, running the identical arrival trace under the paper's static
 * modulo placement and under the load-aware (join-shortest-queue)
 * dispatcher. Writes BENCH_serving_tail_latency.json with every sweep
 * run's federated metrics, named by point and policy (e.g.
 * "skew4_rate24000.load_aware"); progress goes to stderr.
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
    wk::ServingOptions opts = bench::contendedServing();
    opts.durationSec = 0.02 * bench::servingWindows();
    bench::setSkewedLoad(opts, p.totalPerSec, p.skew);
    opts.sys.ssd.sched.placement = placement;
    return opts;
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

    bench::BenchRuns runs;
    bench::Gates gate;
    double headline_static_p99 = 0.0;
    double headline_load_p99 = 0.0;
    std::uint64_t completed_total = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        char name[64];
        std::snprintf(name, sizeof(name), "skew%g_rate%g", p.skew,
                      p.totalPerSec);
        const wk::ServingReport stat = bench::runRecorded(
            runs, std::string(name) + ".static",
            makeOptions(p, sched::PlacementPolicy::kStatic));
        const wk::ServingReport load = bench::runRecorded(
            runs, std::string(name) + ".load_aware",
            makeOptions(p, sched::PlacementPolicy::kLoadAware));

        std::fprintf(stderr,
                     "skew %4.1f rate %6.0f/s | p99 static %8.1f us  "
                     "load-aware %8.1f us  (%+5.1f%%)\n",
                     p.skew, p.totalPerSec, stat.p99Us, load.p99Us,
                     stat.p99Us > 0.0
                         ? 100.0 * (load.p99Us - stat.p99Us) / stat.p99Us
                         : 0.0);

        // Self-check: on every skewed point the load-aware dispatcher
        // must not lose on p99, and on the headline point it must win.
        if (p.skew > 1.0)
            gate(load.p99Us <= stat.p99Us,
                 (std::string(name) + ": load-aware p99 <= static").c_str());
        if (i + 1 == points.size()) {
            gate(load.p99Us < stat.p99Us, "headline: load-aware p99 wins");
            headline_static_p99 = stat.p99Us;
            headline_load_p99 = load.p99Us;
        }
        completed_total += stat.completed + load.completed;
    }

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
    gate(rec_identical, "recorder run reproduces the bare run");
    gate(overhead_ok, "recorder overhead within budget");

    bench::writeBenchJson(
        "serving_tail_latency", "headlineLoadAwareP99Us",
        headline_load_p99, "us", /*higher_is_better=*/false,
        {{"headlineStaticP99Us", headline_static_p99, "us"},
         {"completedTotal", static_cast<double>(completed_total),
          "requests"}},
        makeOptions(points.back(), sched::PlacementPolicy::kLoadAware).sys,
        runs);
    return gate.exitStatus();
}
