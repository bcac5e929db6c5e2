/**
 * @file
 * Figure 8: speedup of object deserialization using Morpheus-SSD over
 * the conventional baseline, per application plus the mean.
 *
 * Paper shape: mean ~1.66x, best ~2.3x, SpMV ~1.1x (33% float tokens
 * on FPU-less embedded cores).
 */

#include <chrono>

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/**
 * Zero-overhead guard for the tracing instrumentation: tracing only
 * observes virtual time, so the simulated result must be bit-identical
 * with and without a sink attached. Re-runs one app both ways and
 * fails loudly on any drift; the wall-clock delta is informational
 * (the acceptance bar is <=1% on the untraced path, which holds
 * trivially because without a sink every instrumentation site is one
 * null-pointer branch).
 */
int
traceInvarianceCheck(const wk::AppSpec &app)
{
    wk::RunOptions opts;
    opts.mode = wk::ExecutionMode::kMorpheus;
    opts.scale = bench::benchScale();

    using Clock = std::chrono::steady_clock;
    const auto w0 = Clock::now();
    const wk::RunMetrics plain = wk::runWorkload(app, opts);
    const auto w1 = Clock::now();

    obs::InMemoryTraceSink sink;
    wk::RunMetrics traced;
    {
        const obs::ScopedTraceSink attach(sink);
        traced = wk::runWorkload(app, opts);
    }
    const auto w2 = Clock::now();

    const double plain_ms =
        std::chrono::duration<double, std::milli>(w1 - w0).count();
    const double traced_ms =
        std::chrono::duration<double, std::milli>(w2 - w1).count();
    std::printf("\ntrace-invariance check (%s): untraced %llu ticks, "
                "traced %llu ticks, %zu spans\n",
                app.name.c_str(),
                static_cast<unsigned long long>(plain.deserTime),
                static_cast<unsigned long long>(traced.deserTime),
                sink.size());
    std::printf("host wall clock: %.1f ms untraced, %.1f ms traced "
                "(informational)\n",
                plain_ms, traced_ms);
    if (plain.deserTime != traced.deserTime ||
        plain.totalTime != traced.totalTime ||
        plain.kernelChecksum != traced.kernelChecksum) {
        std::fprintf(stderr,
                     "FAIL: attaching a trace sink changed the "
                     "simulated result\n");
        return 1;
    }
    return 0;
}

}  // namespace

int
main()
{
    bench::banner("Figure 8: deserialization speedup (Morpheus-SSD / "
                  "baseline)",
                  "mean 1.66x, max 2.3x, spmv ~1.1x");

    wk::RunOptions base;
    base.mode = wk::ExecutionMode::kBaseline;

    wk::RunOptions morph;
    morph.mode = wk::ExecutionMode::kMorpheus;
    const auto [base_rows, morph_rows] = bench::runSuite({base, morph});

    std::printf("%-12s %14s %14s %9s\n", "app", "baseline(ms)",
                "morpheus(ms)", "speedup");
    std::vector<double> speedups;
    for (std::size_t i = 0; i < base_rows.size(); ++i) {
        const double b =
            sim::ticksToSeconds(base_rows[i].metrics.deserTime) * 1e3;
        const double m =
            sim::ticksToSeconds(morph_rows[i].metrics.deserTime) * 1e3;
        const double s = b / m;
        speedups.push_back(s);
        std::printf("%-12s %14.2f %14.2f %8.2fx\n",
                    base_rows[i].app->name.c_str(), b, m, s);
    }
    std::printf("%-12s %14s %14s %8.2fx\n", "mean", "", "",
                bench::mean(speedups));

    std::vector<bench::BenchMetric> extra;
    for (std::size_t i = 0; i < base_rows.size(); ++i)
        extra.push_back({base_rows[i].app->name + ".speedup",
                         speedups[i], "x"});
    bench::writeBenchJson("fig08", "geomeanSpeedup",
                          bench::geomean(speedups), "x",
                          /*higher_is_better=*/true, extra);

    return traceInvarianceCheck(*base_rows.front().app);
}
