/**
 * @file
 * Per-request critical-path attribution under serving load.
 *
 * Runs the skewed high-load serving point twice — bare, then with the
 * full observability stack (tail-based flight recorder, critical-path
 * attribution, time-series timeline, SLO burn tracking) — and checks:
 *
 *  1. Trace invariance: the instrumented run's results are bit-
 *     identical to the bare run's (observability reads simulated time,
 *     it never perturbs it).
 *  2. The per-tenant stage breakdown is exact: the p99-ranked
 *     request's stage times sum to the measured p99 within 1%, and
 *     mean stage times sum to the mean within 1% (the attribution is
 *     gap-free and double-count-free by construction).
 *  3. The recorder retained the slowest requests and its Chrome JSON
 *     export is well formed (openable in Perfetto).
 *
 * MORPHEUS_SLOW_TRACES=<file.json> additionally writes the retained
 * slowest-K traces to disk. Emits one JSON document on stdout.
 */

#include <chrono>
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
#include "obs/timeline.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

wk::ServingOptions
makeOptions()
{
    wk::ServingOptions opts;
    // The tail-latency bench's headline point: 3 tenants skewed 4:1:1
    // at saturating load under the load-aware dispatcher.
    opts.durationSec = 0.02 * (morpheus::bench::benchScale() / 0.25);
    opts.seed = 42;
    const double total = 24000.0, skew = 4.0;
    const double base = total / (skew + 2.0);
    for (std::uint32_t t = 0; t < 3; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        spec.arrivalsPerSec = (t == 0) ? skew * base : base;
        opts.tenants.push_back(spec);
    }
    opts.sys.ssd.sched.placement = sched::PlacementPolicy::kLoadAware;
    opts.sys.ssd.sched.maxInflightTotal = 12;
    opts.sys.ssd.sched.dsramPartitioning = true;
    opts.flushThreshold = 60 * sim::kKiB;
    return opts;
}

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

}  // namespace

int
main()
{
    std::fprintf(stderr, "== serving_breakdown: critical-path "
                         "attribution + flight recorder ==\n");

    // --- bare run: the reference results ------------------------------
    const auto t0 = std::chrono::steady_clock::now();
    const wk::ServingReport plain = wk::runServing(makeOptions());
    const auto t1 = std::chrono::steady_clock::now();

    // --- instrumented run: recorder + breakdown + timeline + SLO -----
    obs::FlightRecorderConfig frc;
    frc.slowestK = 8;
    obs::FlightRecorder recorder(frc);
    obs::Timeline timeline(100 * sim::kPsPerUs);
    wk::ServingOptions inst_opts = makeOptions();
    inst_opts.flightRecorder = &recorder;
    inst_opts.breakdown = true;
    inst_opts.timeline = &timeline;
    inst_opts.slo.enabled = true;
    inst_opts.slo.targetUs = 4000.0;
    const wk::ServingReport inst = wk::runServing(inst_opts);
    const auto t2 = std::chrono::steady_clock::now();

    bool ok = true;
    auto check = [&](bool cond, const char *what) {
        if (!cond) {
            std::fprintf(stderr, "FAIL: %s\n", what);
            ok = false;
        }
    };

    // 1. Trace invariance: identical simulated results.
    check(plain.makespan == inst.makespan,
          "instrumented makespan diverged from the bare run");
    check(plain.completed == inst.completed,
          "instrumented completion count diverged");
    check(plain.p50Us == inst.p50Us && plain.p95Us == inst.p95Us &&
              plain.p99Us == inst.p99Us && plain.meanUs == inst.meanUs,
          "instrumented latency percentiles diverged");

    // 2. Attribution exactness.
    check(inst.attributed == inst.completed,
          "not every completed request was attributed");
    check(near(stageSum(inst.stageP99Us), inst.p99Us, 0.01),
          "p99 stage sum off the measured p99 by more than 1%");
    check(near(stageSum(inst.stageMeanUs), inst.meanUs, 0.01),
          "mean stage sum off the measured mean by more than 1%");
    for (const wk::TenantReport &tr : inst.tenants) {
        check(near(stageSum(tr.stageP99Us), tr.p99Us, 0.01),
              "tenant p99 stage sum off the tenant p99 by more than 1%");
        check(tr.p999Us >= tr.p99Us && tr.maxUs >= tr.p999Us,
              "tenant tail quantiles not monotone");
    }

    // 3. Recorder retention + export shape.
    const auto retained = recorder.retained();
    check(!retained.empty(), "recorder retained no traces");
    check(retained.size() <= frc.slowestK + frc.maxFailed,
          "recorder retained more than its configured budget");
    double worst_us = 0.0;
    for (const auto &rt : retained) {
        worst_us = std::max(
            worst_us, static_cast<double>(rt.meta.latency()) /
                          static_cast<double>(sim::kPsPerUs));
        check(!rt.spans.empty() || rt.meta.failed,
              "retained completed trace has no spans");
    }
    check(near(worst_us, inst.maxUs, 0.01),
          "slowest retained trace does not match the measured max");
    std::ostringstream chrome;
    recorder.writeChromeJson(chrome);
    check(chrome.str().rfind("{\"traceEvents\":[", 0) == 0,
          "slow-trace export is not a Chrome JSON document");
    if (const char *path = std::getenv("MORPHEUS_SLOW_TRACES")) {
        std::ofstream f(path);
        f << chrome.str();
        std::fprintf(stderr, "slow traces -> %s\n", path);
    }

    // 4. Timeline shape.
    check(!timeline.rows().empty(), "timeline recorded no rows");
    for (const auto &row : timeline.rows()) {
        check(row.values.size() == timeline.columns().size(),
              "timeline row width mismatch");
    }

    // --- report -------------------------------------------------------
    std::printf("{\n");
    std::printf("  \"completed\": %llu,\n",
                static_cast<unsigned long long>(inst.completed));
    std::printf("  \"p99_us\": %.2f,\n", inst.p99Us);
    std::printf("  \"p999_us\": %.2f,\n", inst.p999Us);
    std::printf("  \"max_us\": %.2f,\n", inst.maxUs);
    std::printf("  \"retained_traces\": %zu,\n", retained.size());
    std::printf("  \"timeline_rows\": %zu,\n", timeline.rows().size());
    std::printf("  \"tenants\": [\n");
    for (std::size_t i = 0; i < inst.tenants.size(); ++i) {
        const wk::TenantReport &tr = inst.tenants[i];
        std::printf("    {\"id\": %u, \"completed\": %llu, "
                    "\"p99_us\": %.2f, \"slo_burn_rate\": %.3f,\n",
                    tr.id,
                    static_cast<unsigned long long>(tr.completed),
                    tr.p99Us, tr.sloBurnRate);
        std::printf("     \"p99_breakdown_us\": {");
        for (std::size_t s = 0; s < obs::kNumStages; ++s) {
            std::printf("%s\"%s\": %.2f", s ? ", " : "",
                        obs::stageName(static_cast<obs::Stage>(s)),
                        tr.stageP99Us[s]);
        }
        std::printf("}}%s\n",
                    i + 1 == inst.tenants.size() ? "" : ",");
    }
    std::printf("  ]\n}\n");

    // Human-readable per-tenant stage shares on stderr: the "p99 is
    // 62% parse, 21% admission wait" view.
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

    const double bare_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double inst_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    std::fprintf(stderr,
                 "BENCH_RESULT {\"bench\": \"serving_breakdown\", "
                 "\"scale\": %g, \"completed\": %llu, "
                 "\"p99_us\": %.2f, \"retained\": %zu, "
                 "\"bare_ms\": %.1f, \"instrumented_ms\": %.1f, "
                 "\"self_check\": %s}\n",
                 morpheus::bench::benchScale(),
                 static_cast<unsigned long long>(inst.completed),
                 inst.p99Us, retained.size(), bare_ms, inst_ms,
                 ok ? "true" : "false");

    bench::writeBenchJson(
        "serving_breakdown", "observedP99Us", inst.p99Us, "us",
        /*higher_is_better=*/false,
        {{"completed", static_cast<double>(inst.completed), "requests"},
         {"p999Us", inst.p999Us, "us"},
         {"retainedTraces", static_cast<double>(retained.size()),
          "traces"}},
        bench::BenchConfig{});

    std::fprintf(stderr, "self-check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
