/**
 * @file
 * Overload gate: graceful degradation past device saturation.
 *
 * The paper sizes one Morpheus-SSD's embedded cores for its offered
 * load; past saturation a device-only deployment's tail collapses,
 * and a host-only deployment (the Fig 1 baseline path) caps out at
 * the host CPU's conversion rate. The hybrid execution layer
 * (sched::HybridPlacementPolicy + host::HostExecEngine) should beat
 * both at the same offered load by spilling and splitting across the
 * two executors, and shed the residual overload deterministically.
 *
 * Procedure:
 *   1. calibrate the device path's saturation throughput S with a
 *      closed-loop run (self-throttled, so the measured rate IS the
 *      service capacity);
 *   2. measure the pre-saturation p99 with an open-loop run at 0.5 x S
 *      under the hybrid config (which keeps everything on the device
 *      at that load);
 *   3. run the identical open-loop arrival trace at 1.6 x S three
 *      ways: device-only, host-only (forceHost), and hybrid
 *      (spill + split + shed);
 *   4. repeat the hybrid run with identical options.
 *
 * Self-checks (the exit status):
 *   - no run loses a request;
 *   - hybrid completed-throughput beats BOTH single-executor runs;
 *   - hybrid p99 stays within 3x the pre-saturation p99 (bounded
 *     degradation, not collapse);
 *   - the per-reason fallback counters sum to the fallback total;
 *   - the repeated hybrid run's federated metrics are byte-identical
 *     (the whole placement layer is bit-deterministic in its seed).
 *
 * Emits one JSON document on stdout; progress goes to stderr.
 */

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "bench_common.hh"
#include "obs/metrics.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

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

wk::ServingOptions
baseOptions()
{
    wk::ServingOptions opts;
    opts.durationSec = 0.02 * (morpheus::bench::benchScale() / 0.25);
    opts.seed = 42;
    for (std::uint32_t t = 0; t < 3; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        opts.tenants.push_back(spec);
    }
    opts.sys.ssd.sched.placement = sched::PlacementPolicy::kLoadAware;
    opts.sys.ssd.sched.maxInflightTotal = 12;
    opts.sys.ssd.sched.dsramPartitioning = true;
    opts.flushThreshold = 60 * sim::kKiB;
    return opts;
}

void
setRate(wk::ServingOptions &opts, double total_rate)
{
    for (wk::TenantSpec &t : opts.tenants)
        t.arrivalsPerSec =
            total_rate / static_cast<double>(opts.tenants.size());
}

std::string
reportString(const obs::MetricsRegistry &reg)
{
    std::ostringstream os;
    reg.report(os);
    return os.str();
}

void
printRunJson(const char *name, const wk::ServingReport &r, bool last)
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
    std::printf("      \"throughput_per_sec\": %.0f,\n",
                r.throughputPerSec);
    std::printf("      \"fallbacks\": {\"breaker\": %llu, "
                "\"overload\": %llu, \"probe\": %llu},\n",
                static_cast<unsigned long long>(r.fallbackBreaker),
                static_cast<unsigned long long>(r.fallbackOverload),
                static_cast<unsigned long long>(r.fallbackProbe));
    std::printf("      \"splits\": %llu,\n",
                static_cast<unsigned long long>(r.splitRequests));
    std::printf("      \"shed\": {\"bounces\": %llu, "
                "\"rejected\": %llu},\n",
                static_cast<unsigned long long>(r.shedBounces),
                static_cast<unsigned long long>(r.rejected));
    std::printf("      \"placements\": {\"device\": %llu, "
                "\"host\": %llu, \"split\": %llu, \"shed\": %llu, "
                "\"flips\": %llu},\n",
                static_cast<unsigned long long>(r.hybridDecisions[0]),
                static_cast<unsigned long long>(r.hybridDecisions[1]),
                static_cast<unsigned long long>(r.hybridDecisions[2]),
                static_cast<unsigned long long>(r.hybridDecisions[3]),
                static_cast<unsigned long long>(r.hybridFlips));
    std::printf("      \"p50_us\": %.2f,\n", r.p50Us);
    std::printf("      \"p99_us\": %.2f,\n", r.p99Us);
    std::printf("      \"max_us\": %.2f\n", r.maxUs);
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
                 "== serving_overload: hybrid execution past device "
                 "saturation ==\n");
    bench::EnvTrace trace;

    // 1. Calibrate device-path saturation with a closed loop: the
    // self-throttled completion rate is the service capacity.
    wk::ServingOptions cal_opts = baseOptions();
    cal_opts.closedLoop = true;
    cal_opts.closedLoopConcurrency = 8;
    cal_opts.closedLoopRequests = static_cast<std::uint64_t>(
        64.0 * (morpheus::bench::benchScale() / 0.25));
    if (cal_opts.closedLoopRequests < 16)
        cal_opts.closedLoopRequests = 16;
    const wk::ServingReport cal = wk::runServing(cal_opts);
    const double saturation = cal.throughputPerSec;
    std::fprintf(stderr, "saturation: %.0f req/s (closed loop)\n",
                 saturation);

    // 2. Pre-saturation tail under the hybrid config at 0.5 x S; the
    // policy keeps everything on the device at that load.
    wk::ServingOptions pre_opts = baseOptions();
    pre_opts.hybrid = hybridConfig();
    setRate(pre_opts, 0.5 * saturation);
    const wk::ServingReport pre = wk::runServing(pre_opts);
    std::fprintf(stderr, "pre-saturation: p99 %8.1f us at 0.5x\n",
                 pre.p99Us);

    // 3. The same offered load at 1.6 x S, three ways.
    const double offered = 1.6 * saturation;

    wk::ServingOptions dev_opts = baseOptions();
    setRate(dev_opts, offered);
    const wk::ServingReport dev = wk::runServing(dev_opts);
    std::fprintf(stderr,
                 "device-only: %llu completed, %.0f req/s, "
                 "p99 %8.1f us\n",
                 static_cast<unsigned long long>(dev.completed),
                 dev.throughputPerSec, dev.p99Us);

    wk::ServingOptions host_opts = baseOptions();
    host_opts.hybrid = hybridConfig();
    host_opts.hybrid.forceHost = true;
    host_opts.hybrid.shed = false;
    setRate(host_opts, offered);
    const wk::ServingReport host = wk::runServing(host_opts);
    std::fprintf(stderr,
                 "host-only  : %llu completed, %.0f req/s, "
                 "p99 %8.1f us\n",
                 static_cast<unsigned long long>(host.completed),
                 host.throughputPerSec, host.p99Us);

    obs::MetricsRegistry hy_reg;
    wk::ServingOptions hy_opts = baseOptions();
    hy_opts.hybrid = hybridConfig();
    hy_opts.metrics = &hy_reg;
    setRate(hy_opts, offered);
    const wk::ServingReport hy = wk::runServing(hy_opts);
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
    wk::ServingOptions hy2_opts = baseOptions();
    hy2_opts.hybrid = hybridConfig();
    hy2_opts.metrics = &hy2_reg;
    setRate(hy2_opts, offered);
    (void)wk::runServing(hy2_opts);

    bool ok = true;
    ok &= check(cal.lost == 0 && pre.lost == 0 && dev.lost == 0 &&
                    host.lost == 0 && hy.lost == 0,
                "a run lost requests");
    ok &= check(hy.completed + hy.rejected == hy.submitted,
                "hybrid run: completed+rejected != submitted");
    // Capacity: hybrid beats both single-executor deployments at the
    // same offered load.
    ok &= check(hy.throughputPerSec > dev.throughputPerSec,
                "hybrid does not beat device-only throughput");
    ok &= check(hy.throughputPerSec > host.throughputPerSec,
                "hybrid does not beat host-only throughput");
    // Bounded degradation: the tail inflates, but does not collapse.
    ok &= check(hy.p99Us <= 3.0 * pre.p99Us,
                "hybrid p99 exceeds 3x the pre-saturation p99");
    // The hybrid layer actually engaged (the comparison is not
    // vacuous) and its accounting is closed.
    ok &= check(hy.fallbackOverload + hy.splitRequests > 0,
                "hybrid never spilled or split");
    ok &= check(hy.fallbacks == hy.fallbackBreaker +
                                    hy.fallbackOverload +
                                    hy.fallbackProbe,
                "per-reason fallback counters do not sum to total");
    ok &= check(reportString(hy_reg) == reportString(hy2_reg),
                "hybrid rerun not bit-identical");

    const double best_single =
        std::max(dev.throughputPerSec, host.throughputPerSec);
    const double gain =
        best_single > 0.0 ? hy.throughputPerSec / best_single : 0.0;

    std::printf("{\n  \"saturation_per_sec\": %.0f,\n", saturation);
    std::printf("  \"offered_per_sec\": %.0f,\n", offered);
    std::printf("  \"pre_saturation_p99_us\": %.2f,\n", pre.p99Us);
    std::printf("  \"runs\": {\n");
    printRunJson("device_only", dev, false);
    printRunJson("host_only", host, false);
    printRunJson("hybrid", hy, true);
    std::printf("  },\n");
    std::printf("  \"hybrid_gain\": %.3f,\n", gain);
    std::printf("  \"self_check\": %s\n}\n", ok ? "true" : "false");

    bench::BenchConfig cfg;
    bench::writeBenchJson(
        "serving_overload", "hybridThroughputGain", gain, "x",
        /*higher_is_better=*/true,
        {{"saturationPerSec", saturation, "req/s"},
         {"deviceOnlyPerSec", dev.throughputPerSec, "req/s"},
         {"hostOnlyPerSec", host.throughputPerSec, "req/s"},
         {"hybridPerSec", hy.throughputPerSec, "req/s"},
         {"preSaturationP99Us", pre.p99Us, "us"},
         {"hybridP99Us", hy.p99Us, "us"},
         {"p99Inflation",
          pre.p99Us > 0.0 ? hy.p99Us / pre.p99Us : 0.0, "x"}},
        cfg);

    std::fprintf(stderr,
                 "BENCH_RESULT {\"bench\": \"serving_overload\", "
                 "\"scale\": %g, \"hybrid_gain\": %.3f, "
                 "\"p99_inflation\": %.3f, \"self_check\": %s}\n",
                 morpheus::bench::benchScale(), gain,
                 pre.p99Us > 0.0 ? hy.p99Us / pre.p99Us : 0.0,
                 ok ? "true" : "false");
    std::fprintf(stderr, "self-check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
