/**
 * @file
 * Overload gate: graceful degradation past device saturation.
 *
 * The paper sizes one Morpheus-SSD's embedded cores for its offered
 * load; past saturation a device-only deployment's tail collapses,
 * and a host-only deployment (the Fig 1 baseline path) caps out at
 * the host CPU's conversion rate. The hybrid execution layer
 * (sched::HybridPlacementPolicy + host::hostExecute) should beat
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
 * Writes BENCH_serving_overload.json with the federated metrics of
 * runs 1-3; progress goes to stderr.
 */

#include <algorithm>
#include <cstdio>

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
    bench::BenchRuns runs;
    const wk::ServingReport cal =
        bench::runRecorded(runs, "calibration", cal_opts);
    const double saturation = cal.throughputPerSec;
    std::fprintf(stderr, "saturation: %.0f req/s (closed loop)\n",
                 saturation);

    // 2. Pre-saturation tail under the hybrid config at 0.5 x S; the
    // policy keeps everything on the device at that load.
    wk::ServingOptions pre_opts = baseOptions();
    pre_opts.hybrid = hybridConfig();
    setRate(pre_opts, 0.5 * saturation);
    const wk::ServingReport pre =
        bench::runRecorded(runs, "pre_saturation", pre_opts);
    std::fprintf(stderr, "pre-saturation: p99 %8.1f us at 0.5x\n",
                 pre.p99Us);

    // 3. The same offered load at 1.6 x S, three ways.
    const double offered = 1.6 * saturation;

    wk::ServingOptions dev_opts = baseOptions();
    setRate(dev_opts, offered);
    const wk::ServingReport dev =
        bench::runRecorded(runs, "device_only", dev_opts);
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
    const wk::ServingReport host =
        bench::runRecorded(runs, "host_only", host_opts);
    std::fprintf(stderr,
                 "host-only  : %llu completed, %.0f req/s, "
                 "p99 %8.1f us\n",
                 static_cast<unsigned long long>(host.completed),
                 host.throughputPerSec, host.p99Us);

    wk::ServingOptions hy_opts = baseOptions();
    hy_opts.hybrid = hybridConfig();
    setRate(hy_opts, offered);
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

    bench::Gates check;
    check(cal.lost == 0 && pre.lost == 0 && dev.lost == 0 &&
              host.lost == 0 && hy.lost == 0,
          "no run loses requests");
    check(hy.completed + hy.rejected == hy.submitted,
          "hybrid: completed + rejected == submitted");
    // Capacity: hybrid beats both single-executor deployments at the
    // same offered load.
    check(hy.throughputPerSec > dev.throughputPerSec,
          "hybrid beats device-only throughput");
    check(hy.throughputPerSec > host.throughputPerSec,
          "hybrid beats host-only throughput");
    // Bounded degradation: the tail inflates, but does not collapse.
    check(hy.p99Us <= 3.0 * pre.p99Us,
          "hybrid p99 within 3x the pre-saturation p99");
    // The hybrid layer actually engaged (the comparison is not
    // vacuous) and its accounting is closed.
    check(hy.fallbackOverload + hy.splitRequests > 0,
          "hybrid spilled or split");
    check(hy.fallbacks == hy.fallbackBreaker + hy.fallbackOverload +
                              hy.fallbackProbe,
          "per-reason fallbacks sum to the total");
    check(hy_reg == hy2_reg, "hybrid rerun bit-identical");

    const double best_single =
        std::max(dev.throughputPerSec, host.throughputPerSec);
    const double gain =
        best_single > 0.0 ? hy.throughputPerSec / best_single : 0.0;

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
        hy_opts.sys, runs);
    return check.exitStatus();
}
