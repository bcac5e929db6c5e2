/**
 * @file
 * morpheus-run: runs one experiment from one command line.
 *
 *   morpheus-run <app> [flags]   one Table I (or extension) app, once
 *   morpheus-run serve [flags]   the multi-tenant serving driver, once
 *   morpheus-run list            the apps
 *
 * The flags, their ranges and the usage text (`--help`) come from the
 * tables in workloads/run_line.cc. Every run echoes on stderr the
 * canonical line that replays it, and prints its metrics on stdout.
 * A flag the table does not know, a value out of its range, or a flag
 * whose feature is off exits 2 with the usage; a run whose objects
 * fail validation exits 1.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critical_path.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "workloads/run_line.hh"
#include "workloads/runner.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/**
 * Write @p path, unless it is empty, through @p emit; exit 2 when it
 * cannot be opened. @return whether it was written.
 */
template <typename Emit>
bool
writeFile(const std::string &path, Emit &&emit)
{
    if (path.empty())
        return false;
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(2);
    }
    emit(os);
    return true;
}

using ull = unsigned long long;

int
serveMain(const wk::ServeLine &line)
{
    wk::ServingOptions opts = line.options();
    obs::MetricsRegistry registry;
    if (!line.statsJsonPath.empty())
        opts.metrics = &registry;

    // The flight recorder is the trace sink (tee-ing to a full-trace
    // InMemoryTraceSink when --trace also wants everything).
    obs::FlightRecorderConfig frc;
    frc.slowestK = line.slowK;
    obs::InMemoryTraceSink full_trace;
    if (!line.tracePath.empty())
        frc.downstream = &full_trace;
    obs::FlightRecorder recorder(frc);
    if (!line.slowTracesPath.empty() || !line.tracePath.empty() ||
        opts.breakdown)
        opts.flightRecorder = &recorder;
    obs::Timeline timeline(line.timelineIntervalUs * sim::kPsPerUs);
    if (!line.timelinePath.empty() || !line.timelineCsvPath.empty())
        opts.timeline = &timeline;

    const wk::ServingReport r = wk::runServing(opts);

    if (writeFile(line.slowTracesPath,
                  [&](std::ostream &os) { recorder.writeChromeJson(os); }))
        std::fprintf(stderr, "slow traces: %zu retained -> %s\n",
                     recorder.retained().size(), line.slowTracesPath.c_str());
    if (writeFile(line.tracePath, [&](std::ostream &os) {
            obs::writeChromeTrace(os, full_trace.spans());
        }))
        std::fprintf(stderr, "trace: %zu events -> %s\n", full_trace.size(),
                     line.tracePath.c_str());
    if (writeFile(line.timelinePath,
                  [&](std::ostream &os) { timeline.writeJson(os); }))
        std::fprintf(stderr, "timeline: %zu rows -> %s\n",
                     timeline.rows().size(), line.timelinePath.c_str());
    writeFile(line.timelineCsvPath,
              [&](std::ostream &os) { timeline.writeCsv(os); });
    writeFile(line.statsJsonPath,
              [&](std::ostream &os) { registry.writeJson(os); });

    std::printf("submitted              %llu\n", ull(r.submitted));
    std::printf("completed              %llu\n", ull(r.completed));
    std::printf("rejected               %llu\n", ull(r.rejected));
    std::printf("lost                   %llu\n", ull(r.lost));
    std::printf("throughput             %.0f /s\n", r.throughputPerSec);
    std::printf("latency mean/p50       %.1f / %.1f us\n", r.meanUs,
                r.p50Us);
    std::printf("latency p95/p99        %.1f / %.1f us\n", r.p95Us,
                r.p99Us);
    std::printf("latency p999/max       %.1f / %.1f us\n", r.p999Us,
                r.maxUs);
    std::printf("jain fairness          %.4f\n", r.jainFairness);
    if (opts.hybrid.enabled) {
        std::printf("hybrid placements      device %llu  host %llu  "
                    "split %llu  shed %llu  (flips %llu)\n",
                    ull(r.hybridDecisions[0]), ull(r.hybridDecisions[1]),
                    ull(r.hybridDecisions[2]), ull(r.hybridDecisions[3]),
                    ull(r.hybridFlips));
        std::printf("host-path fallbacks    breaker %llu  overload %llu  "
                    "probe %llu  shed-rejected %llu\n",
                    ull(r.fallbackBreaker), ull(r.fallbackOverload),
                    ull(r.fallbackProbe), ull(r.rejected));
    }
    for (const wk::TenantReport &t : r.tenants) {
        std::printf("tenant %-2u              completed %llu  "
                    "p99 %.1f us  p999 %.1f us\n",
                    t.id, ull(t.completed), t.p99Us, t.p999Us);
        if (opts.slo.enabled) {
            std::printf("  slo %.0f us           violations %llu  "
                        "windows %llu good / %llu bad  burn %.2fx\n",
                        t.sloTargetUs, ull(t.sloViolations),
                        ull(t.sloGoodWindows), ull(t.sloBadWindows),
                        t.sloBurnRate);
        }
    }
    for (const wk::ShardReport &s : r.shards) {
        std::printf("shard %-3u              requests %llu  "
                    "p99 %.1f us%s\n",
                    s.device, ull(s.requests), s.p99Us,
                    s.device == r.stragglerShard ? "  <- straggler" : "");
    }
    if (opts.breakdown && r.attributed > 0) {
        std::printf("\n-- p99 critical path (all tenants) --\n");
        double total = 0.0;
        for (const double v : r.stageP99Us)
            total += v;
        for (std::size_t s = 0; s < obs::kNumStages; ++s) {
            if (r.stageP99Us[s] <= 0.0)
                continue;
            std::printf("%-12s %10.1f us  %5.1f%%\n",
                        obs::stageName(static_cast<obs::Stage>(s)),
                        r.stageP99Us[s],
                        total > 0.0 ? 100.0 * r.stageP99Us[s] / total
                                    : 0.0);
        }
        std::printf("%-12s %10.1f us  (p99 %.1f us)\n", "sum", total,
                    r.p99Us);
    }
    return 0;
}

int
appMain(wk::AppLine &line)
{
    obs::MetricsRegistry registry;
    if (line.stats || !line.statsJsonPath.empty())
        line.opts.metrics = &registry;
    const wk::AppSpec &app = wk::findApp(line.app);

    obs::InMemoryTraceSink trace;
    wk::RunMetrics m;
    if (!line.tracePath.empty()) {
        const obs::ScopedTraceSink attach(trace);
        m = wk::runWorkload(app, line.opts);
    } else {
        m = wk::runWorkload(app, line.opts);
    }
    if (writeFile(line.tracePath, [&](std::ostream &os) {
            obs::writeChromeTrace(os, trace.spans());
        }))
        std::fprintf(stderr, "trace: %zu events -> %s\n", trace.size(),
                     line.tracePath.c_str());
    writeFile(line.statsJsonPath,
              [&](std::ostream &os) { registry.writeJson(os); });

    const auto ms = [](sim::Tick t) { return sim::ticksToSeconds(t) * 1e3; };
    std::printf("app                    %s (%s)\n", app.name.c_str(),
                app.suite.c_str());
    std::printf("validated              %s\n",
                m.validated ? "yes" : "NO - RESULT MISMATCH");
    std::printf("raw text               %.3f MB\n", m.rawTextBytes / 1e6);
    std::printf("objects produced       %.3f MB\n",
                m.objectBytesProduced / 1e6);
    std::printf("deserialization        %.3f ms\n", ms(m.deserTime));
    std::printf("gpu copy               %.3f ms\n", ms(m.gpuCopyTime));
    std::printf("kernel                 %.3f ms\n", ms(m.kernelTime));
    std::printf("other cpu              %.3f ms\n", ms(m.otherCpuTime));
    std::printf("total                  %.3f ms\n", ms(m.totalTime));
    std::printf("effective bandwidth    %.1f MB/s per I/O thread\n",
                m.effectiveBandwidthMBps);
    std::printf("context switches       %llu (%.0f/s)\n",
                ull(m.contextSwitchesDeser), m.contextSwitchesPerSec);
    std::printf("PCIe traffic (deser)   %.3f MB\n", m.pcieBytesDeser / 1e6);
    std::printf("memory bus (deser)     %.3f MB\n", m.membusBytesDeser / 1e6);
    std::printf("P2P bytes              %.3f MB\n", m.p2pBytes / 1e6);
    std::printf("system power (deser)   %.1f W\n", m.deserPowerWatts);
    std::printf("energy (deser)         %.4f J\n", m.deserEnergyJoules);
    std::printf("kernel checksum        %016llx\n", ull(m.kernelChecksum));

    if (line.stats) {
        std::ostringstream report;
        registry.report(report);
        std::printf("\n-- metrics registry --\n");
        std::fputs(report.str().c_str(), stdout);
    }
    return m.validated ? 0 : 1;
}

int
listApps()
{
    std::printf("%-12s %-14s %-6s %12s\n", "app", "suite", "ranks",
                "paper input");
    for (const auto &app : wk::standardSuite()) {
        std::printf("%-12s %-14s %-6u %9.2f GB\n", app.name.c_str(),
                    app.suite.c_str(), app.ranks,
                    static_cast<double>(app.paperInputBytes) / 1e9);
    }
    return 0;
}

/**
 * Parse @p args into a Line and run it with @p run, after echoing its
 * replay line on stderr. --help prints the usage on stdout and exits
 * 0; a refused line prints why and the usage on stderr and exits 2.
 */
template <typename Line, typename Run>
int
runLine(const std::vector<std::string> &args, Line line, Run run)
{
    std::string error;
    const wk::LineStatus status = wk::parseLine(args, &line, &error);
    if (status == wk::LineStatus::kHelp) {
        std::fputs(wk::usage<Line>().c_str(), stdout);
        return 0;
    }
    if (status == wk::LineStatus::kRefused) {
        std::fprintf(stderr, "%s\n%s", error.c_str(),
                     wk::usage<Line>().c_str());
        return 2;
    }
    std::fprintf(stderr, "run: morpheus-run %s\n",
                 wk::printLine(line).c_str());
    return run(line);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        std::fputs(wk::usage<wk::AppLine>().c_str(), stderr);
        return 2;
    }
    if (args[0] == "list")
        return listApps();
    if (args[0] == "serve")
        return runLine(args, wk::ServeLine{}, serveMain);
    // MORPHEUS_FAULTS reads as a --fault-plan ahead of the flags, so a
    // --fault-plan among them overrides it.
    if (const char *plan = std::getenv("MORPHEUS_FAULTS"); plan && *plan)
        args.insert(args.begin() + 1, {"--fault-plan", plan});
    return runLine(args, wk::AppLine{}, appMain);
}
