/**
 * @file
 * morpheus-run: command-line driver for single experiments.
 *
 * Usage:
 *   morpheus-run <app> [--mode baseline|morpheus|p2p]
 *                [--backend nvme|hdd|ram] [--freq GHZ] [--scale S]
 *                [--chunk-blocks N] [--seed N] [--stats]
 *                [--trace FILE.json] [--stats-json FILE]
 *
 * Runs one Table-I application once and prints the full metric record;
 * --stats additionally dumps the federated metrics registry (every
 * component counter under "sys.", the phase record under "run."),
 * --trace records a Chrome trace-event JSON of the run
 * (loadable in Perfetto / chrome://tracing), and --stats-json writes
 * the federated metrics registry as nested JSON.
 * `morpheus-run list` enumerates the apps. Every numeric flag takes
 * one number in its range; anything else exits 2 with the usage.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "obs/critical_path.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "sim/parse_number.hh"
#include "workloads/runner.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

constexpr std::uint64_t kU64Min = 0;
constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr double kDoubleMax = std::numeric_limits<double>::max();
/** Longest simulated span, in seconds, a 64-bit picosecond Tick holds. */
constexpr double kMaxSeconds =
    static_cast<double>(kU64Max / sim::kPsPerSec);

/** --scale range. Every app runs validated down to scale 1e-4 and
 *  some kernels' input checks fail below 1e-5, so the floor keeps a
 *  10x margin; above the ceiling the generators' element counts (at
 *  most 1.8M at scale 1) overflow 32 bits. */
constexpr double kMinScale = 0.001;
constexpr double kMaxScale = 1000.0;

/**
 * The value of numeric flag @p flag: all of @p text as one finite
 * number of type T in [lo, hi], with the lower / upper end excluded
 * when @p open_lo / @p open_hi. Anything else prints why and
 * @p usage_fn's text and exits 2.
 */
template <typename T>
T
flagValue(void (*usage_fn)(), const char *flag, const char *text, T lo,
          T hi, bool open_lo = false, bool open_hi = false)
{
    T v{};
    if (!sim::parseNumber(text, &v) || (open_lo ? v <= lo : v < lo) ||
        (open_hi ? v >= hi : v > hi)) {
        std::ostringstream range;
        range << (open_lo ? '(' : '[') << lo << ", " << hi
              << (open_hi ? ')' : ']');
        std::fprintf(stderr, "%s needs a number in %s: %s\n", flag,
                     range.str().c_str(), text);
        usage_fn();
        std::exit(2);
    }
    return v;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: morpheus-run <app>|list|serve\n"
        "                    [--mode baseline|morpheus|p2p]\n"
        "                    [--backend nvme|hdd|ram] [--freq GHZ]\n"
        "                    [--scale S] [--chunk-blocks N] [--seed N]\n"
        "                    [--stats] [--trace FILE.json]\n"
        "                    [--stats-json FILE]\n"
        "                    [--fault-plan key=value,...]\n"
        "                    [--recovery]\n"
        "                    [--pipeline]\n"
        "                    [--ssds N]\n"
        "                    [--cache] [--cache-bytes N]\n"
        "fault plan keys: media, dma, crash, hang, drop (rates),\n"
        "dma_min, watchdog_us, seed; also read from MORPHEUS_FAULTS.\n"
        "--recovery enables driver timeouts + bounded retries.\n"
        "--freq is the host CPU clock in GHz (1.2-2.5).\n"
        "--pipeline enables the streaming chunk pipeline (flash\n"
        "readahead + double-buffered parse + coalesced flush DMA).\n"
        "--ssds puts N SSDs (1-255) behind the switch (the app still\n"
        "runs on device 0; object placement across the fleet is\n"
        "exercised by the serving benches).\n"
        "--cache enables the deserialized-object cache in controller\n"
        "DRAM with LRU eviction; --cache-bytes sets its budget\n"
        "(shared with the readahead buffer, default 64 MiB).\n"
        "`morpheus-run serve --help` describes the multi-tenant\n"
        "serving driver (stage breakdown, slow-trace flight recorder,\n"
        "timeline telemetry, SLO burn tracking).\n");
}

void
serveUsage()
{
    std::fprintf(
        stderr,
        "usage: morpheus-run serve [--tenants N] [--rate R] [--skew S]\n"
        "                    [--duration-sec S] [--closed-loop]\n"
        "                    [--requests N] [--seed N] [--ssds N]\n"
        "                    [--breakdown] [--slow-traces FILE.json]\n"
        "                    [--slow-k N] [--timeline FILE.json]\n"
        "                    [--timeline-csv FILE.csv]\n"
        "                    [--timeline-interval-us N]\n"
        "                    [--slo TARGET_US] [--slo-objective F]\n"
        "                    [--slo-window-us N] [--stats-json FILE]\n"
        "                    [--trace FILE.json] [--hybrid]\n"
        "                    [--host-cost-scale F] [--shed]\n"
        "                    [--format int|csv|json|columnar]\n"
        "                    [--selectivity F] [--project N]\n"
        "                    [--no-pushdown] [--write-fraction F]\n"
        "Runs the multi-tenant serving driver once and prints the\n"
        "report. --rate is total arrivals/s split S:1:...:1 across the\n"
        "tenants (tenant 1 gets the S share). --closed-loop ignores\n"
        "--rate and --duration-sec: each tenant keeps 4 requests in\n"
        "flight until it has issued --requests (default 64).\n"
        "--ssds puts N SSDs (1-255) behind the switch; each object\n"
        "file lives whole on the SSD its name hashes to.\n"
        "--breakdown attributes every request's latency to pipeline\n"
        "stages; --slow-traces\n"
        "writes the flight recorder's retained slowest-K/failed traces\n"
        "as Chrome JSON (open in Perfetto); --timeline samples gauges\n"
        "every --timeline-interval-us (default 100) into JSON/CSV;\n"
        "--slo tracks per-tenant burn rate against TARGET_US at\n"
        "--slo-objective in (0, 1) (default 0.99), with good/bad\n"
        "--slo-window-us windows (default 5000; 0 = no windows).\n"
        "Hybrid execution (all off by default):\n"
        "  --hybrid             place each request on the device, the\n"
        "                       host CPU, or a split of the two by live\n"
        "                       load (graceful degradation past device\n"
        "                       saturation)\n"
        "  --host-cost-scale F  multiply the host path's modeled\n"
        "                       conversion cycles by F (slower host)\n"
        "  --shed               bounce requests with retry-after when\n"
        "                       BOTH device and host are saturated\n"
        "Object format (all tenants; default int = binary int arrays):\n"
        "  --format NAME        int, csv, json, or columnar\n"
        "  --selectivity F      columnar: fraction of rows the pushdown\n"
        "                       predicate keeps (0 < F <= 1, default 1)\n"
        "  --project N          columnar: project only the first N\n"
        "                       columns (0 = all, the default)\n"
        "  --no-pushdown        columnar: ship the full table instead\n"
        "                       of pushing the scan down to the device\n"
        "  --write-fraction F   fraction of requests that serialize\n"
        "                       host objects to flash via MWRITE\n"
        "                       (default 0 = read-only)\n");
}

int
serveMain(int argc, char **argv)
{
    wk::ServingOptions opts;
    opts.durationSec = 0.02;
    opts.seed = 42;
    unsigned tenants = 3;
    double rate = 12000.0, skew = 1.0;
    obs::FlightRecorderConfig frc;
    std::string slow_path, timeline_path, timeline_csv_path;
    std::string stats_json_path, trace_path;
    sim::Tick timeline_interval = 100 * sim::kPsPerUs;
    wk::TenantFormat format = wk::TenantFormat::kIntArray;
    double selectivity = 1.0, write_fraction = 0.0;
    unsigned project = 0;
    bool pushdown = true;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        auto num = [&](const char *flag, auto lo, auto hi,
                       bool open_lo = false, bool open_hi = false) {
            return flagValue(serveUsage, flag, next(flag), lo, hi,
                             open_lo, open_hi);
        };
        if (arg == "--tenants") {
            tenants = num("--tenants", 1u, ~0u);
        } else if (arg == "--rate") {
            rate = num("--rate", 0.0, kDoubleMax, true);
        } else if (arg == "--skew") {
            skew = num("--skew", 0.0, kDoubleMax, true);
        } else if (arg == "--duration-sec") {
            opts.durationSec = num("--duration-sec", 0.0, kMaxSeconds, true);
        } else if (arg == "--closed-loop") {
            opts.closedLoop = true;
        } else if (arg == "--requests") {
            opts.closedLoopRequests = num("--requests", kU64Min, kU64Max);
        } else if (arg == "--seed") {
            opts.seed = num("--seed", kU64Min, kU64Max);
        } else if (arg == "--ssds") {
            opts.sys.numSsds = num("--ssds", 1u, host::kMaxSsds);
        } else if (arg == "--breakdown") {
            opts.breakdown = true;
        } else if (arg == "--slow-traces") {
            slow_path = next("--slow-traces");
        } else if (arg == "--slow-k") {
            frc.slowestK = num("--slow-k", std::size_t{0},
                               std::numeric_limits<std::size_t>::max());
        } else if (arg == "--timeline") {
            timeline_path = next("--timeline");
        } else if (arg == "--timeline-csv") {
            timeline_csv_path = next("--timeline-csv");
        } else if (arg == "--timeline-interval-us") {
            timeline_interval = num("--timeline-interval-us", sim::Tick{1},
                                    kU64Max / sim::kPsPerUs) *
                                sim::kPsPerUs;
        } else if (arg == "--slo") {
            opts.slo.enabled = true;
            opts.slo.targetUs = num("--slo", 0.0, kDoubleMax, true);
        } else if (arg == "--slo-objective") {
            opts.slo.enabled = true;
            opts.slo.objective =
                num("--slo-objective", 0.0, 1.0, true, true);
        } else if (arg == "--slo-window-us") {
            opts.slo.enabled = true;
            opts.slo.windowUs = num("--slo-window-us", 0.0, kDoubleMax);
        } else if (arg == "--stats-json") {
            stats_json_path = next("--stats-json");
        } else if (arg == "--trace") {
            trace_path = next("--trace");
        } else if (arg == "--hybrid") {
            opts.hybrid.enabled = true;
        } else if (arg == "--host-cost-scale") {
            opts.hybrid.hostCostScale =
                num("--host-cost-scale", 0.0, kDoubleMax, true);
        } else if (arg == "--shed") {
            opts.hybrid.enabled = true;
            opts.hybrid.shed = true;
        } else if (arg == "--format") {
            const char *name = next("--format");
            if (!wk::tenantFormatFromName(name, &format)) {
                std::fprintf(stderr, "unknown format: %s\n", name);
                return 2;
            }
        } else if (arg == "--selectivity") {
            selectivity = num("--selectivity", 0.0, 1.0, true);
        } else if (arg == "--project") {
            project = num("--project", 0u, wk::TenantSpec{}.tableColumns);
        } else if (arg == "--no-pushdown") {
            pushdown = false;
        } else if (arg == "--write-fraction") {
            write_fraction = num("--write-fraction", 0.0, 1.0);
        } else if (arg == "--help" || arg == "-h") {
            serveUsage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            serveUsage();
            return 2;
        }
    }
    const double base =
        rate / (skew + static_cast<double>(tenants - 1));
    for (std::uint32_t t = 0; t < tenants; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        spec.arrivalsPerSec = (t == 0) ? skew * base : base;
        spec.format = format;
        spec.selectivity = selectivity;
        spec.projectColumns = project;
        spec.pushdown = pushdown;
        spec.writeFraction = write_fraction;
        opts.tenants.push_back(spec);
    }

    obs::MetricsRegistry registry;
    if (!stats_json_path.empty())
        opts.metrics = &registry;

    // The flight recorder is the trace sink (tee-ing to a full-trace
    // InMemoryTraceSink when --trace also wants everything).
    obs::InMemoryTraceSink full_trace;
    if (!trace_path.empty())
        frc.downstream = &full_trace;
    obs::FlightRecorder recorder(frc);
    obs::FlightRecorder *rec = nullptr;
    if (!slow_path.empty() || !trace_path.empty() || opts.breakdown) {
        rec = &recorder;
        opts.flightRecorder = rec;
    }
    obs::Timeline timeline(timeline_interval);
    if (!timeline_path.empty() || !timeline_csv_path.empty())
        opts.timeline = &timeline;

    const wk::ServingReport r = wk::runServing(opts);

    auto write_file = [](const std::string &path, auto &&emit) {
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            std::exit(2);
        }
        emit(os);
    };
    if (!slow_path.empty()) {
        write_file(slow_path, [&](std::ostream &os) {
            rec->writeChromeJson(os);
        });
        std::fprintf(stderr, "slow traces: %zu retained -> %s\n",
                     rec->retained().size(), slow_path.c_str());
    }
    if (!trace_path.empty()) {
        write_file(trace_path, [&](std::ostream &os) {
            obs::writeChromeTrace(os, full_trace.spans());
        });
        std::fprintf(stderr, "trace: %zu events -> %s\n",
                     full_trace.size(), trace_path.c_str());
    }
    if (!timeline_path.empty()) {
        write_file(timeline_path, [&](std::ostream &os) {
            timeline.writeJson(os);
        });
        std::fprintf(stderr, "timeline: %zu rows -> %s\n",
                     timeline.rows().size(), timeline_path.c_str());
    }
    if (!timeline_csv_path.empty()) {
        write_file(timeline_csv_path, [&](std::ostream &os) {
            timeline.writeCsv(os);
        });
    }
    if (!stats_json_path.empty()) {
        write_file(stats_json_path, [&](std::ostream &os) {
            registry.writeJson(os);
        });
    }

    std::printf("submitted              %llu\n",
                static_cast<unsigned long long>(r.submitted));
    std::printf("completed              %llu\n",
                static_cast<unsigned long long>(r.completed));
    std::printf("rejected               %llu\n",
                static_cast<unsigned long long>(r.rejected));
    std::printf("lost                   %llu\n",
                static_cast<unsigned long long>(r.lost));
    std::printf("throughput             %.0f /s\n", r.throughputPerSec);
    std::printf("latency mean/p50       %.1f / %.1f us\n", r.meanUs,
                r.p50Us);
    std::printf("latency p95/p99        %.1f / %.1f us\n", r.p95Us,
                r.p99Us);
    std::printf("latency p999/max       %.1f / %.1f us\n", r.p999Us,
                r.maxUs);
    std::printf("jain fairness          %.4f\n", r.jainFairness);
    if (opts.hybrid.enabled) {
        std::printf(
            "hybrid placements      device %llu  host %llu  "
            "split %llu  shed %llu  (flips %llu)\n",
            static_cast<unsigned long long>(r.hybridDecisions[0]),
            static_cast<unsigned long long>(r.hybridDecisions[1]),
            static_cast<unsigned long long>(r.hybridDecisions[2]),
            static_cast<unsigned long long>(r.hybridDecisions[3]),
            static_cast<unsigned long long>(r.hybridFlips));
        std::printf(
            "host-path fallbacks    breaker %llu  overload %llu  "
            "probe %llu  shed-rejected %llu\n",
            static_cast<unsigned long long>(r.fallbackBreaker),
            static_cast<unsigned long long>(r.fallbackOverload),
            static_cast<unsigned long long>(r.fallbackProbe),
            static_cast<unsigned long long>(r.rejected));
    }
    for (const wk::TenantReport &t : r.tenants) {
        std::printf("tenant %-2u              completed %llu  "
                    "p99 %.1f us  p999 %.1f us\n",
                    t.id, static_cast<unsigned long long>(t.completed),
                    t.p99Us, t.p999Us);
        if (opts.slo.enabled) {
            std::printf("  slo %.0f us           violations %llu  "
                        "windows %llu good / %llu bad  burn %.2fx\n",
                        t.sloTargetUs,
                        static_cast<unsigned long long>(t.sloViolations),
                        static_cast<unsigned long long>(t.sloGoodWindows),
                        static_cast<unsigned long long>(t.sloBadWindows),
                        t.sloBurnRate);
        }
    }
    for (const wk::ShardReport &s : r.shards) {
        std::printf("shard %-3u              requests %llu  "
                    "p99 %.1f us%s\n",
                    s.device,
                    static_cast<unsigned long long>(s.requests), s.p99Us,
                    s.device == r.stragglerShard ? "  <- straggler"
                                                 : "");
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

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string app_name = argv[1];
    if (app_name == "list")
        return listApps();
    if (app_name == "serve")
        return serveMain(argc, argv);
    if (app_name == "--help" || app_name == "-h") {
        usage();
        return 0;
    }

    wk::RunOptions opts;
    opts.mode = wk::ExecutionMode::kBaseline;
    opts.scale = 0.25;
    // MORPHEUS_FAULTS seeds the plan; --fault-plan overrides it.
    opts.faults = sim::FaultPlan::fromEnv();
    bool dump_stats = false;
    std::string trace_path;
    std::string stats_json_path;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        auto num = [&](const char *flag, auto lo, auto hi,
                       bool open_lo = false) {
            return flagValue(usage, flag, next(flag), lo, hi, open_lo);
        };
        if (arg == "--mode") {
            const std::string m = next("--mode");
            if (m == "baseline") {
                opts.mode = wk::ExecutionMode::kBaseline;
            } else if (m == "morpheus") {
                opts.mode = wk::ExecutionMode::kMorpheus;
            } else if (m == "p2p") {
                opts.mode = wk::ExecutionMode::kMorpheusP2p;
            } else {
                std::fprintf(stderr, "unknown mode: %s\n", m.c_str());
                return 2;
            }
        } else if (arg == "--backend") {
            const std::string b = next("--backend");
            if (b == "nvme") {
                opts.backend = wk::BackendKind::kNvme;
            } else if (b == "hdd") {
                opts.backend = wk::BackendKind::kHdd;
            } else if (b == "ram") {
                opts.backend = wk::BackendKind::kRamDrive;
            } else {
                std::fprintf(stderr, "unknown backend: %s\n",
                             b.c_str());
                return 2;
            }
        } else if (arg == "--freq") {
            const host::CpuConfig cpu;
            opts.cpuFreqHz = num("--freq", cpu.minFreqHz / 1e9,
                                 cpu.maxFreqHz / 1e9) *
                             1e9;
        } else if (arg == "--scale") {
            opts.scale = num("--scale", kMinScale, kMaxScale);
        } else if (arg == "--chunk-blocks") {
            opts.chunkBlocks = num("--chunk-blocks", 0u, ~0u);
        } else if (arg == "--seed") {
            opts.seed = num("--seed", kU64Min, kU64Max);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--fault-plan") {
            std::string error;
            if (!sim::FaultPlan::tryParse(next("--fault-plan"),
                                          &opts.faults, &error)) {
                std::fprintf(stderr, "--fault-plan: %s\n", error.c_str());
                usage();
                return 2;
            }
        } else if (arg == "--recovery") {
            opts.recovery.enabled = true;
        } else if (arg == "--pipeline") {
            opts.sys.ssd.pipeline.enabled = true;
        } else if (arg == "--cache") {
            opts.sys.ssd.cache.enabled = true;
        } else if (arg == "--cache-bytes") {
            opts.sys.ssd.cache.budgetBytes =
                num("--cache-bytes", kU64Min, kU64Max);
        } else if (arg == "--ssds") {
            opts.sys.numSsds = num("--ssds", 1u, host::kMaxSsds);
        } else if (arg == "--trace") {
            trace_path = next("--trace");
        } else if (arg == "--stats-json") {
            stats_json_path = next("--stats-json");
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    obs::MetricsRegistry registry;
    if (dump_stats || !stats_json_path.empty())
        opts.metrics = &registry;
    const wk::AppSpec &app = wk::findApp(app_name);

    wk::RunMetrics m;
    if (!trace_path.empty()) {
        obs::InMemoryTraceSink trace;
        {
            const obs::ScopedTraceSink attach(trace);
            m = wk::runWorkload(app, opts);
        }
        std::ofstream os(trace_path);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
            return 2;
        }
        obs::writeChromeTrace(os, trace.spans());
        std::fprintf(stderr, "trace: %zu events -> %s\n", trace.size(),
                     trace_path.c_str());
    } else {
        m = wk::runWorkload(app, opts);
    }

    if (!stats_json_path.empty()) {
        std::ofstream os(stats_json_path);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         stats_json_path.c_str());
            return 2;
        }
        registry.writeJson(os);
    }

    std::printf("app                    %s (%s)\n", app.name.c_str(),
                app.suite.c_str());
    std::printf("validated              %s\n",
                m.validated ? "yes" : "NO - RESULT MISMATCH");
    std::printf("raw text               %.3f MB\n",
                m.rawTextBytes / 1e6);
    std::printf("objects produced       %.3f MB\n",
                m.objectBytesProduced / 1e6);
    std::printf("deserialization        %.3f ms\n",
                sim::ticksToSeconds(m.deserTime) * 1e3);
    std::printf("gpu copy               %.3f ms\n",
                sim::ticksToSeconds(m.gpuCopyTime) * 1e3);
    std::printf("kernel                 %.3f ms\n",
                sim::ticksToSeconds(m.kernelTime) * 1e3);
    std::printf("other cpu              %.3f ms\n",
                sim::ticksToSeconds(m.otherCpuTime) * 1e3);
    std::printf("total                  %.3f ms\n",
                sim::ticksToSeconds(m.totalTime) * 1e3);
    std::printf("effective bandwidth    %.1f MB/s per I/O thread\n",
                m.effectiveBandwidthMBps);
    std::printf("context switches       %llu (%.0f/s)\n",
                static_cast<unsigned long long>(m.contextSwitchesDeser),
                m.contextSwitchesPerSec);
    std::printf("PCIe traffic (deser)   %.3f MB\n",
                m.pcieBytesDeser / 1e6);
    std::printf("memory bus (deser)     %.3f MB\n",
                m.membusBytesDeser / 1e6);
    std::printf("P2P bytes              %.3f MB\n", m.p2pBytes / 1e6);
    std::printf("system power (deser)   %.1f W\n", m.deserPowerWatts);
    std::printf("energy (deser)         %.4f J\n",
                m.deserEnergyJoules);
    std::printf("kernel checksum        %016llx\n",
                static_cast<unsigned long long>(m.kernelChecksum));

    if (dump_stats) {
        std::ostringstream report;
        registry.report(report);
        std::printf("\n-- metrics registry --\n");
        std::fputs(report.str().c_str(), stdout);
    }
    return m.validated ? 0 : 1;
}
