/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Each bench binary prints the rows/series of one paper artifact,
 * except fig11_end_to_end, which prints every artifact of the paper
 * sweep, ablations, which prints every design-choice ablation and the
 * CSV/JSON and columnar pushdown extension studies, and serving, which
 * runs every serving extension whose gates are all simulated
 * (serving_tail_latency stays apart: one of its gates reads host wall
 * clock). Every bench but fig08 reports its self-checks through
 * Gates. Default scale keeps each full-suite sweep in the seconds
 * range; override with MORPHEUS_BENCH_SCALE (a double) for bigger
 * inputs. Reported quantities are ratios or rates, but they are
 * not scale-invariant: the sweep's mean Morpheus end-to-end speedup is
 * 1.24x at scale 0.05 and 1.42x at 0.25. Compare results made at one
 * scale only (the CI gates run at 0.05). Serving runs never go below
 * their default window (servingWindows), so they are the same at
 * every scale up to 0.25.
 */

#ifndef MORPHEUS_BENCH_BENCH_COMMON_HH
#define MORPHEUS_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "host/system_config.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/parse_number.hh"
#include "workloads/runner.hh"
#include "workloads/serving.hh"

namespace morpheus::bench {

/**
 * Bench input scale (Table I sizes / ~800 by default). A
 * MORPHEUS_BENCH_SCALE that is not all one number in [0.001, 1000]
 * (the range of morpheus-run's --scale) exits 2 with a message.
 */
inline double
benchScale()
{
    const char *env = std::getenv("MORPHEUS_BENCH_SCALE");
    if (!env)
        return 0.25;
    double scale = 0.0;
    if (!sim::parseNumber(env, &scale) || scale < 0.001 ||
        scale > 1000.0) {
        std::fprintf(stderr,
                     "MORPHEUS_BENCH_SCALE needs a number in "
                     "[0.001, 1000]: %s\n",
                     env);
        std::exit(2);
    }
    return scale;
}

/**
 * How many default windows a serving run spans: every serving window
 * (20 ms of open-loop arrivals) and request quota is its length at the
 * default scale 0.25 times this. Below 0.25 it stays 1: a shorter
 * window does not measure what the serving gates claim (not every
 * fault class fires, and one shifted completion moves a throughput
 * headline by ~9%), so every scale up to 0.25 runs the same serving
 * load and larger scales lengthen it.
 */
inline double
servingWindows()
{
    return std::max(1.0, benchScale() / 0.25);
}

/**
 * Environment-driven tracing for bench binaries: when MORPHEUS_TRACE
 * names a file, an InMemoryTraceSink is attached for the object's
 * lifetime and its spans are written as trace-event JSON at
 * destruction. With the variable unset this is inert — the bench
 * measures the untraced path.
 */
class EnvTrace
{
  public:
    EnvTrace()
    {
        if (const char *path = std::getenv("MORPHEUS_TRACE")) {
            _path = path;
            _sink = std::make_unique<obs::InMemoryTraceSink>();
            obs::setTraceSink(_sink.get());
        }
    }

    ~EnvTrace()
    {
        if (!_sink)
            return;
        obs::setTraceSink(nullptr);
        std::ofstream os(_path);
        if (os) {
            obs::writeChromeTrace(os, _sink->spans());
            std::fprintf(stderr, "trace: %zu events -> %s\n",
                         _sink->size(), _path.c_str());
        } else {
            std::fprintf(stderr, "trace: cannot open %s\n",
                         _path.c_str());
        }
    }

    EnvTrace(const EnvTrace &) = delete;
    EnvTrace &operator=(const EnvTrace &) = delete;

  private:
    std::string _path;
    std::unique_ptr<obs::InMemoryTraceSink> _sink;
};

/** One app's metrics under one mode. */
struct SuiteRow
{
    const workloads::AppSpec *app;
    workloads::RunMetrics metrics;
};

/**
 * Run one bench cell: @p app under @p o; @p cell names the knob
 * setting in the bench's own terms (e.g. "4 cores"). Exits 1, naming
 * the cell, when the object the run produced differs from the
 * generator's ground truth, so no bench prints a number from a wrong
 * object.
 */
inline workloads::RunMetrics
runCell(const workloads::AppSpec &app, const workloads::RunOptions &o,
        const std::string &cell = "")
{
    workloads::RunMetrics m = workloads::runWorkload(app, o);
    if (!m.validated) {
        std::fprintf(stderr,
                     "VALIDATION FAILED: %s%s%s (mode %d, backend %d, "
                     "%g GHz, scale %g)\n",
                     app.name.c_str(), cell.empty() ? "" : " ",
                     cell.c_str(), static_cast<int>(o.mode),
                     static_cast<int>(o.backend), o.cpuFreqHz / 1e9,
                     o.scale);
        std::exit(1);
    }
    return m;
}

/**
 * Run the whole Table I suite under each of @p opts (mode etc. pre-set;
 * the scale always comes from benchScale()) through runCell. The loop
 * is app-major, so one app's runs go back to back on the input
 * runWorkload prepared for the first of them. @return one row vector
 * per option set, in order.
 */
template <std::size_t N>
std::array<std::vector<SuiteRow>, N>
runSuite(const workloads::RunOptions (&opts)[N])
{
    std::array<std::vector<SuiteRow>, N> rows;
    for (const auto &app : workloads::standardSuite()) {
        for (std::size_t i = 0; i < N; ++i) {
            workloads::RunOptions o = opts[i];
            o.scale = benchScale();
            rows[i].push_back(SuiteRow{&app, runCell(app, o)});
        }
    }
    return rows;
}

/** Geometric mean of a vector of ratios. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

/** Print the standard header naming the artifact being reproduced. */
inline void
banner(const char *artifact, const char *claim)
{
    std::printf("== %s ==\n", artifact);
    std::printf("paper: %s\n", claim);
    std::printf("scale: %g (set MORPHEUS_BENCH_SCALE to change)\n\n",
                benchScale());
}

/**
 * Print a section's banner, with a blank line after the previous
 * section, in a bench that prints several artifacts.
 */
inline void
section(const char *artifact, const char *claim)
{
    static bool first = true;
    if (!first)
        std::printf("\n");
    first = false;
    banner(artifact, claim);
}

/** One secondary metric in a BENCH_<name>.json report. */
struct BenchMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Named runs whose federated metrics a BENCH_<name>.json embeds. */
using BenchRuns = std::vector<std::pair<std::string, obs::MetricsRegistry>>;

/**
 * Run @p opts with a metrics registry attached and keep that registry
 * in @p runs under @p name, for writeBenchJson's "runs" block.
 */
inline workloads::ServingReport
runRecorded(BenchRuns &runs, const std::string &name,
            workloads::ServingOptions opts)
{
    opts.metrics = &runs.emplace_back(name, obs::MetricsRegistry{}).second;
    return workloads::runServing(opts);
}

/**
 * The options every serving bench starts from: seed 42, three tenants
 * (ids 1-3, default specs) and the contended scheduler posture. At
 * most 12 instances are in flight: ~3 per core keeps every admitted
 * image inside I-SRAM, and the overflow waits in the admission queue
 * instead of failing MINITs on the device. Per-instance D-SRAM grants
 * are in force, so co-residents split each core's scratchpad (256 KiB
 * / 4 = a 64 KiB grant each). Staging must stay strictly inside the
 * grant, so the flush threshold sits 4 KiB shy of it, as close to the
 * unpartitioned 64 KiB flush cadence as the grant allows.
 */
inline workloads::ServingOptions
contendedServing()
{
    workloads::ServingOptions opts;
    opts.seed = 42;
    for (std::uint32_t t = 0; t < 3; ++t) {
        workloads::TenantSpec spec;
        spec.id = t + 1;
        opts.tenants.push_back(spec);
    }
    opts.sys.ssd.sched.maxInflightTotal = 12;
    opts.sys.ssd.sched.dsramPartitioning = true;
    opts.flushThreshold = 60 * sim::kKiB;
    return opts;
}

/**
 * Offer @p total_per_sec open-loop arrivals split skew:1:...:1 across
 * @p opts' tenants: the first gets @p skew times each other's rate.
 */
inline void
setSkewedLoad(workloads::ServingOptions &opts, double total_per_sec,
              double skew)
{
    const double base =
        total_per_sec /
        (skew + static_cast<double>(opts.tenants.size()) - 1.0);
    for (std::size_t t = 0; t < opts.tenants.size(); ++t)
        opts.tenants[t].arrivalsPerSec = t == 0 ? skew * base : base;
}

/** Git revision for BENCH_*.json: MORPHEUS_GIT_REV, then the CI's
 *  GITHUB_SHA, then "unknown" (the simulator itself never shells out). */
inline std::string
benchGitRev()
{
    if (const char *rev = std::getenv("MORPHEUS_GIT_REV"))
        return rev;
    if (const char *rev = std::getenv("GITHUB_SHA"))
        return rev;
    return "unknown";
}

/**
 * Write the machine-readable result record `BENCH_<bench>.json` in the
 * working directory: the headline metric (what the CI regression gate
 * compares across PRs), the bench scale, the git revision, any
 * secondary metrics, and, under "runs", the federated metrics registry
 * of each of @p runs. Simulated metrics are deterministic, so the same
 * code at the same scale produces the same file on any machine.
 *
 * The "config" block is read off @p sys, the platform of the headline
 * run: a result is only comparable against a baseline made with the
 * same device count, pipeline setting and cache posture. Serving
 * places objects on a fleet by hash, so more than one SSD means
 * "hash" placement.
 */
inline void
writeBenchJson(const std::string &bench, const std::string &metric,
               double value, const std::string &unit,
               bool higher_is_better,
               const std::vector<BenchMetric> &extra = {},
               const host::SystemConfig &sys = {},
               const BenchRuns &runs = {})
{
    const std::string path = "BENCH_" + bench + ".json";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "BENCH json: cannot open %s\n",
                     path.c_str());
        return;
    }
    char num[64];
    const auto fmt = [&num](double v) {
        std::snprintf(num, sizeof(num), "%.17g", v);
        return num;
    };
    const bool cache = sys.ssd.cache.enabled;
    os << "{\n"
       << "  \"bench\": \"" << bench << "\",\n"
       << "  \"metric\": \"" << metric << "\",\n"
       << "  \"value\": " << fmt(value) << ",\n"
       << "  \"unit\": \"" << unit << "\",\n"
       << "  \"higherIsBetter\": "
       << (higher_is_better ? "true" : "false") << ",\n"
       << "  \"scale\": " << fmt(benchScale()) << ",\n"
       << "  \"gitRev\": \"" << benchGitRev() << "\",\n"
       << "  \"config\": {\"ssds\": " << sys.numSsds
       << ", \"shardPolicy\": \"" << (sys.numSsds > 1 ? "hash" : "none")
       << "\", \"pipeline\": "
       << (sys.ssd.pipeline.enabled ? "true" : "false")
       << ", \"cacheEnabled\": " << (cache ? "true" : "false")
       << ", \"cacheBytes\": " << (cache ? sys.ssd.cache.budgetBytes : 0)
       << ", \"cachePolicy\": \"" << (cache ? "lru" : "none") << "\"},\n"
       << "  \"metrics\": {";
    for (std::size_t i = 0; i < extra.size(); ++i) {
        os << (i ? ",\n    " : "\n    ") << "\"" << extra[i].name
           << "\": {\"value\": " << fmt(extra[i].value)
           << ", \"unit\": \"" << extra[i].unit << "\"}";
    }
    os << (extra.empty() ? "" : "\n  ") << "}";
    if (!runs.empty()) {
        os << ",\n  \"runs\": {";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            // The registry's own JSON, re-indented two levels deeper.
            std::ostringstream reg;
            runs[i].second.writeJson(reg);
            std::string body = reg.str();
            body.pop_back();  // writeJson's closing newline
            for (std::size_t at = body.find('\n');
                 at != std::string::npos; at = body.find('\n', at + 5))
                body.insert(at + 1, "    ");
            os << (i ? ",\n    \"" : "\n    \"") << runs[i].first
               << "\": " << body;
        }
        os << "\n  }";
    }
    os << "\n}\n";
    std::fprintf(stderr, "BENCH json: %s=%g %s -> %s\n", metric.c_str(),
                 value, unit.c_str(), path.c_str());
}

/**
 * A bench's self-checks. Each gate prints "gate <claim> pass|FAIL" on
 * stderr; exitStatus() prints the verdict and is main's return value,
 * 0 when every gate passed and 1 otherwise.
 */
class Gates
{
  public:
    bool
    operator()(bool ok, const char *claim)
    {
        std::fprintf(stderr, "gate %-44s %s\n", claim,
                     ok ? "pass" : "FAIL");
        _failed += ok ? 0 : 1;
        return ok;
    }

    int
    exitStatus() const
    {
        if (_failed == 0) {
            std::fprintf(stderr, "self-check: PASS\n");
            return 0;
        }
        std::fprintf(stderr, "self-check: FAIL (%u gate(s))\n", _failed);
        return 1;
    }

  private:
    unsigned _failed = 0;
};

}  // namespace morpheus::bench

#endif  // MORPHEUS_BENCH_BENCH_COMMON_HH
