/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every bench binary prints the rows/series of one paper artifact.
 * Default scale keeps each full-suite sweep in the seconds range;
 * override with MORPHEUS_BENCH_SCALE (a double) for bigger inputs —
 * all reported quantities are ratios or rates, so the shapes are
 * scale-invariant.
 */

#ifndef MORPHEUS_BENCH_BENCH_COMMON_HH
#define MORPHEUS_BENCH_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "workloads/runner.hh"

namespace morpheus::bench {

/** Bench input scale (Table I sizes / ~800 by default). */
inline double
benchScale()
{
    if (const char *env = std::getenv("MORPHEUS_BENCH_SCALE"))
        return std::atof(env);
    return 0.25;
}

/**
 * Environment-driven tracing for bench binaries: when MORPHEUS_TRACE
 * names a file, a ChromeTraceSink is attached for the object's
 * lifetime and the trace-event JSON written at destruction. With the
 * variable unset this is inert — the bench measures the untraced path.
 */
class EnvTrace
{
  public:
    EnvTrace()
    {
        if (const char *path = std::getenv("MORPHEUS_TRACE")) {
            _path = path;
            _sink = std::make_unique<obs::ChromeTraceSink>();
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
            _sink->write(os);
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
    std::unique_ptr<obs::ChromeTraceSink> _sink;
};

/** One app's metrics under one mode. */
struct SuiteRow
{
    const workloads::AppSpec *app;
    workloads::RunMetrics metrics;
};

/** Run the whole Table I suite under @p opts (mode etc. pre-set;
 *  the scale always comes from benchScale()). */
inline std::vector<SuiteRow>
runSuite(workloads::RunOptions opts)
{
    opts.scale = benchScale();
    std::vector<SuiteRow> rows;
    for (const auto &app : workloads::standardSuite()) {
        workloads::RunMetrics m = workloads::runWorkload(app, opts);
        if (!m.validated) {
            std::fprintf(stderr,
                         "VALIDATION FAILED: %s (mode %d)\n",
                         app.name.c_str(),
                         static_cast<int>(opts.mode));
            std::exit(1);
        }
        rows.push_back(SuiteRow{&app, m});
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

/** One secondary metric in a BENCH_<name>.json report. */
struct BenchMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Configuration provenance stamped into BENCH_*.json: a result is
 * only comparable against a baseline produced under the same device
 * count, placement policy, and pipeline setting, so the file records
 * them instead of leaving the reader to guess from the bench name.
 */
struct BenchConfig
{
    unsigned ssds = 1;
    /** "hash"; "none" when the bench does not shard. */
    std::string shardPolicy = "none";
    bool pipeline = false;
    /** Object-cache provenance: a cached result is only comparable
     *  against a baseline with the same cache posture. */
    bool cacheEnabled = false;
    std::uint64_t cacheBytes = 0;
    /** "lru" (the only eviction policy); "none" while disabled. */
    std::string cachePolicy = "none";
};

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
 * compares across PRs), the bench scale, the git revision, and any
 * secondary metrics. Simulated metrics are deterministic, so the same
 * code at the same scale produces the same file on any machine.
 */
inline void
writeBenchJson(const std::string &bench, const std::string &metric,
               double value, const std::string &unit,
               bool higher_is_better,
               const std::vector<BenchMetric> &extra = {},
               const BenchConfig &config = {})
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
    os << "{\n"
       << "  \"bench\": \"" << bench << "\",\n"
       << "  \"metric\": \"" << metric << "\",\n"
       << "  \"value\": " << fmt(value) << ",\n"
       << "  \"unit\": \"" << unit << "\",\n"
       << "  \"higherIsBetter\": "
       << (higher_is_better ? "true" : "false") << ",\n"
       << "  \"scale\": " << fmt(benchScale()) << ",\n"
       << "  \"gitRev\": \"" << benchGitRev() << "\",\n"
       << "  \"config\": {\"ssds\": " << config.ssds
       << ", \"shardPolicy\": \"" << config.shardPolicy
       << "\", \"pipeline\": "
       << (config.pipeline ? "true" : "false")
       << ", \"cacheEnabled\": "
       << (config.cacheEnabled ? "true" : "false")
       << ", \"cacheBytes\": " << config.cacheBytes
       << ", \"cachePolicy\": \"" << config.cachePolicy << "\"},\n"
       << "  \"metrics\": {";
    for (std::size_t i = 0; i < extra.size(); ++i) {
        os << (i ? ",\n    " : "\n    ") << "\"" << extra[i].name
           << "\": {\"value\": " << fmt(extra[i].value)
           << ", \"unit\": \"" << extra[i].unit << "\"}";
    }
    os << (extra.empty() ? "" : "\n  ") << "}\n}\n";
    std::fprintf(stderr, "BENCH json: %s=%g %s -> %s\n", metric.c_str(),
                 value, unit.c_str(), path.c_str());
}

}  // namespace morpheus::bench

#endif  // MORPHEUS_BENCH_BENCH_COMMON_HH
