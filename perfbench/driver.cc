/**
 * @file
 * Benchmark driver: runs one named workload of the Morpheus simulator
 * through its public entry points and prints every metric with its unit.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *
 * Two kinds of time appear, and every printed row names its kind:
 *  - sim:  what the modelled Morpheus hardware would take. Deterministic
 *          in the seed, so two commits compare exactly.
 *  - host: what running the simulator costs on this machine (wall time,
 *          peak RSS). Subject to machine noise, so reported as medians.
 *
 * With --trace 0 the last stdout line is one JSON object holding the
 * end-to-end metrics; with --trace 1 it holds the per-layer metrics of
 * a traced run. The lines before it are a readable table that also
 * gives the sample count behind every percentile and the configuration
 * the numbers depend on. The benchmark adds no instrumentation to the
 * simulator: layers are split with the registry snapshot, spans from an
 * attached InMemoryTraceSink, and timing of public calls from outside.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critical_path.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "workloads/app_spec.hh"
#include "workloads/objects.hh"
#include "workloads/runner.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

using Clock = std::chrono::steady_clock;

/** Set-up is repeated this often per run and reported as the median. */
constexpr int kSetupReps = 5;

/** Input scale of paper_suite: fig08/fig11's default bench scale. */
constexpr double kPaperScale = 0.25;

/** Span categories the simulator emits (obs::Span::category). */
constexpr std::array<const char *, 4> kSpanCategories = {"nvme", "pcie",
                                                         "sched", "ssd"};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Ceil-rank order statistic: the pick runServing's tallies make. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Result: the rows one invocation prints.

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    const char *kind = "sim";  ///< "sim" or "host".
    std::string note;
};

struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string config;  ///< What the numbers depend on.
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit,
        const char *kind, const std::string &note = "")
    {
        metrics.push_back({name, value, unit, kind, note});
    }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
        }
    }
};

void
printResult(const Result &r, const std::string &workload,
            std::uint64_t seed, bool trace)
{
    std::printf("workload %s  seed %llu  %s\n", workload.c_str(),
                static_cast<unsigned long long>(seed),
                trace ? "traced (per-layer)" : "untraced (end-to-end)");
    std::printf("config   %s\n", r.config.c_str());
    std::printf("%-30s %18s %-6s %-5s %s\n", "metric", "value", "unit",
                "kind", "note");
    for (const Metric &m : r.metrics) {
        std::printf("%-30s %18.6f %-6s %-5s %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.kind, m.note.c_str());
    }
    std::printf("correct %s  attempted %llu  failed %llu\n",
                r.correct ? "yes" : "NO",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));

    // The machine-readable last line.
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

// ---------------------------------------------------------------------
// Registry snapshot and span helpers shared by every workload.

/** Registry entries by name, summed over the runs that fed them. */
using Counts = std::map<std::string, double>;

void
accumulate(Counts &acc, const obs::MetricsRegistry &reg)
{
    // report() ("name value" lines) is the registry's only iteration API.
    std::ostringstream os;
    reg.report(os);
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line)) {
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        acc[line.substr(0, sp)] +=
            std::strtod(line.c_str() + sp + 1, nullptr);
    }
}

double
get(const Counts &c, const std::string &name)
{
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
}

/** Sum of `<base>[N].<stat>` over every device: device 0 federates as
 *  "sys.ssd", fleet devices as "sys.ssd1", "sys.ssd2", ... */
double
deviceSum(const Counts &c, const std::string &base, const std::string &stat)
{
    double sum = 0.0;
    for (auto it = c.lower_bound(base);
         it != c.end() && it->first.compare(0, base.size(), base) == 0;
         ++it) {
        std::size_t i = base.size();
        while (i < it->first.size() &&
               std::isdigit(static_cast<unsigned char>(it->first[i])))
            ++i;
        if (it->first.compare(i, std::string::npos, "." + stat) == 0)
            sum += it->second;
    }
    return sum;
}

double
nvmeCommands(const Counts &c)
{
    return deviceSum(c, "sys.ssd", "nvme.commands");
}

void
addRegistryMetrics(Result &r, const Counts &c, double load_imbalance)
{
    const auto dev = [&c](const char *stat) {
        return deviceSum(c, "sys.ssd", stat);
    };
    const auto rt = [&c](const char *stat) {
        return deviceSum(c, "sys.morpheus", stat);
    };
    r.add("flash.bytes_read", dev("flash.bytesRead"), "B", "sim");
    r.add("ftl.gc_runs", dev("ftl.gcRuns"), "count", "sim");
    r.add("core.minits", rt("minits"), "count", "sim");
    r.add("core.mreads", rt("mreads"), "count", "sim");
    r.add("core.mwrites", rt("mwrites"), "count", "sim");
    r.add("core.raw_bytes_in", rt("rawBytesIn"), "B", "sim");
    r.add("core.object_bytes_out", rt("objectBytesOut"), "B", "sim");
    r.add("nvme.commands", nvmeCommands(c), "count", "sim");
    r.add("nvme.interrupts", dev("nvme.interrupts"), "count", "sim");
    r.add("nvme.retries",
          get(c, "run.retries") + get(c, "serving.driverRetries"), "count",
          "sim");
    r.add("pcie.fabric_bytes", get(c, "sys.pcie.fabricBytes"), "B", "sim");
    r.add("pcie.p2p_bytes", get(c, "sys.pcie.p2pBytes"), "B", "sim");
    r.add("host.ctx_switches", get(c, "sys.host.os.contextSwitches"),
          "count", "sim");
    r.add("host.syscalls", get(c, "sys.host.os.syscalls"), "count", "sim");
    r.add("host.membus_bytes",
          get(c, "sys.host.mem.busBytesRead") +
              get(c, "sys.host.mem.busBytesWritten"),
          "B", "sim");

    const double hits = rt("cache.hits");
    r.add("ssd.cache.hit_ratio", ratio(hits, hits + rt("cache.misses")),
          "ratio", "sim", "hits / lookups");
    r.add("ssd.cache.invalidations", rt("cache.invalidations"), "count",
          "sim");
    r.add("ssd.readahead_hit_ratio",
          ratio(rt("pipeline.readaheadHits"),
                rt("pipeline.readaheadIssued")),
          "ratio", "sim", "hits / issued");

    const double admitted = dev("sched.arbiter.instancesAdmitted");
    const double bounces = dev("sched.dsramBounces");
    r.add("sched.admission_wait_us",
          ratio(dev("sched.arbiter.queuedDelayTicks"), admitted) /
              static_cast<double>(sim::kPsPerUs),
          "us", "sim", "queued-delay ticks / admitted");
    r.add("sched.dsram_bounce_ratio", ratio(bounces, admitted + bounces),
          "ratio", "sim", "bounces / (admitted + bounces)");
    r.add("sched.drr_delays", dev("sched.arbiter.drrDelays"), "count",
          "sim");
    r.add("shard.load_imbalance", load_imbalance, "ratio", "sim",
          "max / mean requests per device");
}

/** Per-category union of span time, in simulated ms. */
void
addSpanBusy(std::map<std::string, double> &busy_ms,
            const std::vector<obs::Span> &spans)
{
    std::map<std::string, std::vector<std::pair<sim::Tick, sim::Tick>>>
        by_category;
    for (const obs::Span &s : spans) {
        if (!s.instant && s.end > s.begin)
            by_category[s.category].emplace_back(s.begin, s.end);
    }
    for (auto &[category, iv] : by_category) {
        std::sort(iv.begin(), iv.end());
        sim::Tick busy = 0, lo = iv.front().first, hi = iv.front().second;
        for (const auto &[b, e] : iv) {
            if (b > hi) {
                busy += hi - lo;
                lo = b;
                hi = e;
            } else {
                hi = std::max(hi, e);
            }
        }
        busy += hi - lo;
        busy_ms[category] += sim::ticksToMs(busy);
    }
}

void
addSpanMetrics(Result &r, const std::map<std::string, double> &busy_ms)
{
    for (const char *category : kSpanCategories) {
        const auto it = busy_ms.find(category);
        r.add(std::string("span.") + category + ".busy_ms",
              it == busy_ms.end() ? 0.0 : it->second, "ms", "sim",
              "union of span time");
    }
}

void
addStageMetrics(Result &r,
                const std::array<double, obs::kNumStages> &mean_us,
                const std::array<double, obs::kNumStages> &p99_us,
                const std::string &basis)
{
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
        const std::string stage =
            obs::stageName(static_cast<obs::Stage>(s));
        r.add("stage." + stage + ".mean_us", mean_us[s], "us", "sim",
              basis);
        r.add("stage." + stage + ".p99_us", p99_us[s], "us", "sim", basis);
    }
}

/**
 * The timed loop shared by every workload: run @p rep until @p seconds
 * have passed and at least three repetitions ran (two untraced and two
 * traced with @p trace). With @p trace, odd repetitions are traced, so
 * both sides see the same machine state.
 * Returns the host seconds of the untraced and the traced repetitions.
 */
std::pair<std::vector<double>, std::vector<double>>
timedLoop(double seconds, bool trace,
          const std::function<void(int rep, bool traced)> &rep)
{
    std::vector<double> untraced, traced;
    const int min_reps = trace ? 4 : 3;
    const auto start = Clock::now();
    for (int i = 0; i < min_reps || secondsSince(start) < seconds; ++i) {
        const bool is_traced = trace && i % 2 == 1;
        const auto t0 = Clock::now();
        rep(i, is_traced);
        (is_traced ? traced : untraced).push_back(secondsSince(t0));
    }
    return {untraced, traced};
}

std::string
countNote(std::size_t samples, double q)
{
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(samples) * (1.0 - q)));
    return "n=" + std::to_string(samples) + ", " + std::to_string(beyond) +
           " beyond";
}

// ---------------------------------------------------------------------
// paper_suite: the ten Table I apps in baseline, Morpheus and P2P modes.

constexpr std::array<wk::ExecutionMode, 3> kModes = {
    wk::ExecutionMode::kBaseline, wk::ExecutionMode::kMorpheus,
    wk::ExecutionMode::kMorpheusP2p};
constexpr std::size_t kBase = 0, kMorph = 1, kP2p = 2;

/** A per-layer row only paper_suite measures (0 in the serving runs). */
struct PaperOnly
{
    const char *name;
    const char *unit;
    const char *kind;
    const char *note;
};

/** The paper's ratios, each a mean over the 10 apps of Morpheus (or
 *  P2P) against baseline. */
constexpr std::array<PaperOnly, 7> kRatioRows = {{
    {"deser_speedup", "x", "sim", "Fig 8 mean"},
    {"e2e_speedup", "x", "sim", "Fig 11 morph mean"},
    {"p2p_e2e_speedup", "x", "sim", "Fig 11 p2p mean"},
    {"deser_energy_ratio", "ratio", "sim", "Fig 9"},
    {"pcie_bytes_ratio", "ratio", "sim", "VII-A"},
    {"membus_bytes_ratio", "ratio", "sim", "VII-A"},
    {"ctx_switch_ratio", "ratio", "sim", "Fig 10 count"},
}};

/** The paper's values for kRatioRows, which the model was calibrated
 *  against. */
constexpr std::array<double, 7> kPaperRatios = {1.66, 1.32, 1.39, 0.58,
                                                0.78, 0.42, 0.03};

constexpr PaperOnly kErrorRow = {"paper_error_pct", "%", "sim",
                                 "fit error, not validation"};

/** Public calls timed from outside the simulator on paper inputs. */
constexpr std::array<PaperOnly, 8> kCallRows = {{
    {"workloads.generate_s", "s", "host", "AppSpec::generate, 10 apps"},
    {"workloads.kernel_s", "s", "host", "AppSpec::kernel, 10 apps"},
    {"serde.serialize_s", "s", "host", "serializeObject, 10 apps"},
    {"serde.parse_s", "s", "host", "parseObject, 10 apps"},
    {"serde.parse_mb_per_s", "MB/s", "host", "text parsed per host second"},
    {"workloads.run_s.baseline", "s", "host", "runWorkload, 10 apps"},
    {"workloads.run_s.morpheus", "s", "host", "runWorkload, 10 apps"},
    {"workloads.run_s.p2p", "s", "host", "runWorkload, 10 apps"},
}};

void
addRow(Result &r, const PaperOnly &row, double value)
{
    r.add(row.name, value, row.unit, row.kind, row.note);
}

struct SuiteRun
{
    std::vector<std::array<wk::RunMetrics, 3>> apps;  ///< [app][mode]
    std::array<double, 3> hostSeconds{};              ///< Per mode.
    Counts counts;                          ///< Registry sums (collect).
    std::vector<obs::Attribution> stages;   ///< Morpheus deser (traced).
    std::map<std::string, double> spanBusyMs;  ///< All modes (traced).
};

/** Stage split of one Morpheus-mode deserialization window. The window
 *  opens when ingest completes (the last host write) and lasts
 *  RunMetrics::deserTime, exactly as runWorkload measures it. */
obs::Attribution
deserAttribution(const std::vector<obs::Span> &spans, sim::Tick deser)
{
    sim::Tick t0 = 0;
    for (const obs::Span &s : spans) {
        if (s.name == "Write")
            t0 = std::max(t0, s.end);
    }
    return obs::attributeSpans(spans, t0, t0 + deser);
}

SuiteRun
runSuite(std::uint64_t seed, bool collect, bool traced)
{
    SuiteRun out;
    for (const wk::AppSpec &app : wk::standardSuite()) {
        std::array<wk::RunMetrics, 3> row;
        for (std::size_t m = 0; m < kModes.size(); ++m) {
            wk::RunOptions opts;
            opts.mode = kModes[m];
            opts.scale = kPaperScale;
            opts.seed = seed;
            obs::MetricsRegistry reg;
            if (collect)
                opts.metrics = &reg;
            obs::InMemoryTraceSink sink;
            const auto t0 = Clock::now();
            {
                std::optional<obs::ScopedTraceSink> attach;
                if (traced)
                    attach.emplace(sink);
                row[m] = wk::runWorkload(app, opts);
            }
            out.hostSeconds[m] += secondsSince(t0);
            if (collect)
                accumulate(out.counts, reg);
            if (traced) {
                addSpanBusy(out.spanBusyMs, sink.spans());
                if (m == kMorph) {
                    out.stages.push_back(
                        deserAttribution(sink.spans(), row[m].deserTime));
                }
            }
        }
        out.apps.push_back(row);
    }
    return out;
}

/** Simulated results of two suite runs are bit-identical. */
bool
sameSim(const SuiteRun &a, const SuiteRun &b)
{
    if (a.apps.size() != b.apps.size())
        return false;
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        for (std::size_t m = 0; m < kModes.size(); ++m) {
            const wk::RunMetrics &x = a.apps[i][m], &y = b.apps[i][m];
            if (x.deserTime != y.deserTime || x.totalTime != y.totalTime ||
                x.gpuCopyTime != y.gpuCopyTime ||
                x.pcieBytesDeser != y.pcieBytesDeser ||
                x.membusBytesDeser != y.membusBytesDeser ||
                x.contextSwitchesDeser != y.contextSwitchesDeser ||
                x.deserEnergyJoules != y.deserEnergyJoules ||
                x.p2pBytes != y.p2pBytes ||
                x.kernelChecksum != y.kernelChecksum ||
                x.validated != y.validated)
                return false;
        }
    }
    return true;
}

/** (app, mode) runs whose objects or kernel checksum fail validation. */
std::uint64_t
suiteFailures(const SuiteRun &run)
{
    std::uint64_t failed = 0;
    for (const auto &row : run.apps) {
        for (const wk::RunMetrics &m : row) {
            failed += !m.validated ||
                      m.kernelChecksum != row[kBase].kernelChecksum;
        }
    }
    return failed;
}

/** Mean over apps of f(baseline, mode run). */
double
meanOver(const SuiteRun &run, std::size_t mode,
         const std::function<double(const wk::RunMetrics &,
                                    const wk::RunMetrics &)> &f)
{
    double sum = 0.0;
    for (const auto &row : run.apps)
        sum += f(row[kBase], row[mode]);
    return sum / static_cast<double>(run.apps.size());
}

/** The seven paper ratios, in kPaperRatios order. */
std::array<double, 7>
paperRatios(const SuiteRun &run)
{
    using M = const wk::RunMetrics &;
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        meanOver(run, kMorph,
                 [&](M b, M m) { return u(b.deserTime) / u(m.deserTime); }),
        meanOver(run, kMorph,
                 [&](M b, M m) { return u(b.totalTime) / u(m.totalTime); }),
        meanOver(run, kP2p,
                 [&](M b, M m) { return u(b.totalTime) / u(m.totalTime); }),
        meanOver(run, kMorph,
                 [](M b, M m) {
                     return m.deserEnergyJoules / b.deserEnergyJoules;
                 }),
        meanOver(run, kMorph,
                 [&](M b, M m) {
                     return u(m.pcieBytesDeser) / u(b.pcieBytesDeser);
                 }),
        meanOver(run, kMorph,
                 [&](M b, M m) {
                     return u(m.membusBytesDeser) / u(b.membusBytesDeser);
                 }),
        meanOver(run, kMorph,
                 [&](M b, M m) {
                     return u(m.contextSwitchesDeser) /
                            u(b.contextSwitchesDeser);
                 }),
    };
}

Result
paperSuite(std::uint64_t seed, double seconds, bool trace)
{
    Result r;
    const auto &suite = wk::standardSuite();
    r.config = "scale 0.25 (fig08/fig11 default), 10 Table I apps x "
               "{baseline, morpheus, p2p}, 1 SSD, pipeline off, cache off";

    // Set-up: every app's input (generate, then text-serialize).
    std::vector<double> setup_s, generate_s, serialize_s;
    std::vector<wk::AnyObject> objects;
    std::vector<std::vector<std::uint8_t>> texts;
    for (int i = 0; i < kSetupReps; ++i) {
        objects.clear();
        texts.clear();
        double gen = 0.0, ser = 0.0;
        const auto t0 = Clock::now();
        for (const wk::AppSpec &app : suite) {
            auto t = Clock::now();
            objects.push_back(app.generate(seed, kPaperScale));
            gen += secondsSince(t);
            t = Clock::now();
            texts.push_back(wk::serializeObject(objects.back()));
            ser += secondsSince(t);
        }
        setup_s.push_back(secondsSince(t0));
        generate_s.push_back(gen);
        serialize_s.push_back(ser);
    }

    SuiteRun first, first_traced;
    std::array<std::vector<double>, 3> mode_s;
    const auto [wall, traced_wall] =
        timedLoop(seconds, trace, [&](int rep, bool traced) {
            SuiteRun run = runSuite(seed, trace && rep == 0, traced);
            r.attempted += run.apps.size() * kModes.size();
            r.failed += suiteFailures(run);
            if (!traced) {
                for (std::size_t m = 0; m < kModes.size(); ++m)
                    mode_s[m].push_back(run.hostSeconds[m]);
            }
            if (rep == 0) {
                first = std::move(run);
                return;
            }
            r.check(sameSim(first, run),
                    traced ? "traced suite run differs from the untraced "
                             "one (trace invariance)"
                           : "repeated suite run differs (determinism)");
            if (traced && first_traced.apps.empty())
                first_traced = std::move(run);
        });

    std::vector<double> deser_us;
    double morph_deser_s = 0.0;
    for (const auto &row : first.apps) {
        deser_us.push_back(sim::ticksToUs(row[kMorph].deserTime));
        morph_deser_s += row[kMorph].deserSeconds();
    }
    const std::size_t n = deser_us.size();
    const std::array<double, 7> ratios = paperRatios(first);
    double err = 0.0;
    for (std::size_t i = 0; i < ratios.size(); ++i)
        err += std::fabs(ratios[i] - kPaperRatios[i]) / kPaperRatios[i];
    const double paper_error_pct =
        100.0 * err / static_cast<double>(ratios.size());

    if (!trace) {
        r.add("setup_s", median(setup_s), "s", "host",
              "median of 5 input builds (generate + serialize)");
        r.add("wall_s", median(wall), "s", "host",
              "median over " + std::to_string(wall.size()) +
                  " suite runs (30 runWorkload calls each)");
        r.add("peak_rss_mb", peakRssMb(), "MB", "host", "ru_maxrss");
        r.add("p50_us", quantile(deser_us, 0.50), "us", "sim",
              "Morpheus deser time per app, " + countNote(n, 0.50));
        r.add("p99_us", quantile(deser_us, 0.99), "us", "sim",
              "Morpheus deser time per app, " + countNote(n, 0.99) +
                  ": the slowest app");
        r.add("throughput_rps", static_cast<double>(n) / morph_deser_s,
              "1/s", "sim", "apps deserialized per simulated second");
        // The paper's figures, printed for reading; the JSON carries them
        // in the traced run (they are simulated, so identical there).
        for (std::size_t i = 0; i < ratios.size(); ++i) {
            std::printf("paper %-20s %.6f (paper %.2f, sim)\n",
                        kRatioRows[i].name, ratios[i], kPaperRatios[i]);
        }
        std::printf("paper %-20s %.6f (fit error: the model was "
                    "calibrated against these values)\n",
                    kErrorRow.name, paper_error_pct);
        return r;
    }

    // ---- per-layer (traced) ------------------------------------------
    for (std::size_t i = 0; i < ratios.size(); ++i)
        addRow(r, kRatioRows[i], ratios[i]);
    addRow(r, kErrorRow, paper_error_pct);
    r.add("p999_us", 0.0, "us", "sim", "not reported: n=10");
    r.add("failed_frac", ratio(static_cast<double>(r.failed),
                               static_cast<double>(r.attempted)),
          "ratio", "sim", "(app, mode) runs failing validation");

    // The same public calls timed from outside, on set-up's inputs.
    std::vector<double> kernel_s, parse_s;
    double text_bytes = 0.0;
    for (const auto &t : texts)
        text_bytes += static_cast<double>(t.size());
    for (int i = 0; i < kSetupReps; ++i) {
        double k = 0.0, p = 0.0;
        for (std::size_t a = 0; a < suite.size(); ++a) {
            auto t = Clock::now();
            const wk::KernelResult kr = suite[a].kernel(objects[a]);
            k += secondsSince(t);
            t = Clock::now();
            serde::ParseCost cost;
            const wk::AnyObject parsed = wk::parseObject(
                suite[a].object, texts[a].data(), texts[a].size(), &cost);
            p += secondsSince(t);
            r.check(kr.checksum == suite[a].kernel(parsed).checksum,
                    suite[a].name + ": kernel differs on the parsed input");
        }
        kernel_s.push_back(k);
        parse_s.push_back(p);
    }
    const std::array<double, 8> calls = {
        median(generate_s),   median(kernel_s),
        median(serialize_s),  median(parse_s),
        text_bytes / median(parse_s) / 1e6,
        median(mode_s[kBase]), median(mode_s[kMorph]),
        median(mode_s[kP2p])};
    for (std::size_t i = 0; i < calls.size(); ++i)
        addRow(r, kCallRows[i], calls[i]);
    const double wall_med = median(wall);
    r.add("sim.host_us_per_cmd",
          1e6 * wall_med / nvmeCommands(first.counts), "us", "host",
          "wall_s / simulated NVMe commands");
    addRegistryMetrics(r, first.counts, 1.0);

    std::array<double, obs::kNumStages> mean_us{}, slowest_us{};
    std::size_t slowest = 0;
    for (std::size_t a = 0; a < first_traced.stages.size(); ++a) {
        const auto deser = [&](std::size_t i) {
            return first_traced.apps[i][kMorph].deserTime;
        };
        if (deser(a) > deser(slowest))
            slowest = a;
        for (std::size_t s = 0; s < obs::kNumStages; ++s) {
            mean_us[s] += sim::ticksToUs(first_traced.stages[a].ticks[s]) /
                          static_cast<double>(n);
        }
    }
    for (std::size_t s = 0; s < obs::kNumStages; ++s)
        slowest_us[s] = sim::ticksToUs(first_traced.stages[slowest].ticks[s]);
    addStageMetrics(r, mean_us, slowest_us,
                    "Morpheus deser window; p99 = slowest of 10 apps");
    addSpanMetrics(r, first_traced.spanBusyMs);
    r.add("obs.trace_overhead_pct",
          100.0 * (median(traced_wall) - wall_med) / wall_med, "%", "host",
          "traced vs untraced wall_s");
    return r;
}

// ---------------------------------------------------------------------
// Serving workloads.

/** Per-command machinery: a closed loop of tiny requests on a 4-SSD
 *  hash-sharded fleet (cache and pipeline off). */
wk::ServingOptions
servingSmall(std::uint64_t seed, double size)
{
    wk::ServingOptions o;
    o.seed = seed;
    o.closedLoop = true;
    o.closedLoopConcurrency = 8;
    o.closedLoopRequests = static_cast<std::uint64_t>(4096 * size);
    for (std::uint32_t t = 0; t < 4; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        spec.sizeClassValues = {128, 512};
        spec.sizeClassProb = {0.8, 0.2};
        o.tenants.push_back(spec);
    }
    o.sys.numSsds = 4;
    o.shardPolicy = shard::ShardPolicy::kHash;
    o.objectsPerClass = 32;
    o.zipfSkew = 0.9;
    o.sys.ssd.sched.maxInflightTotal = 12;
    o.sys.ssd.sched.dsramPartitioning = true;
    // Strictly below the D-SRAM grant (partitioning asserts otherwise).
    o.flushThreshold = 60 * sim::kKiB;
    return o;
}

/** Mixed formats, writes next to reads, and cache hits next to misses:
 *  an open-loop Poisson stream below saturation on one SSD with the
 *  pipeline and object cache on. */
wk::ServingOptions
servingMixed(std::uint64_t seed, double size)
{
    wk::ServingOptions o;
    o.seed = seed;
    o.durationSec = 2.5 * size;
    wk::TenantSpec ints;
    ints.id = 1;
    ints.arrivalsPerSec = 1500.0;
    wk::TenantSpec cols;
    cols.id = 2;
    cols.format = wk::TenantFormat::kColumnar;
    cols.selectivity = 0.10;
    cols.projectColumns = 2;
    cols.tableColumns = 6;
    cols.sizeClassValues = {4096, 16384};
    cols.sizeClassProb = {0.75, 0.25};
    cols.arrivalsPerSec = 1000.0;
    wk::TenantSpec csv;
    csv.id = 3;
    csv.format = wk::TenantFormat::kCsv;
    csv.sizeClassValues = {512, 2048};
    csv.sizeClassProb = {0.8, 0.2};
    csv.arrivalsPerSec = 1500.0;
    csv.writeFraction = 0.4;
    wk::TenantSpec json;
    json.id = 4;
    json.format = wk::TenantFormat::kJson;
    json.sizeClassValues = {256, 1024};
    json.sizeClassProb = {0.8, 0.2};
    json.arrivalsPerSec = 1000.0;
    o.tenants = {ints, cols, csv, json};
    o.objectsPerClass = 8;
    o.zipfSkew = 1.1;
    o.sys.ssd.pipeline.enabled = true;
    o.sys.ssd.cache.enabled = true;
    // Text parsers and MWRITEs hold instances longer: bound them so
    // bursts queue host-side instead of overflowing I-SRAM.
    o.sys.ssd.sched.maxInflightTotal = 12;
    return o;
}

struct ServingRun
{
    wk::ServingReport report;
    Counts counts;
    std::map<std::string, double> spanBusyMs;
};

ServingRun
runServingOnce(wk::ServingOptions opts, bool collect, bool traced)
{
    ServingRun out;
    obs::MetricsRegistry reg;
    if (collect)
        opts.metrics = &reg;
    opts.breakdown = traced;
    obs::InMemoryTraceSink sink;
    {
        std::optional<obs::ScopedTraceSink> attach;
        if (traced)
            attach.emplace(sink);
        out.report = wk::runServing(opts);
    }
    if (collect)
        accumulate(out.counts, reg);
    if (traced)
        addSpanBusy(out.spanBusyMs, sink.spans());
    return out;
}

bool
sameSim(const wk::ServingReport &a, const wk::ServingReport &b)
{
    return a.submitted == b.submitted && a.completed == b.completed &&
           a.rejected == b.rejected && a.lost == b.lost &&
           a.makespan == b.makespan && a.meanUs == b.meanUs &&
           a.p50Us == b.p50Us && a.p99Us == b.p99Us &&
           a.p999Us == b.p999Us && a.cacheHits == b.cacheHits &&
           a.writes == b.writes && a.writeBytes == b.writeBytes &&
           a.throughputPerSec == b.throughputPerSec;
}

double
loadImbalance(const wk::ServingReport &r)
{
    if (r.shards.empty())
        return 1.0;
    double max = 0.0, sum = 0.0;
    for (const wk::ShardReport &s : r.shards) {
        max = std::max(max, static_cast<double>(s.requests));
        sum += static_cast<double>(s.requests);
    }
    return ratio(max, sum / static_cast<double>(r.shards.size()));
}

Result
serving(const std::string &name,
        const std::function<wk::ServingOptions(double)> &make,
        double seconds, bool trace)
{
    Result r;
    const wk::ServingOptions opts = make(1.0);
    {
        char line[256];
        std::snprintf(
            line, sizeof line,
            "%s loop, %zu tenants, %u SSD(s), %s sharding, pipeline %s, "
            "cache %s (starts empty), objectsPerClass %u, zipf %.2f",
            opts.closedLoop ? "closed" : "open", opts.tenants.size(),
            opts.sys.numSsds,
            opts.sys.numSsds > 1 ? shard::shardPolicyName(opts.shardPolicy)
                                 : "no",
            opts.sys.ssd.pipeline.enabled ? "on" : "off",
            opts.sys.ssd.cache.enabled ? "on" : "off", opts.objectsPerClass,
            opts.zipfSkew);
        r.config = line;
    }

    // Set-up: a warm-up run at a quarter of the size, so allocator and
    // lazy state are settled before timing.
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        const wk::ServingReport warm = wk::runServing(make(0.25));
        setup_s.push_back(secondsSince(t0));
        r.check(warm.completed > 0, name + ": warm-up completed nothing");
    }

    ServingRun first, first_traced;
    const auto [wall, traced_wall] =
        timedLoop(seconds, trace, [&](int rep, bool traced) {
            ServingRun run = runServingOnce(opts, trace && rep == 0, traced);
            const wk::ServingReport &rep_r = run.report;
            r.attempted += rep_r.submitted;
            r.failed += rep_r.rejected + rep_r.lost;
            r.check(rep_r.submitted ==
                        rep_r.completed + rep_r.rejected + rep_r.lost,
                    name + ": submitted != completed + rejected + lost");
            r.check(rep_r.completed > 0, name + ": nothing completed");
            if (rep == 0) {
                first = std::move(run);
                return;
            }
            r.check(sameSim(first.report, rep_r),
                    traced ? name + ": traced run differs from the "
                                    "untraced one (trace invariance)"
                           : name + ": repeated run differs (determinism)");
            if (traced && first_traced.report.submitted == 0)
                first_traced = std::move(run);
        });

    const wk::ServingReport &rep = first.report;
    const std::size_t n = rep.completed;
    if (!trace) {
        r.add("setup_s", median(setup_s), "s", "host",
              "median of 5 warm-up runs at 1/4 size");
        r.add("wall_s", median(wall), "s", "host",
              "median over " + std::to_string(wall.size()) +
                  " runServing calls");
        r.add("peak_rss_mb", peakRssMb(), "MB", "host", "ru_maxrss");
        r.add("p50_us", rep.p50Us, "us", "sim",
              "request latency, " + countNote(n, 0.50));
        r.add("p99_us", rep.p99Us, "us", "sim",
              "request latency, " + countNote(n, 0.99));
        r.add("throughput_rps", rep.throughputPerSec, "1/s", "sim",
              "completed requests per simulated second");
        std::printf("p999_us %.3f (%s)  writes %llu  cache hits %llu\n",
                    rep.p999Us, countNote(n, 0.999).c_str(),
                    static_cast<unsigned long long>(rep.writes),
                    static_cast<unsigned long long>(rep.cacheHits));
        return r;
    }

    for (const PaperOnly &row : kRatioRows)
        r.add(row.name, 0.0, row.unit, row.kind, "paper_suite only");
    r.add(kErrorRow.name, 0.0, kErrorRow.unit, kErrorRow.kind,
          "paper_suite only");
    // Reported only where at least 10 samples lie beyond it.
    const bool p999_ok = n >= 10000;
    r.add("p999_us", p999_ok ? rep.p999Us : 0.0, "us", "sim",
          p999_ok ? countNote(n, 0.999) : "not reported: n < 10000");
    r.add("failed_frac", ratio(static_cast<double>(r.failed),
                               static_cast<double>(r.attempted)),
          "ratio", "sim", "(rejected + lost) / submitted");
    for (const PaperOnly &row : kCallRows)
        r.add(row.name, 0.0, row.unit, row.kind, "paper_suite only");
    const double wall_med = median(wall);
    r.add("sim.host_us_per_cmd",
          1e6 * wall_med / nvmeCommands(first.counts), "us", "host",
          "wall_s / simulated NVMe commands");
    addRegistryMetrics(r, first.counts, loadImbalance(rep));
    const wk::ServingReport &tr = first_traced.report;
    addStageMetrics(r, tr.stageMeanUs, tr.stageP99Us,
                    "critical path over " + std::to_string(tr.attributed) +
                        " requests");
    addSpanMetrics(r, first_traced.spanBusyMs);
    r.add("obs.trace_overhead_pct",
          100.0 * (median(traced_wall) - wall_med) / wall_med, "%", "host",
          "traced vs untraced wall_s");
    return r;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "paper_suite|serving_small|serving_mixed_rw --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::optional<std::uint64_t> seed;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        char *end = nullptr;
        const char *val = argv[i + 1];
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            seed = std::strtoull(val, &end, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(val, &end);
        } else if (arg == "--trace") {
            trace = static_cast<int>(std::strtol(val, &end, 10));
        } else {
            return usage();
        }
        if (end != nullptr && (*end != '\0' || end == val))
            return usage();
    }
    if (argc % 2 == 0 || !seed || !(seconds > 0.0) ||
        (trace != 0 && trace != 1))
        return usage();

    Result r;
    if (workload == "paper_suite") {
        r = paperSuite(*seed, seconds, trace == 1);
    } else if (workload == "serving_small") {
        r = serving(
            workload,
            [s = *seed](double size) { return servingSmall(s, size); },
            seconds, trace == 1);
    } else if (workload == "serving_mixed_rw") {
        r = serving(
            workload,
            [s = *seed](double size) { return servingMixed(s, size); },
            seconds, trace == 1);
    } else {
        return usage();
    }
    printResult(r, workload, *seed, trace == 1);
    return 0;
}
