/**
 * @file
 * Beyond-paper extension: fleet-scale serving across a multi-SSD
 * shard fabric.
 *
 * Runs the identical closed-loop request quota against 1, 2, and 4
 * Morpheus-SSDs behind one PCIe switch, objects hash-placed across
 * the fleet, and reports the throughput scaling curve plus the p99
 * cost of a Zipf-skewed object popularity (hot shards) at 4 SSDs.
 * Emits one JSON document on stdout; progress goes to stderr.
 * --stats-json FILE dumps the 4-SSD run's federated metrics registry
 * (per-device shard.<d>.* tails and fleet.* aggregates) as JSON.
 *
 * Exit status is the self-check: the 4-SSD uniform mix must complete
 * every request and reach >= 3x the single-SSD throughput at the same
 * offered load.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "obs/metrics.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/** The scaling gate: 4 SSDs must beat 1 SSD by at least this. */
constexpr double kMinFleetSpeedup = 3.0;

wk::ServingOptions
makeOptions(unsigned ssds, double zipf_skew)
{
    wk::ServingOptions opts;
    opts.seed = 42;
    opts.closedLoop = true;
    // Identical offered load at every fleet size: the same per-tenant
    // request quota and in-flight budget, so throughput measures
    // capacity. The quota must dwarf the in-flight budget or the
    // makespan is all ramp/drain transient and the fleet never reaches
    // steady state. MORPHEUS_BENCH_SCALE scales the quota (0.25 = 1x).
    const double scale = morpheus::bench::benchScale() / 0.25;
    opts.closedLoopRequests = static_cast<std::uint64_t>(
        std::max(128.0, 512.0 * scale));
    opts.closedLoopConcurrency = 16;
    for (std::uint32_t t = 0; t < 3; ++t) {
        wk::TenantSpec spec;
        spec.id = t + 1;
        opts.tenants.push_back(spec);
    }
    opts.sys.numSsds = ssds;
    // Enough distinct objects per size class that hashed placement
    // exercises every shard; the Zipf skew then concentrates requests
    // on whichever shards own the hot objects.
    opts.objectsPerClass = 8;
    opts.zipfSkew = zipf_skew;
    // Same per-device scheduler posture as the tail-latency bench:
    // bounded in-flight instances and partitioned D-SRAM grants.
    opts.sys.ssd.sched.maxInflightTotal = 12;
    opts.sys.ssd.sched.dsramPartitioning = true;
    opts.flushThreshold = 60 * sim::kKiB;
    return opts;
}

void
printShardJson(const wk::ShardReport &s, bool last)
{
    std::printf("        {\"device\": %u, \"requests\": %llu, "
                "\"completed\": %llu, \"served_bytes\": %llu, "
                "\"p50_us\": %.2f, \"p95_us\": %.2f, "
                "\"p99_us\": %.2f}%s\n",
                s.device,
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.servedBytes),
                s.p50Us, s.p95Us, s.p99Us, last ? "" : ",");
}

void
printRunJson(const char *name, const wk::ServingReport &r, bool last)
{
    std::printf("    \"%s\": {\n", name);
    std::printf("      \"completed\": %llu,\n",
                static_cast<unsigned long long>(r.completed));
    std::printf("      \"throughput_per_sec\": %.0f,\n",
                r.throughputPerSec);
    std::printf("      \"mean_us\": %.2f,\n", r.meanUs);
    std::printf("      \"p50_us\": %.2f,\n", r.p50Us);
    std::printf("      \"p95_us\": %.2f,\n", r.p95Us);
    std::printf("      \"p99_us\": %.2f,\n", r.p99Us);
    std::printf("      \"jain_fairness\": %.4f,\n", r.jainFairness);
    if (r.shards.empty()) {
        std::printf("      \"shards\": []\n");
    } else {
        std::printf("      \"shards\": [\n");
        for (std::size_t i = 0; i < r.shards.size(); ++i)
            printShardJson(r.shards[i], i + 1 == r.shards.size());
        std::printf("      ]\n");
    }
    std::printf("    }%s\n", last ? "" : ",");
}

/** Max/min device-path request count across shards (1 = balanced). */
double
shardImbalance(const wk::ServingReport &r)
{
    std::uint64_t lo = ~0ULL, hi = 0;
    for (const wk::ShardReport &s : r.shards) {
        lo = std::min(lo, s.requests);
        hi = std::max(hi, s.requests);
    }
    return lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo)
                  : 0.0;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string stats_json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats-json") == 0 &&
            i + 1 < argc) {
            stats_json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: serving_fleet [--stats-json FILE]\n");
            return 2;
        }
    }

    morpheus::bench::banner(
        "fleet serving scaling (beyond-paper extension)",
        "one Morpheus-SSD saturates; a shard fabric of 4 behind the "
        "same switch scales request throughput near-linearly");

    struct RunSpec
    {
        const char *name;
        unsigned ssds;
        double skew;
    };
    const std::vector<RunSpec> runs = {
        {"ssd1_uniform", 1, 0.0},
        {"ssd2_uniform", 2, 0.0},
        {"ssd4_uniform", 4, 0.0},
        {"ssd4_zipf", 4, 1.1},
    };

    std::vector<wk::ServingReport> reports;
    obs::MetricsRegistry fleet_registry;  // the 4-SSD uniform run
    for (const RunSpec &run : runs) {
        std::fprintf(stderr, "running %s...\n", run.name);
        wk::ServingOptions opts = makeOptions(run.ssds, run.skew);
        if (std::strcmp(run.name, "ssd4_uniform") == 0)
            opts.metrics = &fleet_registry;
        reports.push_back(wk::runServing(opts));
    }

    const wk::ServingReport &r1 = reports[0];
    const wk::ServingReport &r2 = reports[1];
    const wk::ServingReport &r4 = reports[2];
    const wk::ServingReport &rz = reports[3];
    const double speedup2 = r2.throughputPerSec / r1.throughputPerSec;
    const double speedup4 = r4.throughputPerSec / r1.throughputPerSec;
    const double skew_p99_cost =
        r4.p99Us > 0.0 ? rz.p99Us / r4.p99Us : 0.0;

    std::printf("{\n  \"runs\": {\n");
    for (std::size_t i = 0; i < runs.size(); ++i)
        printRunJson(runs[i].name, reports[i], i + 1 == runs.size());
    std::printf("  },\n");
    std::printf("  \"speedup_2x\": %.3f,\n", speedup2);
    std::printf("  \"speedup_4x\": %.3f,\n", speedup4);
    std::printf("  \"zipf_p99_cost\": %.3f,\n", skew_p99_cost);
    std::printf("  \"zipf_imbalance\": %.3f\n", shardImbalance(rz));
    std::printf("}\n");

    if (!stats_json_path.empty()) {
        std::ofstream os(stats_json_path);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         stats_json_path.c_str());
            return 2;
        }
        fleet_registry.writeJson(os);
        std::fprintf(stderr, "stats json -> %s\n",
                     stats_json_path.c_str());
    }

    morpheus::bench::BenchConfig cfg;
    cfg.ssds = 4;
    cfg.shardPolicy = "hash";
    morpheus::bench::writeBenchJson(
        "serving_fleet", "fleetSpeedup4x", speedup4, "x",
        /*higher_is_better=*/true,
        {{"speedup2x", speedup2, "x"},
         {"ssd1ThroughputPerSec", r1.throughputPerSec, "req/s"},
         {"ssd4ThroughputPerSec", r4.throughputPerSec, "req/s"},
         {"ssd4P99Us", r4.p99Us, "us"},
         {"zipfP99Us", rz.p99Us, "us"},
         {"zipfP99Cost", skew_p99_cost, "ratio"},
         {"zipfImbalance", shardImbalance(rz), "ratio"}},
        cfg);

    // ---- self-checks -------------------------------------------------
    int failures = 0;
    const auto gate = [&failures](bool ok, const char *what) {
        std::fprintf(stderr, "gate %-34s %s\n", what,
                     ok ? "pass" : "FAIL");
        if (!ok)
            ++failures;
    };
    gate(r1.completed == r1.submitted && r4.completed == r4.submitted &&
             rz.completed == rz.submitted,
         "every request completes");
    gate(speedup4 >= kMinFleetSpeedup, "4-SSD speedup >= 3x");
    gate(speedup2 > 1.0, "2-SSD speedup > 1x");
    gate(r4.shards.size() == 4, "per-shard reports present");
    if (failures) {
        std::fprintf(stderr, "%d gate(s) FAILED\n", failures);
        return 1;
    }
    std::fprintf(stderr, "all fleet gates passed\n");
    return 0;
}
