/**
 * @file
 * Beyond-paper extension: fleet-scale serving across a multi-SSD
 * shard fabric.
 *
 * Runs the identical closed-loop request quota against 1, 2, and 4
 * Morpheus-SSDs behind one PCIe switch, objects hash-placed across
 * the fleet, and reports the throughput scaling curve plus the p99
 * cost of a Zipf-skewed object popularity (hot shards) at 4 SSDs.
 * Writes BENCH_serving_fleet.json with every run's federated metrics
 * (per-device shard.<d>.* tails and fleet.* aggregates); progress goes
 * to stderr.
 *
 * Exit status is the self-check: the 4-SSD uniform mix must complete
 * every request and reach >= 3x the single-SSD throughput at the same
 * offered load.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
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
main()
{
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

    morpheus::bench::BenchRuns registries;
    std::vector<wk::ServingReport> reports;
    for (const RunSpec &run : runs) {
        std::fprintf(stderr, "running %s...\n", run.name);
        reports.push_back(morpheus::bench::runRecorded(
            registries, run.name, makeOptions(run.ssds, run.skew)));
    }

    const wk::ServingReport &r1 = reports[0];
    const wk::ServingReport &r2 = reports[1];
    const wk::ServingReport &r4 = reports[2];
    const wk::ServingReport &rz = reports[3];
    const double speedup2 = r2.throughputPerSec / r1.throughputPerSec;
    const double speedup4 = r4.throughputPerSec / r1.throughputPerSec;
    const double skew_p99_cost =
        r4.p99Us > 0.0 ? rz.p99Us / r4.p99Us : 0.0;

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
        makeOptions(4, 0.0).sys, registries);

    // ---- self-checks -------------------------------------------------
    morpheus::bench::Gates gate;
    gate(r1.completed == r1.submitted && r4.completed == r4.submitted &&
             rz.completed == rz.submitted,
         "every request completes");
    gate(speedup4 >= kMinFleetSpeedup, "4-SSD speedup >= 3x");
    gate(speedup2 > 1.0, "2-SSD speedup > 1x");
    gate(r4.shards.size() == 4, "per-shard reports present");
    return gate.exitStatus();
}
