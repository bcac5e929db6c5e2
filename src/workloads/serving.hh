/**
 * @file
 * Open-loop multi-tenant serving driver.
 *
 * Where runner.hh measures one invocation end-to-end, this driver
 * subjects the device to *traffic*: several tenants submit StorageApp
 * requests at Poisson arrival times, independent of completions —
 * the open-loop discipline of serving benchmarks, so
 * queueing delay shows up in the measured latency instead of being
 * absorbed by a closed loop's self-throttling. A closed-loop mode
 * (ServingOptions::closedLoop) provides that complementary discipline
 * explicitly: fixed per-tenant concurrency, next request issued on
 * completion, for throughput-vs-latency saturation sweeps.
 *
 * Each tenant's requests read one object format (int array, CSV,
 * JSON, or a columnar scan with optional predicate pushdown) from
 * pre-ingested files drawn from a heavy-tailed size mix, or write
 * (MWRITE) binary values through the on-device serializer. Requests
 * are interleaved at MREAD-batch granularity through the
 * InvokeSession API; the device-side scheduler (ssd.sched in the
 * SystemConfig) decides placement and admission, and the breaker and
 * hybrid policy may route a request to the host path instead. Every
 * request ends in one terminal state that folds into the outcome
 * ledger (OutcomeCounts); the report carries per-tenant exact latency
 * tallies (LatencySummary) and the Jain fairness index over served
 * bytes.
 */

#ifndef MORPHEUS_WORKLOADS_SERVING_HH
#define MORPHEUS_WORKLOADS_SERVING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "host/system_config.hh"
#include "nvme/driver.hh"
#include "obs/critical_path.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sched/hybrid_policy.hh"
#include "shard/shard_router.hh"
#include "sim/fault.hh"

namespace morpheus::workloads {

/** Object format a tenant's requests deserialize (and which applet
 *  runs on the device for them). */
enum class TenantFormat : std::uint8_t {
    kIntArray = 0,  ///< Classic int-array text deserializer.
    kCsv,           ///< CSV-to-columns applet.
    kJson,          ///< JSON record-array applet.
    kColumnar,      ///< Columnar scan applet (projection + predicate
                    ///< pushdown when TenantSpec::pushdown is set).
};

/** "intarray" / "csv" / "json" / "columnar". */
const char *tenantFormatName(TenantFormat f);
/** Inverse of tenantFormatName(); @return false on junk. */
bool tenantFormatFromName(const std::string &name, TenantFormat *out);

/** While a tenant's circuit breaker is open, every Nth request is a
 *  half-open probe down the device path; success closes the breaker. */
inline constexpr unsigned kBreakerProbeEvery = 8;

/** One traffic source. */
struct TenantSpec
{
    std::uint32_t id = 0;
    /** Mean request arrival rate (open loop). */
    double arrivalsPerSec = 2000.0;
    /** Request size classes, in int-array values per request (rows
     *  for kCsv/kColumnar, records for kJson)... */
    std::vector<std::uint32_t> sizeClassValues{2000, 8000, 32000};
    /** ...and their draw probabilities (normalized internally). */
    std::vector<double> sizeClassProb{0.70, 0.25, 0.05};
    /** Object format of this tenant's requests. The default keeps the
     *  classic all-int-array mix (and its Rng draw sequence)
     *  bit-identical to pre-format builds. */
    TenantFormat format = TenantFormat::kIntArray;
    /** Columnar tenants: fraction of rows the predicate keeps
     *  (1.0 = no predicate). */
    double selectivity = 1.0;
    /** Columnar tenants: leading columns projected (0 = all). */
    unsigned projectColumns = 0;
    /** Columnar tenants: total table columns. */
    unsigned tableColumns = 6;
    /** Columnar tenants: evaluate the scan on the device (MINIT
     *  pushdown descriptor). False ships the full table — the
     *  full-object baseline a pushdown tenant is compared against. */
    bool pushdown = true;
    /** Fraction of requests that are MWRITE serializations (the host
     *  streams binary values through the on-device serializer) instead
     *  of reads. 0 (the default) draws nothing extra from the Rng. */
    double writeFraction = 0.0;
};

/** Per-tenant latency-SLO tracking (burn-rate accounting). */
struct SloOptions
{
    bool enabled = false;
    /** Default latency target (µs) for tenants without their own. */
    double targetUs = 2000.0;
    /** Fraction of requests that must meet the target (e.g. 0.99). */
    double objective = 0.99;
    /** Burn-rate window in simulated microseconds (the "minute" of
     *  good/bad-minute accounting, scaled to sim horizons). */
    double windowUs = 5000.0;
};

/** Serving-experiment knobs. */
struct ServingOptions
{
    std::vector<TenantSpec> tenants;
    /** Arrivals are generated in [0, durationSec). */
    double durationSec = 0.02;
    std::uint64_t seed = 1;

    /** Closed-loop mode: each tenant keeps closedLoopConcurrency
     *  requests in flight and issues the next one the moment one
     *  finishes, closedLoopRequests in total (durationSec is ignored).
     *  Queueing never builds beyond the concurrency, so a concurrency
     *  sweep traces the throughput-vs-latency saturation curve. */
    bool closedLoop = false;
    /** Requests each tenant keeps in flight (closed loop). */
    unsigned closedLoopConcurrency = 4;
    /** Requests each tenant issues in total (closed loop). */
    std::uint64_t closedLoopRequests = 64;

    /** MREAD chunk in 512 B blocks (0 = MDTS). */
    std::uint32_t chunkBlocks = 0;
    /** Staging flush threshold forwarded to each invocation (0 = the
     *  device default: granted D-SRAM / 4). With dsramPartitioning a
     *  threshold equal to the grant flushes at grant-full, keeping the
     *  unpartitioned flush cadence while the budget is enforced. */
    std::uint32_t flushThreshold = 0;
    /** Platform, including ssd.sched (the policies under test) and
     *  sys.numSsds (> 1 turns on fleet serving). */
    host::SystemConfig sys{};

    /** Fleet serving: distinct object files per (tenant, size class),
     *  each placed whole on the SSD its name hashes to (shardForKey);
     *  1 draws no object. */
    unsigned objectsPerClass = 1;

    /** Zipfian skew of per-class object popularity (0 = uniform); with
     *  hashed placement a skewed object mix concentrates load on the
     *  shards owning the hot objects. Ignored if objectsPerClass <= 1. */
    double zipfSkew = 0.0;

    /** Provenance label only: placement is always by key hash
     *  (shardForKey), whatever this says. perfbench reads it to tag
     *  its records; nothing in the simulator does. */
    shard::ShardPolicy shardPolicy = shard::ShardPolicy::kHash;

    /** Fault-injection plan, installed around the measured event loop
     *  only (ingest runs clean); an inactive plan installs nothing. */
    sim::FaultPlan faults{};

    /** Driver-side recovery: per-command timeouts, bounded retries
     *  with backoff/retry-after, watchdog-abort synthesis. Disabled by
     *  default (faults then assert, as before). */
    nvme::DriverRecoveryConfig recovery{};

    /** Per-tenant circuit breaker: after this many consecutive
     *  device-path failures the tenant's requests take the baseline
     *  host-read + host-deserialize path until a half-open probe
     *  succeeds. 0 disables the breaker AND the per-request fallback:
     *  failed requests are lost (the recovery-off ablation). While
     *  open, every kBreakerProbeEvery-th request is a half-open probe
     *  down the device path. */
    unsigned breakerThreshold = 3;

    /** Overload-aware hybrid execution (sched::HybridPlacementPolicy,
     *  off by default): per request, the embedded core, the host CPU,
     *  a split of the two, or a shed bounce, by live device pressure
     *  vs. modeled host backlog. The breaker always outranks it. */
    sched::HybridConfig hybrid{};

    /** Optional federation target: runServing() snapshots the system
     *  StatSet (under "sys.") and the report (under "serving.",
     *  "shard." and "fleet.") into it before the machine is torn down. */
    obs::MetricsRegistry *metrics = nullptr;

    /** Tail-based flight recorder, attached as the trace sink around
     *  the event loop (tee-ing to its downstream). Each request's spans
     *  are collected at its terminal outcome and offered for slowest-K
     *  / failed retention. Purely observational. */
    obs::FlightRecorder *flightRecorder = nullptr;

    /** Critical-path attribution: decompose each completed request's
     *  latency into pipeline stages (StageBreakdown). Needs span data:
     *  without a flightRecorder a private one is attached. */
    bool breakdown = false;

    /** Time-series telemetry: the event loop samples loop state, the
     *  outcome ledger and device gauges into it on the timeline's
     *  simulated-time cadence, starting at the first arrival. */
    obs::Timeline *timeline = nullptr;

    /** Per-tenant latency-SLO burn tracking (see SloOptions). */
    SloOptions slo{};
};

/**
 * Terminal-outcome counters: the one ledger of a serving run. Each
 * request folds into its tenant's counts once, at its terminal
 * transition (completed, fallback, rejected or lost); the run total is
 * the sum over tenants. Every request that was submitted ends in
 * exactly one terminal state, so submitted == completed + rejected +
 * lost, and the fallback reasons sum to fallbacks.
 */
struct OutcomeCounts
{
    std::uint64_t submitted = 0;
    /** Served requests: device path plus host fallbacks. */
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;   ///< Terminal refusals (shed valve).
    std::uint64_t retries = 0;    ///< Bounced-and-reparked attempts.
    /** Retries whose MINIT bounced for lack of D-SRAM budget. */
    std::uint64_t dsramBounces = 0;
    /** Device-path invocations that died on an injected fault. */
    std::uint64_t deviceFailures = 0;
    /** Requests completed by the baseline host path (circuit breaker
     *  open, or per-request rescue after a device failure), equal to
     *  fallbackBreaker + fallbackOverload + fallbackProbe. */
    std::uint64_t fallbacks = 0;
    /** ...split by trigger: breaker-open routing and post-failure
     *  rescues; hybrid overload spill; failed half-open probes. */
    std::uint64_t fallbackBreaker = 0;
    std::uint64_t fallbackOverload = 0;
    std::uint64_t fallbackProbe = 0;
    /** Requests served by the split path (device prefix + host
     *  remainder, hybrid only; not counted in fallbacks). */
    std::uint64_t splitRequests = 0;
    /** Hybrid shed-valve bounces (retry-after re-submissions). */
    std::uint64_t shedBounces = 0;
    /** Requests neither completed nor terminally rejected (recovery
     *  and fallback both off while faults fire). */
    std::uint64_t lost = 0;
    /** Device-path completions answered by the object cache. */
    std::uint64_t cacheHits = 0;
    std::uint64_t servedBytes = 0;
    /** Completed MWRITE (serialization) requests and the binary bytes
     *  they streamed host -> device (a subset of completed /
     *  servedBytes). */
    std::uint64_t writes = 0;
    std::uint64_t writeBytes = 0;

    OutcomeCounts &operator+=(const OutcomeCounts &o);
};

/** Registry scopes an OutcomeCounts member is federated under. */
constexpr unsigned kTenantScope = 1;  ///< serving.tenant.<id>.<name>
constexpr unsigned kTotalScope = 2;   ///< serving.<name>
constexpr unsigned kHybridScope = 4;  ///< serving.<name>, hybrid only

/** One ledger member and its registry name. */
struct OutcomeField
{
    const char *name;
    std::uint64_t OutcomeCounts::*member;
    unsigned scopes;  ///< k*Scope bits.
};

/** The ledger's registry table: the serving.* federation is a loop
 *  over it, and nothing else names an outcome counter. */
extern const std::array<OutcomeField, 17> kOutcomeFields;

/** Exact latency summary of a set of completed requests (µs). */
struct LatencySummary
{
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double maxUs = 0.0;
};

/** Critical-path breakdown of a set of requests (opts.breakdown). */
struct StageBreakdown
{
    /** Completed requests with a span-derived stage decomposition. */
    std::uint64_t attributed = 0;
    /** Mean µs per stage over attributed requests (index by
     *  obs::Stage; sums to ~meanUs). */
    std::array<double, obs::kNumStages> stageMeanUs{};
    /** Stage decomposition of the p99-ranked attributed request —
     *  sums exactly to that request's latency, i.e. to p99Us. */
    std::array<double, obs::kNumStages> stageP99Us{};
};

/** Per-tenant outcome. */
struct TenantReport : OutcomeCounts, LatencySummary, StageBreakdown
{
    std::uint32_t id = 0;
    /** Object format the tenant's requests used. */
    TenantFormat format = TenantFormat::kIntArray;
    /** cacheHits / completed (0 when nothing completed). */
    double cacheHitRate = 0.0;

    // --- SLO burn tracking (opts.slo.enabled) ------------------------
    double sloTargetUs = 0.0;     ///< SloOptions::targetUs.
    std::uint64_t sloViolations = 0;  ///< Completions over the target.
    /** Burn windows (SloOptions::windowUs > 0 only); bad = violation
     *  fraction over the error budget. */
    std::uint64_t sloGoodWindows = 0;
    std::uint64_t sloBadWindows = 0;
    /** (violations/completed) / (1 - objective); > 1 burns error
     *  budget faster than the objective allows. */
    double sloBurnRate = 0.0;
};

/** Per-device outcome of a fleet run (sys.numSsds > 1). */
struct ShardReport : LatencySummary
{
    unsigned device = 0;
    /** Requests whose object lives here, whatever served them. */
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;  ///< ...that completed.
    std::uint64_t servedBytes = 0;
};

/** Whole-experiment outcome: the tenants' ledgers summed, and the
 *  all-tenant latency and breakdown. */
struct ServingReport : OutcomeCounts, LatencySummary, StageBreakdown
{
    std::vector<TenantReport> tenants;
    /** One entry per SSD in fleet runs; empty for single-SSD runs. */
    std::vector<ShardReport> shards;
    /** Placement decisions the hybrid policy handed out, indexed by
     *  sched::ExecPlacement. */
    std::array<std::uint64_t, sched::kNumPlacements> hybridDecisions{};
    /** Spill-mode transitions (hysteresis flips). */
    std::uint64_t hybridFlips = 0;
    /** Host-side driver recovery activity during the run. */
    std::uint64_t driverRetries = 0;
    std::uint64_t driverTimeouts = 0;
    /** Jain index over servedBytes (1.0 = perfectly fair). */
    double jainFairness = 0.0;
    double throughputPerSec = 0.0;
    sim::Tick makespan = 0;
    /** Fleet runs: device whose shard p99 is worst (0 otherwise). */
    unsigned stragglerShard = 0;
};

/** Run one serving experiment — open-loop Poisson by default,
 *  fixed-concurrency closed loop with ServingOptions::closedLoop.
 *  Deterministic in the seed. */
ServingReport runServing(const ServingOptions &opts);

}  // namespace morpheus::workloads

#endif  // MORPHEUS_WORKLOADS_SERVING_HH
