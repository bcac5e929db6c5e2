#include "workloads/serving.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "host/host_exec.hh"
#include "obs/critical_path.hh"
#include "obs/flight_recorder.hh"
#include "obs/timeline.hh"
#include "serde/columnar.hh"
#include "shard/shard_fabric.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"
#include "workloads/generators.hh"
#include "workloads/objects.hh"

namespace morpheus::workloads {

namespace {

/** Exact latency tails: every completed request's latency is kept and
 *  quantiles are true ceil-rank order statistics — the same pick the
 *  per-stage summarizer makes for its p99 exemplar, so a tenant's
 *  stage decomposition sums to its reported p99 exactly even when an
 *  overloaded run stretches the tail arbitrarily (a fixed-range
 *  histogram degraded to max() there). */
struct LatencyTally
{
    void sample(double us)
    {
        _v.push_back(us);
        _sorted = false;
    }
    std::uint64_t samples() const { return _v.size(); }
    double mean() const
    {
        if (_v.empty())
            return 0.0;
        double sum = 0.0;
        for (const double x : _v)
            sum += x;
        return sum / static_cast<double>(_v.size());
    }
    double max() const
    {
        ensureSorted();
        return _v.empty() ? 0.0 : _v.back();
    }
    double quantile(double q) const
    {
        if (_v.empty())
            return 0.0;
        ensureSorted();
        const auto rank = std::min<std::size_t>(
            _v.size() - 1,
            std::max<std::size_t>(
                1, static_cast<std::size_t>(std::ceil(
                       q * static_cast<double>(_v.size())))) -
                1);
        return _v[rank];
    }

  private:
    void ensureSorted() const
    {
        if (!_sorted) {
            std::sort(_v.begin(), _v.end());
            _sorted = true;
        }
    }
    mutable std::vector<double> _v;
    mutable bool _sorted = true;
};

/** One generated request of the open-loop trace. */
struct Request
{
    sim::Tick arrival = 0;
    unsigned tenantIdx = 0;
    unsigned classIdx = 0;  ///< Into the tenant's size classes.
    unsigned objIdx = 0;    ///< Into the class's object instances.
    /** MWRITE serialization request instead of a read. */
    bool write = false;
};

/** One pre-ingested object file a request can target. */
struct ObjectInstance
{
    host::FileExtent extent;
    std::uint64_t objectBytes = 0;
    /** Parse cost of the file, for the host-fallback path's CPU
     *  conversion charge (the paper's baseline model). For columnar
     *  tenants this is the reference scan's cost (same kernel the
     *  device runs), so the fallback charge matches the pushdown. */
    serde::ParseCost cost;
    /** SSD holding the file (0 outside fleet runs). */
    unsigned device = 0;

    // Write-path resources (tenants with writeFraction > 0 only).
    /** Host buffer of binary i64 values an MWRITE request streams. */
    pcie::Addr writeSrc = 0;
    std::uint64_t writeSrcBytes = 0;
    /** Scratch flash region the serialized text lands in (disjoint
     *  from every read file, so read-object cache entries survive). */
    host::FileExtent writeDst;
};

/** A request's size class: its object instances. Single-SSD runs keep
 *  exactly one; fleet runs spread objectsPerClass across the SSDs. */
struct SizeClass
{
    std::vector<ObjectInstance> objects;
};

/** Instant on the serving driver's own track (breaker transitions,
 *  fallback starts, hybrid placement decisions, shed bounces). */
void
recordServingInstant(const char *name, std::uint32_t tenant,
                     sim::Tick when)
{
    obs::traceInstant("host.serving", name, "serving", when,
                      {.tenant = tenant});
}

struct ActiveSession
{
    core::InvokeSession session;
    unsigned requestIdx = 0;
    unsigned device = 0;  ///< Which runtime the session belongs to.
};

/** Event-loop entry: what happens next and when. */
struct Event
{
    sim::Tick time = 0;
    std::uint64_t seq = 0;  ///< Deterministic FIFO tie-break.
    enum Kind { kArrival, kStep } kind = kArrival;
    unsigned idx = 0;  ///< Request index / active-session index.

    bool
    operator>(const Event &o) const
    {
        return time != o.time ? time > o.time : seq > o.seq;
    }
};

/** Draw a size-class index from the tenant's (normalized) mix. */
unsigned
drawClass(const TenantSpec &tenant, sim::Rng &rng)
{
    double total = 0.0;
    for (double p : tenant.sizeClassProb)
        total += p;
    double u = rng.nextDouble() * total;
    for (unsigned k = 0; k < tenant.sizeClassProb.size(); ++k) {
        u -= tenant.sizeClassProb[k];
        if (u <= 0.0)
            return k;
    }
    return static_cast<unsigned>(tenant.sizeClassProb.size() - 1);
}

/** Draw the object instance within a size class: one extra Rng draw
 *  only when there is a choice to make, so single-object runs keep the
 *  classic draw sequence bit-identical. */
unsigned
drawObject(const ZipfianGenerator *zipf, sim::Rng &rng)
{
    return zipf != nullptr ? zipf->draw(rng) : 0;
}

/** Draw whether the request is an MWRITE serialization: the extra Rng
 *  draw happens only for tenants with writeFraction > 0, so read-only
 *  runs keep the classic draw sequence bit-identical. */
bool
drawWrite(const TenantSpec &tenant, sim::Rng &rng)
{
    return tenant.writeFraction > 0.0 &&
           rng.nextDouble() < tenant.writeFraction;
}

/** Poisson arrival trace for one tenant. */
std::vector<Request>
genArrivals(const ServingOptions &opts, unsigned tenant_idx,
            const ZipfianGenerator *obj_zipf, sim::Rng &rng)
{
    const TenantSpec &tenant = opts.tenants[tenant_idx];
    const sim::Tick horizon = static_cast<sim::Tick>(
        opts.durationSec * static_cast<double>(sim::kPsPerSec));

    std::vector<Request> out;
    double t_ps = 0.0;
    while (true) {
        const double gap_sec =
            -std::log(1.0 - rng.nextDouble()) / tenant.arrivalsPerSec;
        t_ps += gap_sec * static_cast<double>(sim::kPsPerSec);
        if (t_ps >= static_cast<double>(horizon))
            break;
        Request r;
        r.arrival = static_cast<sim::Tick>(t_ps);
        r.tenantIdx = tenant_idx;
        r.classIdx = drawClass(tenant, rng);
        r.objIdx = drawObject(obj_zipf, rng);
        r.write = drawWrite(tenant, rng);
        out.push_back(r);
    }
    return out;
}

double
ticksToUs(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::kPsPerUs);
}

}  // namespace

const char *
tenantFormatName(TenantFormat f)
{
    switch (f) {
      case TenantFormat::kIntArray:
        return "intarray";
      case TenantFormat::kCsv:
        return "csv";
      case TenantFormat::kJson:
        return "json";
      case TenantFormat::kColumnar:
        return "columnar";
    }
    return "?";
}

bool
tenantFormatFromName(const std::string &name, TenantFormat *out)
{
    if (name == "intarray" || name == "int")
        *out = TenantFormat::kIntArray;
    else if (name == "csv")
        *out = TenantFormat::kCsv;
    else if (name == "json")
        *out = TenantFormat::kJson;
    else if (name == "columnar")
        *out = TenantFormat::kColumnar;
    else
        return false;
    return true;
}

ServingReport
runServing(const ServingOptions &opts)
{
    MORPHEUS_ASSERT(!opts.tenants.empty(), "serving without tenants");
    host::HostSystem sys(opts.sys);
    // One MorpheusRuntime per SSD; the fabric degrades to exactly the
    // classic single-runtime construction when sys.numSsds == 1.
    shard::ShardFabric fabric(sys, opts.shardPolicy);
    fabric.setRecovery(opts.recovery);
    core::StandardImages images = core::StandardImages::make();

    const unsigned num_ssds = sys.numSsds();
    const unsigned objs_per_class = std::max(1u, opts.objectsPerClass);
    std::optional<ZipfianGenerator> obj_zipf;
    if (objs_per_class > 1)
        obj_zipf.emplace(objs_per_class, opts.zipfSkew);
    const ZipfianGenerator *zipf_ptr =
        obj_zipf ? &*obj_zipf : nullptr;

    // ---- ingest the object files per (tenant, size class) ------------
    // Per-tenant pushdown descriptor: columnar tenants with pushdown on
    // carry their encoded ScanSpec on every read's MINIT; everyone else
    // keeps an empty vector — and an empty vector produces the exact
    // pre-pushdown MINIT wire encoding.
    std::vector<serde::ScanSpec> tenant_spec(opts.tenants.size());
    std::vector<std::vector<std::uint32_t>> tenant_pushdown(
        opts.tenants.size());
    for (unsigned ti = 0; ti < opts.tenants.size(); ++ti) {
        const TenantSpec &t = opts.tenants[ti];
        if (t.format != TenantFormat::kColumnar)
            continue;
        if (t.pushdown) {
            tenant_spec[ti] = serde::makeSelectivitySpec(
                t.selectivity, t.projectColumns, t.tableColumns);
            tenant_pushdown[ti] = tenant_spec[ti].encode();
        }
        // pushdown off: the default ScanSpec — a full-table scan the
        // applet runs descriptor-less (the full-object baseline).
    }

    std::vector<std::vector<SizeClass>> classes(opts.tenants.size());
    sim::Tick ingest_done = 0;
    for (unsigned ti = 0; ti < opts.tenants.size(); ++ti) {
        const TenantSpec &tenant = opts.tenants[ti];
        MORPHEUS_ASSERT(tenant.sizeClassValues.size() ==
                            tenant.sizeClassProb.size(),
                        "size class values/probabilities mismatch");
        classes[ti].resize(tenant.sizeClassValues.size());
        for (unsigned k = 0; k < tenant.sizeClassValues.size(); ++k) {
            classes[ti][k].objects.resize(objs_per_class);
            for (unsigned o = 0; o < objs_per_class; ++o) {
                ObjectInstance &inst = classes[ti][k].objects[o];
                const std::uint64_t gen_seed =
                    opts.seed + ti * 131 + k + o * 7919;
                std::vector<std::uint8_t> text;
                switch (tenant.format) {
                  case TenantFormat::kIntArray: {
                    const AnyObject obj = genIntArray(
                        gen_seed, tenant.sizeClassValues[k]);
                    text = serializeObject(obj);
                    inst.objectBytes = objectBytes(obj);
                    // Reference parse for the host-fallback conversion
                    // charge.
                    parseObject(ObjectKind::kIntArray, text.data(),
                                text.size(), &inst.cost);
                    break;
                  }
                  case TenantFormat::kCsv: {
                    const AnyObject obj = genCsvTable(
                        gen_seed, tenant.sizeClassValues[k], 8);
                    text = serializeObject(obj);
                    inst.objectBytes = objectBytes(obj);
                    parseObject(ObjectKind::kCsvTable, text.data(),
                                text.size(), &inst.cost);
                    break;
                  }
                  case TenantFormat::kJson: {
                    const AnyObject obj = genJsonRecords(
                        gen_seed, tenant.sizeClassValues[k]);
                    text = serializeObject(obj);
                    inst.objectBytes = objectBytes(obj);
                    parseObject(ObjectKind::kJsonRecords, text.data(),
                                text.size(), &inst.cost);
                    break;
                  }
                  case TenantFormat::kColumnar: {
                    const serde::ColumnarTableObject tab =
                        serde::genColumnarTable(
                            gen_seed, tenant.sizeClassValues[k],
                            tenant.tableColumns);
                    text = tab.toFlash();
                    // Reference scan with the tenant's effective spec
                    // (full scan when pushdown is off): the emitted
                    // size is what the device DMAs out, and the cost
                    // is the host fallback's conversion charge — the
                    // same shared kernel either way.
                    const serde::ScanSpec &spec = tenant_spec[ti];
                    const serde::ScanResult ref = serde::scanTable(
                        text.data(), text.size(), spec);
                    MORPHEUS_ASSERT(ref.ok,
                                    "columnar ingest scan failed");
                    inst.objectBytes = ref.out.size();
                    inst.cost = ref.cost;
                    break;
                  }
                }
                // Single-object classes keep the classic file name so
                // single-SSD runs stay bit-identical.
                std::string name = "serve.t" +
                                   std::to_string(tenant.id) + ".c" +
                                   std::to_string(k);
                if (objs_per_class > 1)
                    name += ".o" + std::to_string(o);
                if (num_ssds > 1)
                    inst.device = fabric.router().shardForKey(name);
                inst.extent =
                    sys.createFileOn(inst.device, name, text);
                ingest_done =
                    std::max(ingest_done, inst.extent.readyAt);
                if (tenant.writeFraction > 0.0) {
                    // MWRITE resources: the binary values a write
                    // request streams through the on-device
                    // serializer, and a scratch flash region (its own
                    // file, disjoint from every read extent) the text
                    // lands in.
                    const serde::IntArrayObject wobj = genIntArray(
                        gen_seed + 0x9E3779B9u,
                        tenant.sizeClassValues[k]);
                    std::vector<std::uint8_t> binary;
                    binary.reserve(wobj.values.size() * 8);
                    for (const auto v : wobj.values) {
                        const auto *p =
                            reinterpret_cast<const std::uint8_t *>(&v);
                        binary.insert(binary.end(), p, p + 8);
                    }
                    inst.writeSrcBytes = binary.size();
                    inst.writeSrc = sys.allocHost(binary.size());
                    sys.mem().store().writeVec(inst.writeSrc, binary);
                    const auto wtext =
                        serializeObject(AnyObject(wobj));
                    inst.writeDst = sys.createFileOn(
                        inst.device, name + ".wdst",
                        std::vector<std::uint8_t>(wtext.size(), 0));
                    ingest_done = std::max(ingest_done,
                                           inst.writeDst.readyAt);
                }
            }
        }
    }

    // ---- generate the request trace ----------------------------------
    std::vector<Request> requests;
    if (opts.closedLoop) {
        // Closed loop: the size-class draws are fixed up front (so the
        // run is deterministic in the seed), but arrival times are
        // assigned at issue — each tenant's next request starts when
        // one of its in-flight requests finishes.
        for (unsigned ti = 0; ti < opts.tenants.size(); ++ti) {
            sim::Rng rng(opts.seed * 1000003u + opts.tenants[ti].id);
            for (std::uint64_t n = 0; n < opts.closedLoopRequests;
                 ++n) {
                Request r;
                r.tenantIdx = ti;
                r.classIdx = drawClass(opts.tenants[ti], rng);
                r.objIdx = drawObject(zipf_ptr, rng);
                r.write = drawWrite(opts.tenants[ti], rng);
                requests.push_back(r);
            }
        }
    } else {
        for (unsigned ti = 0; ti < opts.tenants.size(); ++ti) {
            sim::Rng rng(opts.seed * 1000003u + opts.tenants[ti].id);
            auto trace = genArrivals(opts, ti, zipf_ptr, rng);
            requests.insert(requests.end(), trace.begin(), trace.end());
        }
        // Arrivals start after ingest so admission sees a settled
        // device.
        for (Request &r : requests)
            r.arrival += ingest_done;
        std::stable_sort(requests.begin(), requests.end(),
                         [](const Request &a, const Request &b) {
                             return a.arrival < b.arrival;
                         });
    }

    // Per-request applet selection by the tenant's format (the write
    // path always runs the int64 serializer). All-int-array mixes
    // resolve to the same image reference every request, exactly as
    // the pre-format hoisted lookup did.
    auto image_for = [&](const TenantSpec &t,
                         bool write) -> const core::StorageAppImage & {
        if (write)
            return images.int64Serializer;
        switch (t.format) {
          case TenantFormat::kIntArray:
            return imageFor(ObjectKind::kIntArray, images);
          case TenantFormat::kCsv:
            return imageFor(ObjectKind::kCsvTable, images);
          case TenantFormat::kJson:
            return imageFor(ObjectKind::kJsonRecords, images);
          case TenantFormat::kColumnar:
            return images.columnarScan;
        }
        return imageFor(ObjectKind::kIntArray, images);
    };

    // ---- event loop ---------------------------------------------------
    // Fault injection covers only the measured loop (ingest ran clean);
    // the injector stays installed through metrics federation below so
    // sys.faults.* is visible there. An inactive plan installs nothing,
    // keeping the fault-free run bit-identical.
    std::optional<sim::FaultInjector> injector;
    std::optional<sim::ScopedFaultInjector> fault_scope;
    if (opts.faults.active()) {
        injector.emplace(opts.faults);
        fault_scope.emplace(&*injector);
    }

    // ---- observability: flight recorder + attribution + timeline -----
    // The recorder becomes THE trace sink for the measured loop (tee-ing
    // to its downstream). A breakdown without an explicit recorder gets
    // a private one whose downstream is whatever sink was already
    // attached, so existing trace consumers keep seeing every span.
    // Everything here observes simulated time without perturbing it:
    // the run's results stay bit-identical with all of it enabled.
    std::optional<obs::FlightRecorder> local_recorder;
    obs::FlightRecorder *recorder = opts.flightRecorder;
    if (recorder == nullptr && opts.breakdown) {
        obs::FlightRecorderConfig frc;
        frc.downstream = obs::traceSink();
        local_recorder.emplace(frc);
        recorder = &*local_recorder;
    }
    // Attach/detach by hand instead of an optional ScopedTraceSink:
    // GCC 12's -Wmaybe-uninitialized misfires on the optional's
    // destructor path at this inlining depth.
    obs::TraceSink *const prev_sink = obs::traceSink();
    if (recorder != nullptr)
        obs::setTraceSink(recorder);

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events;
    std::uint64_t seq = 0;

    // Closed-loop issue bookkeeping: each tenant's request indices in
    // issue order, and the cursor to its next unissued request.
    std::vector<std::vector<unsigned>> loop_queue(opts.tenants.size());
    std::vector<std::size_t> loop_next(opts.tenants.size(), 0);
    if (opts.closedLoop) {
        for (unsigned i = 0; i < requests.size(); ++i)
            loop_queue[requests[i].tenantIdx].push_back(i);
    }
    // Issue the tenant's next request at @p when (closed loop only;
    // called from every terminal outcome so the in-flight count stays
    // at the configured concurrency until the quota runs out).
    auto issue_next = [&](unsigned tenant_idx, sim::Tick when) {
        if (!opts.closedLoop)
            return;
        std::size_t &cursor = loop_next[tenant_idx];
        if (cursor >= loop_queue[tenant_idx].size())
            return;
        const unsigned req_idx = loop_queue[tenant_idx][cursor++];
        requests[req_idx].arrival = when;
        events.push(Event{when, seq++, Event::kArrival, req_idx});
    };

    if (opts.closedLoop) {
        for (unsigned ti = 0; ti < opts.tenants.size(); ++ti)
            for (unsigned c = 0; c < opts.closedLoopConcurrency; ++c)
                issue_next(ti, ingest_done);
    } else {
        for (unsigned i = 0; i < requests.size(); ++i)
            events.push(
                Event{requests[i].arrival, seq++, Event::kArrival, i});
    }

    std::vector<ActiveSession> active;
    std::vector<unsigned> free_slots;
    std::vector<unsigned> parked;  // FIFO of request indices

    struct Outcome
    {
        bool completed = false;
        bool rejected = false;
        bool fellBack = false;
        /** Valid when fellBack: which trigger host-routed it. */
        host::HostExecReason fallbackReason =
            host::HostExecReason::kBreaker;
        bool split = false;
        bool shedRejected = false;
        std::uint64_t retries = 0;
        std::uint64_t dsramBounces = 0;
        std::uint64_t shedBounces = 0;
        std::uint64_t deviceFailures = 0;
        bool servedFromCache = false;
        sim::Tick latency = 0;
        std::uint64_t servedBytes = 0;
    };
    std::vector<Outcome> outcomes(requests.size());
    std::vector<sched::CircuitBreaker> breakers(
        opts.tenants.size(),
        sched::CircuitBreaker(opts.breakerThreshold,
                              opts.breakerProbeEvery));
    // Whether the request's latest device-path attempt was a half-open
    // probe (a failed probe's rescue counts under the probe reason).
    std::vector<char> is_probe(requests.size(), 0);

    // The host-execution engine serves breaker fallbacks always; with
    // hybrid enabled it also takes overload spill and split halves,
    // placed by one policy per device (per-device hysteresis state).
    host::HostExecEngine host_exec(sys, opts.hybrid.hostCostScale);
    std::vector<sched::HybridPlacementPolicy> hybrid_pol(
        num_ssds, sched::HybridPlacementPolicy(opts.hybrid));
    // In-flight split state: device-prefix bytes and the host half's
    // completion tick, indexed by request (hybrid runs only).
    std::vector<std::uint64_t> split_cut;
    std::vector<sim::Tick> split_host_done;
    if (opts.hybrid.enabled) {
        split_cut.assign(requests.size(), 0);
        split_host_done.assign(requests.size(), 0);
    }
    sim::Tick last_done = ingest_done;

    // Per-request observability state (sized only with a recorder, so
    // the uninstrumented path allocates nothing).
    std::vector<std::vector<obs::TraceId>> req_traces;
    std::vector<obs::Attribution> req_attr;
    std::vector<char> req_attributed;
    std::vector<sim::Tick> park_begin;
    if (recorder != nullptr) {
        req_traces.resize(requests.size());
        req_attr.resize(requests.size());
        req_attributed.assign(requests.size(), 0);
        park_begin.assign(requests.size(), 0);
    }

    // Running terminal-outcome counters for timeline sampling.
    obs::Timeline *tl = opts.timeline;
    std::vector<std::uint64_t> tenant_done_run(opts.tenants.size(), 0);
    std::uint64_t completed_run = 0, rejected_run = 0, lost_run = 0,
                  fallbacks_run = 0;

    // Accumulate the trace ids a request's driver commands consumed
    // (across every bounce/retry attempt).
    auto note_traces = [&](unsigned req_idx,
                           const std::vector<obs::TraceId> &ids) {
        if (recorder == nullptr)
            return;
        req_traces[req_idx].insert(req_traces[req_idx].end(),
                                   ids.begin(), ids.end());
    };

    // Trace id the host-side spans of a request ride under: the last
    // device-command id when the request touched the device, else a
    // synthetic id in a device range (0xFF) no fleet reaches — so a
    // host-only request's spans are still collectible by id.
    std::uint32_t host_trace_seq = 0;
    auto host_trace = [&](unsigned req_idx) -> obs::TraceId {
        if (recorder == nullptr)
            return 0;
        if (!req_traces[req_idx].empty())
            return req_traces[req_idx].back();
        const obs::TraceId id =
            (obs::TraceId{0xFFu} << 24) | ++host_trace_seq;
        req_traces[req_idx].push_back(id);
        return id;
    };

    // Synthetic host-side backoff span: the wait between a bounce and
    // the re-submission is real latency the device never sees; naming
    // it keeps the critical-path attribution gap-free.
    auto record_retry_wait = [&](unsigned req_idx, sim::Tick begin,
                                 sim::Tick end) {
        if (recorder == nullptr || end <= begin ||
            req_traces[req_idx].empty()) {
            return;
        }
        obs::recordSpan(
            *recorder, "host.serving", "retry_wait", "serving", begin, end,
            {.trace = req_traces[req_idx].back(),
             .tenant = opts.tenants[requests[req_idx].tenantIdx].id});
    };

    // Terminal outcome: pull the request's spans out of the ring,
    // derive the stage decomposition for completed requests, and offer
    // the full trace for slowest-K / failed retention.
    auto finish_observability = [&](unsigned req_idx, bool failed,
                                    sim::Tick done) {
        if (recorder == nullptr)
            return;
        const Request &req = requests[req_idx];
        const Outcome &out = outcomes[req_idx];
        std::vector<obs::Span> spans =
            recorder->collect(req_traces[req_idx]);
        const sim::Tick end =
            out.completed ? req.arrival + out.latency : done;
        if (!failed && out.completed) {
            req_attr[req_idx] =
                obs::attributeSpans(spans, req.arrival, end);
            req_attributed[req_idx] = 1;
        }
        obs::RequestMeta meta;
        meta.requestId = req_idx;
        meta.tenant = opts.tenants[req.tenantIdx].id;
        meta.begin = req.arrival;
        meta.end = end;
        // Requests that saw a device failure (including the ones that
        // tripped the breaker and were rescued by the host path) are
        // always retention-worthy.
        meta.failed = failed || out.deviceFailures > 0;
        recorder->offer(meta, std::move(spans));
    };

    // Re-enqueue everything parked as fresh arrivals at @p when: a
    // completion is the retry signal a hint-less busy status asks the
    // host to wait for (hinted bounces are timed through the heap
    // instead).
    auto release_parked = [&](sim::Tick when) {
        std::vector<unsigned> waiting;
        waiting.swap(parked);
        for (unsigned req_idx : waiting) {
            if (recorder != nullptr)
                record_retry_wait(req_idx, park_begin[req_idx], when);
            events.push(Event{when, seq++, Event::kArrival, req_idx});
        }
    };

    // The paper's baseline path (Fig 1), via the host-execution
    // engine: host read()s the raw text in chunks and converts on the
    // CPU. The breaker uses it to keep availability at 100% while the
    // device path is faulting; the hybrid policy uses it as spill
    // capacity past device saturation.
    auto fallback_request = [&](unsigned req_idx, sim::Tick when,
                                host::HostExecReason reason) {
        const Request &req = requests[req_idx];
        const ObjectInstance &inst =
            classes[req.tenantIdx][req.classIdx].objects[req.objIdx];
        // Breaker-path rescues keep the classic tenant-pinned core;
        // overload spill spreads over the least-loaded core.
        const unsigned core =
            reason == host::HostExecReason::kOverload
                ? host_exec.leastLoadedCore(when)
                : req.tenantIdx % sys.cpu().config().cores;

        host::HostExecRequest hreq;
        // A write request's rescue is the baseline host serialization:
        // the CPU formats the values and a plain write lands the text,
        // modeled with the same chunked transfer+convert charge over
        // the destination region.
        hreq.extent = req.write ? inst.writeDst : inst.extent;
        // A failed split session is rescued over its device prefix
        // only: the host half of the remainder already ran.
        const std::uint64_t cut =
            !req.write && opts.hybrid.enabled ? split_cut[req_idx] : 0;
        if (cut > 0)
            hreq.extent.sizeBytes = cut;
        hreq.fileBytes = hreq.extent.sizeBytes;
        if (cut > 0)
            hreq.fileBytes = inst.extent.sizeBytes;
        hreq.objectBytes =
            req.write ? inst.writeSrcBytes : inst.objectBytes;
        hreq.cost = inst.cost;
        hreq.device = inst.device;
        hreq.tenant = opts.tenants[req.tenantIdx].id;
        hreq.reason = reason;
        hreq.trace = host_trace(req_idx);
        sim::Tick done = host_exec.execute(hreq, core, when);
        if (cut > 0) {
            done = std::max(done, split_host_done[req_idx]);
            split_cut[req_idx] = 0;
        }

        recordServingInstant("fallback",
                             opts.tenants[req.tenantIdx].id, when);
        Outcome &out = outcomes[req_idx];
        out.completed = true;
        out.fellBack = true;
        out.fallbackReason = reason;
        out.latency = done - req.arrival;
        out.servedBytes =
            req.write ? inst.writeSrcBytes : inst.objectBytes;
        last_done = std::max(last_done, done);
        ++completed_run;
        ++fallbacks_run;
        ++tenant_done_run[req.tenantIdx];
        finish_observability(req_idx, /*failed=*/false, done);
        release_parked(done);
        issue_next(req.tenantIdx, done);
    };

    // A device-path attempt for req_idx failed terminally at `when`.
    auto device_failure = [&](unsigned req_idx, sim::Tick when) {
        const Request &req = requests[req_idx];
        Outcome &out = outcomes[req_idx];
        ++out.deviceFailures;
        if (breakers[req.tenantIdx].onDeviceFailure()) {
            recordServingInstant("breaker_open",
                                 opts.tenants[req.tenantIdx].id, when);
        }
        last_done = std::max(last_done, when);
        if (opts.breakerThreshold > 0) {
            // Rescue the request on the host path: completion stays
            // at 100% even while the device is faulting. A failed
            // half-open probe's rescue is counted under its own
            // reason so the breaker's duty cycle is visible.
            fallback_request(req_idx, when,
                             is_probe[req_idx]
                                 ? host::HostExecReason::kProbe
                                 : host::HostExecReason::kBreaker);
        } else {
            // The recovery-off ablation: the request is lost (neither
            // completed nor rejected) — still a terminal outcome for
            // the closed loop's in-flight accounting.
            ++lost_run;
            finish_observability(req_idx, /*failed=*/true, when);
            issue_next(req.tenantIdx, when);
        }
    };

    auto start_request = [&](unsigned req_idx, sim::Tick when) {
        const Request &req = requests[req_idx];
        const TenantSpec &tenant = opts.tenants[req.tenantIdx];
        const ObjectInstance &inst =
            classes[req.tenantIdx][req.classIdx].objects[req.objIdx];
        core::MorpheusRuntime &runtime = fabric.runtime(inst.device);

        // The breaker outranks placement: an open breaker's requests
        // are host-routed under the breaker reason (except periodic
        // half-open probes, which always test the device), and never
        // reach the hybrid policy — no double-routing.
        const sched::CircuitBreaker::Route br_route =
            breakers[req.tenantIdx].route();
        is_probe[req_idx] =
            br_route == sched::CircuitBreaker::Route::kProbe;
        if (br_route == sched::CircuitBreaker::Route::kHost) {
            fallback_request(req_idx, when,
                             host::HostExecReason::kBreaker);
            return;
        }

        // Hybrid placement: a closed-breaker request may be spilled
        // to the host, split across both executors, or shed, by live
        // device pressure vs. modeled host backlog.
        std::uint64_t cut = 0;
        if (opts.hybrid.enabled && !req.write &&
            br_route == sched::CircuitBreaker::Route::kDevice) {
            sched::HybridSignals sig;
            sig.backlogBytes = fabric.deviceBacklogBytes(inst.device);
            sig.queueDepth = fabric.deviceQueueDepth(inst.device);
            sig.dsramBounces = fabric.deviceDsramBounces(inst.device);
            sig.hostBacklogUs = host_exec.minBacklogUs(when);
            sig.requestBytes = inst.extent.sizeBytes;
            const sched::PlacementDecision pd =
                hybrid_pol[inst.device].decide(sig, when);
            if (pd.placement == sched::ExecPlacement::kHost) {
                recordServingInstant("place_host", tenant.id, when);
                fallback_request(req_idx, when,
                                 host::HostExecReason::kOverload);
                return;
            }
            if (pd.placement == sched::ExecPlacement::kShed) {
                Outcome &out = outcomes[req_idx];
                ++out.shedBounces;
                recordServingInstant("shed_bounce", tenant.id, when);
                if (out.shedBounces > opts.hybrid.shedMaxBounces) {
                    // Deterministic shedding: past the bounce budget
                    // the request is rejected outright instead of
                    // feeding an unbounded retry queue.
                    out.shedRejected = true;
                    out.rejected = true;
                    last_done = std::max(last_done, when);
                    ++rejected_run;
                    finish_observability(req_idx, /*failed=*/true,
                                         when);
                    issue_next(req.tenantIdx, when);
                    return;
                }
                ++out.retries;
                // Linear backoff over the request's bounce count so
                // repeated sheds spread re-offered load out.
                const sim::Tick resume =
                    when + sim::Tick(pd.retryAfterUs) *
                               sim::kPsPerUs *
                               sim::Tick(out.shedBounces);
                if (recorder != nullptr) {
                    host_trace(req_idx);
                    record_retry_wait(req_idx, when, resume);
                }
                events.push(
                    Event{resume, seq++, Event::kArrival, req_idx});
                return;
            }
            if (pd.placement == sched::ExecPlacement::kSplit) {
                cut = static_cast<std::uint64_t>(
                    static_cast<double>(inst.extent.sizeBytes) *
                    pd.deviceShare);
                if (cut == 0 || cut >= inst.extent.sizeBytes)
                    cut = 0;  // degenerate split: plain device path
                else
                    recordServingInstant("place_split", tenant.id,
                                         when);
            }
        }

        core::InvokeOptions iopts;
        iopts.hostCore = req.tenantIdx % sys.cpu().config().cores;
        iopts.chunkBlocks = opts.chunkBlocks;
        iopts.flushThreshold = opts.flushThreshold;
        iopts.tenantId = tenant.id;
        // A split streams only the prefix sub-extent through the
        // device (MINIT declares the prefix length, MREAD chunks are
        // byte-precise, and the int-array parser tolerates the
        // truncated tail); the host converts the remainder
        // concurrently once the MINIT is accepted.
        host::FileExtent dev_extent = inst.extent;
        if (req.write) {
            // MWRITE session: the stream declares the binary source
            // length; chunks land behind the scratch region's base.
            iopts.serialize = true;
            iopts.writeSrc = inst.writeSrc;
            iopts.writeDstByte = inst.writeDst.startByte;
            dev_extent = inst.writeDst;
            dev_extent.sizeBytes = inst.writeSrcBytes;
        } else {
            iopts.pushdown = tenant_pushdown[req.tenantIdx];
            if (cut > 0)
                dev_extent.sizeBytes = cut;
        }
        const core::DmaTarget target =
            req.write ? core::DmaTarget{inst.writeSrc, false}
                      : runtime.hostTarget(inst.objectBytes);
        const core::MsStream stream =
            runtime.streamCreate(dev_extent, when, iopts.hostCore);

        core::InvokeSession s = runtime.beginInvoke(
            image_for(tenant, req.write), stream, target, when, iopts);
        if (!s.accepted) {
            // A refused MINIT never wrote the target; a re-offer
            // allocates afresh.
            if (!req.write)
                sys.freeHost(target.addr, inst.objectBytes);
            note_traces(req_idx, s.traceIds);
            if (s.failed) {
                // MINIT died on an injected fault with the retry
                // budget spent: a device failure, not a bounce.
                device_failure(req_idx, s.result.done);
                return;
            }
            // Every other refusal is a bounce that clears as resident
            // instances finish.
            ++outcomes[req_idx].retries;
            if (s.minitStatus == nvme::Status::kDsramExhausted)
                ++outcomes[req_idx].dsramBounces;
            if (s.retryAfterUs > 0) {
                // Honor the completion's retry-after hint instead of
                // waiting for an unrelated completion.
                const sim::Tick resume =
                    s.result.done +
                    sim::Tick(s.retryAfterUs) * sim::kPsPerUs;
                record_retry_wait(req_idx, s.result.done, resume);
                events.push(Event{resume, seq++, Event::kArrival, req_idx});
            } else {
                if (recorder != nullptr)
                    park_begin[req_idx] = s.result.done;
                parked.push_back(req_idx);
            }
            return;
        }
        if (cut > 0) {
            // MINIT accepted the prefix: charge the host half of the
            // split now, concurrent (in simulated time) with the
            // device stream. A bounced MINIT never reaches here, so a
            // bounce costs no host work.
            split_cut[req_idx] = cut;
            host::HostExecRequest hreq;
            hreq.extent = inst.extent;
            hreq.extent.startByte += cut;
            hreq.extent.sizeBytes -= cut;
            hreq.fileBytes = inst.extent.sizeBytes;
            hreq.objectBytes = inst.objectBytes;
            hreq.cost = inst.cost;
            hreq.device = inst.device;
            hreq.tenant = tenant.id;
            hreq.reason = host::HostExecReason::kSplit;
            hreq.trace = host_trace(req_idx);
            split_host_done[req_idx] = host_exec.execute(
                hreq, host_exec.leastLoadedCore(when), when);
            outcomes[req_idx].split = true;
        }
        unsigned slot;
        if (!free_slots.empty()) {
            slot = free_slots.back();
            free_slots.pop_back();
            active[slot] =
                ActiveSession{std::move(s), req_idx, inst.device};
        } else {
            slot = static_cast<unsigned>(active.size());
            active.push_back(
                ActiveSession{std::move(s), req_idx, inst.device});
        }
        events.push(Event{active[slot].session.now, seq++, Event::kStep,
                          slot});
    };

    // Timeline schema + cadence anchored at the first arrival.
    if (tl != nullptr) {
        std::vector<std::string> cols{
            "inflight",        "parked",          "completed",
            "rejected",        "lost",            "fallbacks",
            "backlog_bytes",   "dsram_used_bytes", "cache_hits",
            "cache_misses",    "driver_retries",  "driver_timeouts",
            "faults"};
        for (const TenantSpec &t : opts.tenants)
            cols.push_back("tenant" + std::to_string(t.id) +
                           "_completed");
        tl->setColumns(std::move(cols));
        tl->start(opts.closedLoop || requests.empty()
                      ? ingest_done
                      : requests.front().arrival);
    }
    // One gauge row: loop state + device occupancy/cache/fault reads.
    auto sample_row = [&]() {
        std::vector<double> v;
        v.push_back(
            static_cast<double>(active.size() - free_slots.size()));
        v.push_back(static_cast<double>(parked.size()));
        v.push_back(static_cast<double>(completed_run));
        v.push_back(static_cast<double>(rejected_run));
        v.push_back(static_cast<double>(lost_run));
        v.push_back(static_cast<double>(fallbacks_run));
        std::uint64_t backlog = 0, dsram = 0, hits = 0, misses = 0,
                      retries = 0, timeouts = 0;
        for (unsigned d = 0; d < num_ssds; ++d) {
            auto &ssd = sys.ssd(d);
            backlog += ssd.scheduler().arbiter().totalDeclaredBacklog();
            for (unsigned c = 0; c < ssd.numCores(); ++c)
                dsram += ssd.core(c).dsramUsed();
            hits += ssd.objectCache().hits();
            misses += ssd.objectCache().misses();
            retries += sys.nvmeDriver(d).retriesIssued();
            timeouts += sys.nvmeDriver(d).timeoutsSynthesized();
        }
        v.push_back(static_cast<double>(backlog));
        v.push_back(static_cast<double>(dsram));
        v.push_back(static_cast<double>(hits));
        v.push_back(static_cast<double>(misses));
        v.push_back(static_cast<double>(retries));
        v.push_back(static_cast<double>(timeouts));
        v.push_back(injector ? static_cast<double>(
                                   injector->mediaErrors() +
                                   injector->dmaFaults() +
                                   injector->appCrashes() +
                                   injector->appHangs())
                             : 0.0);
        for (std::uint64_t t : tenant_done_run)
            v.push_back(static_cast<double>(t));
        return v;
    };

    // Events pop in time order and every reservation a handler makes
    // starts at or after its event, so the popped time is a floor below
    // which the component timelines may forget their intervals.
    sim::ScopedReservationFloor reservation_floor;
    while (!events.empty()) {
        const Event ev = events.top();
        events.pop();
        reservation_floor.raise(ev.time);
        if (tl != nullptr) {
            // Catch the cadence up to this event: rows land at exact
            // interval boundaries with the state as of the boundary.
            while (tl->due(ev.time))
                tl->record(sample_row());
        }
        if (ev.kind == Event::kArrival) {
            start_request(ev.idx, ev.time);
            continue;
        }
        ActiveSession &as = active[ev.idx];
        core::MorpheusRuntime &runtime = fabric.runtime(as.device);
        if (!as.session.streamDone() && !as.session.failed) {
            const sim::Tick next = runtime.stepInvoke(as.session);
            if (!as.session.streamDone() && !as.session.failed) {
                events.push(Event{next, seq++, Event::kStep, ev.idx});
                continue;
            }
        }
        const unsigned req_idx = as.requestIdx;
        const core::InvokeResult result =
            as.session.failed ? runtime.abortInvoke(as.session)
                              : runtime.finishInvoke(as.session);
        const Request &done_req = requests[req_idx];
        if (!done_req.write) {
            sys.freeHost(as.session.target.addr,
                         classes[done_req.tenantIdx][done_req.classIdx]
                             .objects[done_req.objIdx]
                             .objectBytes);
        }
        note_traces(req_idx, as.session.traceIds);
        free_slots.push_back(ev.idx);
        sched::CircuitBreaker &br =
            breakers[requests[req_idx].tenantIdx];
        if (result.failed) {
            device_failure(req_idx, result.done);
            release_parked(result.done);
            continue;
        }
        if (br.onDeviceSuccess()) {
            // A successful device-path probe: the device healed.
            recordServingInstant(
                "breaker_close",
                opts.tenants[requests[req_idx].tenantIdx].id,
                result.done);
        }
        Outcome &out = outcomes[req_idx];
        sim::Tick term = result.done;
        std::uint64_t served = result.objectBytes;
        if (requests[req_idx].write) {
            // A serialize session delivers nothing to the host; the
            // served volume is the binary stream it pushed down.
            const Request &rq = requests[req_idx];
            served = classes[rq.tenantIdx][rq.classIdx]
                         .objects[rq.objIdx]
                         .writeSrcBytes;
        }
        if (opts.hybrid.enabled && split_cut[req_idx] > 0) {
            // A split request finishes when BOTH halves have: the
            // device's prefix stream and the host's concurrent
            // remainder. The whole object counts as served.
            term = std::max(term, split_host_done[req_idx]);
            const Request &rq = requests[req_idx];
            served = classes[rq.tenantIdx][rq.classIdx]
                         .objects[rq.objIdx]
                         .objectBytes;
            split_cut[req_idx] = 0;
        }
        out.completed = true;
        out.servedFromCache = result.servedFromCache;
        out.latency = term - requests[req_idx].arrival;
        out.servedBytes = served;
        last_done = std::max(last_done, term);
        ++completed_run;
        ++tenant_done_run[requests[req_idx].tenantIdx];
        finish_observability(req_idx, /*failed=*/false, term);
        release_parked(term);
        issue_next(requests[req_idx].tenantIdx, term);
    }
    MORPHEUS_ASSERT(parked.empty(),
                    "parked requests with no active session left");
    if (tl != nullptr) {
        // Close the series with one row at or past the last event so
        // the final counter state is visible in the export.
        while (tl->due(last_done))
            tl->record(sample_row());
        tl->record(sample_row());
    }
    // Detach the recorder before teardown; retained traces and the
    // per-request attributions survive in `recorder`/`req_attr`.
    if (recorder != nullptr)
        obs::setTraceSink(prev_sink);

    // ---- aggregate ----------------------------------------------------
    ServingReport report;
    LatencyTally all_lat;
    std::vector<double> fairness_x;
    sim::Tick first_arrival =
        opts.closedLoop || requests.empty() ? ingest_done
                                            : requests.front().arrival;

    // Derive the per-stage summary over @p idx (attributed request
    // indices): mean stage ticks and the p99-ranked request's exact
    // decomposition (which sums to that request's latency).
    auto summarizeStages = [&](std::vector<unsigned> idx,
                               std::array<double, obs::kNumStages> *mean,
                               std::array<double, obs::kNumStages> *p99,
                               std::uint64_t *count) {
        *count = idx.size();
        if (idx.empty())
            return;
        obs::Attribution sum;
        for (const unsigned i : idx)
            sum += req_attr[i];
        for (std::size_t s = 0; s < obs::kNumStages; ++s) {
            (*mean)[s] = ticksToUs(sum.ticks[s]) /
                         static_cast<double>(idx.size());
        }
        std::sort(idx.begin(), idx.end(),
                  [&](unsigned a, unsigned b) {
                      if (outcomes[a].latency != outcomes[b].latency)
                          return outcomes[a].latency <
                                 outcomes[b].latency;
                      return a < b;
                  });
        const auto rank = std::min<std::size_t>(
            idx.size() - 1,
            static_cast<std::size_t>(std::ceil(
                0.99 * static_cast<double>(idx.size()))) -
                1);
        const obs::Attribution &a = req_attr[idx[rank]];
        for (std::size_t s = 0; s < obs::kNumStages; ++s)
            (*p99)[s] = ticksToUs(a.ticks[s]);
    };
    std::vector<unsigned> all_attr_idx;

    for (unsigned ti = 0; ti < opts.tenants.size(); ++ti) {
        const TenantSpec &tenant = opts.tenants[ti];
        TenantReport tr;
        tr.id = tenant.id;
        tr.format = tenant.format;
        if (opts.slo.enabled) {
            tr.sloTargetUs = tenant.sloTargetUs > 0.0
                                 ? tenant.sloTargetUs
                                 : opts.slo.targetUs;
        }
        // Burn windows: window -> (completions, violations), keyed by
        // completion time relative to the first arrival.
        std::map<std::uint64_t,
                 std::pair<std::uint64_t, std::uint64_t>>
            slo_windows;
        std::vector<unsigned> attr_idx;
        LatencyTally lat;
        for (unsigned i = 0; i < requests.size(); ++i) {
            if (requests[i].tenantIdx != ti)
                continue;
            ++tr.submitted;
            tr.retries += outcomes[i].retries;
            tr.dsramBounces += outcomes[i].dsramBounces;
            tr.shedBounces += outcomes[i].shedBounces;
            tr.deviceFailures += outcomes[i].deviceFailures;
            if (outcomes[i].fellBack) {
                ++tr.fallbacks;
                switch (outcomes[i].fallbackReason) {
                case host::HostExecReason::kBreaker:
                    ++tr.fallbackBreaker;
                    break;
                case host::HostExecReason::kProbe:
                    ++tr.fallbackProbe;
                    break;
                case host::HostExecReason::kOverload:
                    ++tr.fallbackOverload;
                    break;
                case host::HostExecReason::kSplit:
                    break;  // split halves are not fallbacks
                }
            }
            if (outcomes[i].rejected) {
                ++tr.rejected;
                if (outcomes[i].shedRejected)
                    ++tr.shedRejected;
                continue;
            }
            if (!outcomes[i].completed) {
                ++tr.lost;
                continue;
            }
            ++tr.completed;
            if (outcomes[i].split && !outcomes[i].fellBack)
                ++tr.splitRequests;
            if (outcomes[i].servedFromCache)
                ++tr.cacheHits;
            if (requests[i].write) {
                ++tr.writes;
                tr.writeBytes += outcomes[i].servedBytes;
            }
            tr.servedBytes += outcomes[i].servedBytes;
            const double us = ticksToUs(outcomes[i].latency);
            lat.sample(us);
            all_lat.sample(us);
            if (recorder != nullptr && req_attributed[i]) {
                attr_idx.push_back(i);
                all_attr_idx.push_back(i);
            }
            if (opts.slo.enabled && opts.slo.windowUs > 0.0) {
                const sim::Tick done =
                    requests[i].arrival + outcomes[i].latency;
                const double rel_us = ticksToUs(
                    done > first_arrival ? done - first_arrival : 0);
                auto &[cnt, viol] = slo_windows[static_cast<
                    std::uint64_t>(rel_us / opts.slo.windowUs)];
                ++cnt;
                if (us > tr.sloTargetUs) {
                    ++viol;
                    ++tr.sloViolations;
                }
            }
        }
        if (opts.slo.enabled) {
            for (const auto &[w, cv] : slo_windows) {
                const double frac =
                    static_cast<double>(cv.second) /
                    static_cast<double>(cv.first);
                if (frac > 1.0 - opts.slo.objective)
                    ++tr.sloBadWindows;
                else
                    ++tr.sloGoodWindows;
            }
            if (tr.completed > 0 && opts.slo.objective < 1.0) {
                tr.sloBurnRate =
                    (static_cast<double>(tr.sloViolations) /
                     static_cast<double>(tr.completed)) /
                    (1.0 - opts.slo.objective);
            }
        }
        summarizeStages(std::move(attr_idx), &tr.stageMeanUs,
                        &tr.stageP99Us, &tr.attributed);
        tr.cacheHitRate =
            tr.completed ? static_cast<double>(tr.cacheHits) /
                               static_cast<double>(tr.completed)
                         : 0.0;
        tr.meanUs = lat.mean();
        tr.maxUs = lat.max();
        tr.p50Us = lat.samples() ? lat.quantile(0.50) : 0.0;
        tr.p95Us = lat.samples() ? lat.quantile(0.95) : 0.0;
        tr.p99Us = lat.samples() ? lat.quantile(0.99) : 0.0;
        tr.p999Us = lat.samples() ? lat.quantile(0.999) : 0.0;
        report.submitted += tr.submitted;
        report.completed += tr.completed;
        report.rejected += tr.rejected;
        report.deviceFailures += tr.deviceFailures;
        report.fallbacks += tr.fallbacks;
        report.fallbackBreaker += tr.fallbackBreaker;
        report.fallbackOverload += tr.fallbackOverload;
        report.fallbackProbe += tr.fallbackProbe;
        report.splitRequests += tr.splitRequests;
        report.shedBounces += tr.shedBounces;
        report.shedRejected += tr.shedRejected;
        report.lost += tr.lost;
        report.writes += tr.writes;
        report.writeBytes += tr.writeBytes;
        report.cacheHits += tr.cacheHits;
        fairness_x.push_back(static_cast<double>(tr.servedBytes));
        report.tenants.push_back(tr);
    }

    report.meanUs = all_lat.mean();
    report.maxUs = all_lat.max();
    report.p50Us = all_lat.samples() ? all_lat.quantile(0.50) : 0.0;
    report.p95Us = all_lat.samples() ? all_lat.quantile(0.95) : 0.0;
    report.p99Us = all_lat.samples() ? all_lat.quantile(0.99) : 0.0;
    report.p999Us = all_lat.samples() ? all_lat.quantile(0.999) : 0.0;
    summarizeStages(std::move(all_attr_idx), &report.stageMeanUs,
                    &report.stageP99Us, &report.attributed);

    double sum = 0.0, sum_sq = 0.0;
    for (double x : fairness_x) {
        sum += x;
        sum_sq += x * x;
    }
    report.jainFairness =
        sum_sq > 0.0 ? (sum * sum) /
                           (static_cast<double>(fairness_x.size()) *
                            sum_sq)
                     : 1.0;

    if (opts.hybrid.enabled) {
        for (const sched::HybridPlacementPolicy &pol : hybrid_pol) {
            for (unsigned p = 0; p < sched::kNumPlacements; ++p)
                report.hybridDecisions[p] += pol.decisions(
                    static_cast<sched::ExecPlacement>(p));
            report.hybridFlips += pol.flips();
        }
    }

    report.makespan = last_done - first_arrival;
    report.throughputPerSec =
        report.makespan
            ? static_cast<double>(report.completed) /
                  (static_cast<double>(report.makespan) /
                   static_cast<double>(sim::kPsPerSec))
            : 0.0;
    for (unsigned d = 0; d < num_ssds; ++d) {
        report.driverRetries += sys.nvmeDriver(d).retriesIssued();
        report.driverTimeouts +=
            sys.nvmeDriver(d).timeoutsSynthesized();
    }

    // ---- per-shard view (fleet runs only) ----------------------------
    if (num_ssds > 1) {
        std::vector<LatencyTally> shard_lat(num_ssds);
        report.shards.resize(num_ssds);
        for (unsigned d = 0; d < num_ssds; ++d)
            report.shards[d].device = d;
        for (unsigned i = 0; i < requests.size(); ++i) {
            const Request &req = requests[i];
            const ObjectInstance &inst =
                classes[req.tenantIdx][req.classIdx]
                    .objects[req.objIdx];
            ShardReport &sr = report.shards[inst.device];
            ++sr.requests;
            if (!outcomes[i].completed)
                continue;
            ++sr.completed;
            sr.servedBytes += outcomes[i].servedBytes;
            shard_lat[inst.device].sample(
                ticksToUs(outcomes[i].latency));
        }
        for (unsigned d = 0; d < num_ssds; ++d) {
            ShardReport &sr = report.shards[d];
            const LatencyTally &lat = shard_lat[d];
            sr.meanUs = lat.mean();
            sr.maxUs = lat.max();
            sr.p50Us = lat.samples() ? lat.quantile(0.50) : 0.0;
            sr.p95Us = lat.samples() ? lat.quantile(0.95) : 0.0;
            sr.p99Us = lat.samples() ? lat.quantile(0.99) : 0.0;
            sr.p999Us = lat.samples() ? lat.quantile(0.999) : 0.0;
        }
        // Name the straggler: the shard whose tail holds everyone back.
        double worst = -1.0;
        for (const ShardReport &sr : report.shards) {
            if (sr.p99Us > worst) {
                worst = sr.p99Us;
                report.stragglerShard = sr.device;
            }
        }
    }

    // ---- federate metrics (values must be snapshotted before `sys`
    //      and the device stats die with this scope) -------------------
    if (opts.metrics != nullptr) {
        obs::MetricsRegistry &reg = *opts.metrics;
        sim::stats::StatSet set;
        sys.registerStats(set);
        // Device 0 keeps the classic "morpheus" prefix; fleet devices
        // federate under "morpheus1", "morpheus2", ...
        for (unsigned d = 0; d < num_ssds; ++d) {
            fabric.deviceRuntime(d).registerStats(
                set,
                d == 0 ? "morpheus" : "morpheus" + std::to_string(d));
        }
        reg.absorb(set, "sys.");
        for (const TenantReport &tr : report.tenants) {
            const std::string p =
                "serving.tenant." + std::to_string(tr.id) + ".";
            reg.setCounter(p + "submitted", tr.submitted);
            reg.setCounter(p + "completed", tr.completed);
            reg.setCounter(p + "rejected", tr.rejected);
            reg.setCounter(p + "retries", tr.retries);
            reg.setCounter(p + "dsramBounces", tr.dsramBounces);
            reg.setCounter(p + "deviceFailures", tr.deviceFailures);
            reg.setCounter(p + "fallbacks", tr.fallbacks);
            reg.setCounter(p + "fallback.breaker", tr.fallbackBreaker);
            reg.setCounter(p + "fallback.overload",
                           tr.fallbackOverload);
            reg.setCounter(p + "fallback.probe", tr.fallbackProbe);
            reg.setCounter(p + "lost", tr.lost);
            reg.setCounter(p + "format",
                           static_cast<std::uint64_t>(tr.format));
            reg.setCounter(p + "writes", tr.writes);
            reg.setCounter(p + "writeBytes", tr.writeBytes);
            reg.setCounter(p + "cacheHits", tr.cacheHits);
            reg.setScalar(p + "cache_hit_rate", tr.cacheHitRate);
            reg.setCounter(p + "servedBytes", tr.servedBytes);
            reg.setScalar(p + "mean_us", tr.meanUs);
            reg.setScalar(p + "p50_us", tr.p50Us);
            reg.setScalar(p + "p95_us", tr.p95Us);
            reg.setScalar(p + "p99_us", tr.p99Us);
            reg.setScalar(p + "p999_us", tr.p999Us);
            reg.setScalar(p + "max_us", tr.maxUs);
            if (opts.slo.enabled) {
                reg.setScalar(p + "slo.target_us", tr.sloTargetUs);
                reg.setCounter(p + "slo.violations", tr.sloViolations);
                reg.setCounter(p + "slo.good_windows",
                               tr.sloGoodWindows);
                reg.setCounter(p + "slo.bad_windows", tr.sloBadWindows);
                reg.setScalar(p + "slo.burn_rate", tr.sloBurnRate);
            }
            if (tr.attributed > 0) {
                for (std::size_t s = 0; s < obs::kNumStages; ++s) {
                    const std::string stage = obs::stageName(
                        static_cast<obs::Stage>(s));
                    reg.setScalar(
                        p + "breakdown." + stage + "_mean_us",
                        tr.stageMeanUs[s]);
                    reg.setScalar(p + "breakdown." + stage + "_p99_us",
                                  tr.stageP99Us[s]);
                }
            }
        }
        reg.setCounter("serving.submitted", report.submitted);
        reg.setCounter("serving.completed", report.completed);
        reg.setCounter("serving.rejected", report.rejected);
        reg.setCounter("serving.deviceFailures", report.deviceFailures);
        reg.setCounter("serving.fallbacks", report.fallbacks);
        reg.setCounter("serving.fallback.breaker",
                       report.fallbackBreaker);
        reg.setCounter("serving.fallback.overload",
                       report.fallbackOverload);
        reg.setCounter("serving.fallback.probe", report.fallbackProbe);
        reg.setCounter("serving.lost", report.lost);
        reg.setCounter("serving.writes", report.writes);
        reg.setCounter("serving.writeBytes", report.writeBytes);
        reg.setCounter("serving.cacheHits", report.cacheHits);
        reg.setCounter("serving.driverRetries", report.driverRetries);
        reg.setCounter("serving.driverTimeouts", report.driverTimeouts);
        reg.setCounter("serving.makespan_ticks", report.makespan);
        reg.setScalar("serving.mean_us", report.meanUs);
        reg.setScalar("serving.p50_us", report.p50Us);
        reg.setScalar("serving.p95_us", report.p95Us);
        reg.setScalar("serving.p99_us", report.p99Us);
        reg.setScalar("serving.p999_us", report.p999Us);
        reg.setScalar("serving.max_us", report.maxUs);
        reg.setScalar("serving.jain_fairness", report.jainFairness);
        reg.setScalar("serving.throughput_per_sec",
                      report.throughputPerSec);
        if (opts.hybrid.enabled) {
            for (unsigned p = 0; p < sched::kNumPlacements; ++p) {
                reg.setCounter(
                    std::string("sched.hybrid.decisions.") +
                        sched::placementName(
                            static_cast<sched::ExecPlacement>(p)),
                    report.hybridDecisions[p]);
            }
            reg.setCounter("sched.hybrid.flips", report.hybridFlips);
            reg.setCounter("serving.split", report.splitRequests);
            reg.setCounter("serving.shed.bounces", report.shedBounces);
            reg.setCounter("serving.shed.rejected",
                           report.shedRejected);
        }
        if (report.attributed > 0) {
            reg.setCounter("serving.attributed", report.attributed);
            for (std::size_t s = 0; s < obs::kNumStages; ++s) {
                const std::string stage =
                    obs::stageName(static_cast<obs::Stage>(s));
                reg.setScalar(
                    "serving.breakdown." + stage + "_mean_us",
                    report.stageMeanUs[s]);
                reg.setScalar("serving.breakdown." + stage + "_p99_us",
                              report.stageP99Us[s]);
            }
        }
        if (num_ssds > 1) {
            for (const ShardReport &sr : report.shards) {
                const std::string p =
                    "shard." + std::to_string(sr.device) + ".";
                reg.setCounter(p + "requests", sr.requests);
                reg.setCounter(p + "completed", sr.completed);
                reg.setCounter(p + "servedBytes", sr.servedBytes);
                reg.setScalar(p + "mean_us", sr.meanUs);
                reg.setScalar(p + "p50_us", sr.p50Us);
                reg.setScalar(p + "p95_us", sr.p95Us);
                reg.setScalar(p + "p99_us", sr.p99Us);
                reg.setScalar(p + "p999_us", sr.p999Us);
            }
            reg.setCounter("serving.straggler_shard",
                           report.stragglerShard);
            reg.setCounter("fleet.devices", num_ssds);
            reg.setCounter("fleet.completed", report.completed);
            reg.setScalar("fleet.mean_us", report.meanUs);
            reg.setScalar("fleet.p50_us", report.p50Us);
            reg.setScalar("fleet.p95_us", report.p95Us);
            reg.setScalar("fleet.p99_us", report.p99Us);
            reg.setScalar("fleet.p999_us", report.p999Us);
            reg.setScalar("fleet.throughput_per_sec",
                          report.throughputPerSec);
        }
    }
    return report;
}

}  // namespace morpheus::workloads
