#include "workloads/serving.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
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
#include "sim/timeline.hh"
#include "workloads/generators.hh"
#include "workloads/objects.hh"

namespace morpheus::workloads {

namespace {
constexpr unsigned kBothScopes = kTenantScope | kTotalScope;
/** Indexed by TenantFormat. */
constexpr std::array<const char *, 4> kFormatNames{"intarray", "csv", "json",
                                                   "columnar"};
}  // namespace

const std::array<OutcomeField, 17> kOutcomeFields{{
    {"submitted", &OutcomeCounts::submitted, kBothScopes},
    {"completed", &OutcomeCounts::completed, kBothScopes},
    {"rejected", &OutcomeCounts::rejected, kBothScopes},
    {"retries", &OutcomeCounts::retries, kTenantScope},
    {"dsramBounces", &OutcomeCounts::dsramBounces, kTenantScope},
    {"deviceFailures", &OutcomeCounts::deviceFailures, kBothScopes},
    {"fallbacks", &OutcomeCounts::fallbacks, kBothScopes},
    {"fallback.breaker", &OutcomeCounts::fallbackBreaker, kBothScopes},
    {"fallback.overload", &OutcomeCounts::fallbackOverload, kBothScopes},
    {"fallback.probe", &OutcomeCounts::fallbackProbe, kBothScopes},
    {"split", &OutcomeCounts::splitRequests, kHybridScope},
    {"shed.bounces", &OutcomeCounts::shedBounces, kHybridScope},
    {"lost", &OutcomeCounts::lost, kBothScopes},
    {"cacheHits", &OutcomeCounts::cacheHits, kBothScopes},
    {"servedBytes", &OutcomeCounts::servedBytes, kTenantScope},
    {"writes", &OutcomeCounts::writes, kBothScopes},
    {"writeBytes", &OutcomeCounts::writeBytes, kBothScopes},
}};

OutcomeCounts &
OutcomeCounts::operator+=(const OutcomeCounts &o)
{
    for (const OutcomeField &f : kOutcomeFields)
        this->*f.member += o.*f.member;
    return *this;
}

namespace {

/** Read-chunk size of serving's host path (its staging buffer X). */
constexpr std::uint64_t kHostChunkBytes = 256 * 1024;

/** Why a request runs on the host path. */
enum class HostExecReason : std::uint8_t {
    kBreaker,   ///< Circuit breaker open (or post-failure rescue).
    kProbe,     ///< A failed half-open probe's rescue.
    kOverload,  ///< Hybrid placement spilled past device pressure.
};

/** Index of the ceil-rank @p q quantile among @p n > 0 sorted items. */
std::size_t
quantileRank(double q, std::size_t n)
{
    return std::min<std::size_t>(
               n, std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(
                                               q * static_cast<double>(n))))) -
           1;
}

/**
 * One request of the trace and where it is in its life. A request is
 * kArriving while its arrival (or re-arm) event is queued. The arrival
 * routes it: it starts a device session (kStreaming, or kSplit with
 * the host converting the remainder), parks behind a hint-less bounce
 * (kParked, re-armed by the next completion), is re-armed at a
 * retry-after tick, or ends at once (host path, shed rejection, MINIT
 * failure). Terminal states are final, and a request folds into the
 * outcome ledger exactly once, on entering one.
 */
struct Request
{
    enum class State : std::uint8_t {
        kArriving,
        kParked,
        kStreaming,
        kSplit,
        kCompleted,  ///< Served by the device path.
        kFallback,   ///< Served by the host path.
        kRejected,   ///< Refused by the shed valve.
        kLost,       ///< Failed with no path left to serve it.
    };

    sim::Tick arrival = 0;
    sim::Tick latency = 0;  ///< Terminal tick - arrival (if served).
    std::uint32_t tenantIdx = 0;
    std::uint32_t classIdx = 0;  ///< Into the tenant's size classes.
    std::uint32_t objIdx = 0;    ///< Into the class's object instances.
    std::uint32_t retries = 0;
    std::uint32_t dsramBounces = 0;
    std::uint32_t shedBounces = 0;
    std::uint32_t deviceFailures = 0;
    State state = State::kArriving;
    bool write = false;  ///< MWRITE serialization instead of a read.
    bool probe = false;  ///< Latest device attempt is a breaker probe.
    bool cacheHit = false;
    /** kFallback: which trigger host-routed it. */
    HostExecReason fallbackReason = HostExecReason::kBreaker;

    bool
    served() const
    {
        return state == State::kCompleted || state == State::kFallback;
    }
};

/** Move @p req to @p to along one of the machine's edges. */
void
transition(Request &req, Request::State to)
{
    using S = Request::State;
    MORPHEUS_ASSERT(req.state == S::kArriving ||
                        (req.state == S::kParked && to == S::kArriving) ||
                        ((req.state == S::kStreaming ||
                          req.state == S::kSplit) &&
                         to >= S::kCompleted),
                    "request state ", static_cast<unsigned>(req.state),
                    " -> ", static_cast<unsigned>(to));
    req.state = to;
}

/** One pre-ingested object file a request can target. */
struct ObjectInstance
{
    host::FileExtent extent;
    std::uint64_t objectBytes = 0;
    /** Host path's conversion charge: the reference parse (columnar:
     *  the reference scan, the same kernel the device runs). */
    serde::ParseCost cost;
    /** SSD holding the file (0 outside fleet runs). */
    unsigned device = 0;

    // MWRITE resources (tenants with writeFraction > 0): the binary
    // i64 values a write streams, and the scratch flash region (its
    // own file, so read-object cache entries survive) the text lands in.
    pcie::Addr writeSrc = 0;
    std::uint64_t writeSrcBytes = 0;
    host::FileExtent writeDst;
};

/** The ingested object files every request reads or writes. */
struct Corpus
{
    /** [tenant][size class][object]: single-SSD runs keep one object
     *  per class; fleet runs spread objectsPerClass across the SSDs. */
    std::vector<std::vector<std::vector<ObjectInstance>>> objects;
    /** Per-tenant MINIT pushdown descriptor: a columnar tenant's
     *  encoded ScanSpec, empty for everyone else. */
    std::vector<std::vector<std::uint32_t>> pushdown;
    /** Every file is on flash by this tick. */
    sim::Tick ready = 0;

    const ObjectInstance &
    of(const Request &r) const
    {
        return objects[r.tenantIdx][r.classIdx][r.objIdx];
    }
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
    /** kSplit: when the host half of the request finishes, and
     *  whether its reads failed. */
    host::IoResult splitHost;
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

/** Draw one request's size class (from the tenant's normalized mix),
 *  object (only when there is a choice) and kind (only for tenants
 *  with writeFraction > 0). */
Request
drawRequest(const TenantSpec &tenant, unsigned tenant_idx,
            const ZipfianGenerator *zipf, sim::Rng &rng)
{
    Request r;
    r.tenantIdx = tenant_idx;
    double total = 0.0;
    for (double p : tenant.sizeClassProb)
        total += p;
    double u = rng.nextDouble() * total;
    while (r.classIdx + 1 < tenant.sizeClassProb.size() &&
           (u -= tenant.sizeClassProb[r.classIdx]) > 0.0)
        ++r.classIdx;
    r.objIdx = zipf != nullptr ? zipf->draw(rng) : 0;
    r.write = tenant.writeFraction > 0.0 &&
              rng.nextDouble() < tenant.writeFraction;
    return r;
}

/** The request trace. Open loop: every tenant's Poisson arrivals in
 *  [0, durationSec), shifted past @p ready so admission sees a settled
 *  device, in arrival order. Closed loop: the draws are fixed up front
 *  (so the run is deterministic in the seed), and arrival times are
 *  assigned at issue. */
std::vector<Request>
generateTrace(const ServingOptions &opts, sim::Tick ready)
{
    const unsigned objs_per_class = std::max(1u, opts.objectsPerClass);
    std::optional<ZipfianGenerator> obj_zipf;
    if (objs_per_class > 1)
        obj_zipf.emplace(objs_per_class, opts.zipfSkew);
    const ZipfianGenerator *zipf = obj_zipf ? &*obj_zipf : nullptr;
    const double horizon_ps = static_cast<double>(static_cast<sim::Tick>(
        opts.durationSec * static_cast<double>(sim::kPsPerSec)));

    std::vector<Request> requests;
    for (unsigned ti = 0; ti < opts.tenants.size(); ++ti) {
        const TenantSpec &tenant = opts.tenants[ti];
        sim::Rng rng(opts.seed * 1000003u + tenant.id);
        if (opts.closedLoop) {
            for (std::uint64_t n = 0; n < opts.closedLoopRequests; ++n)
                requests.push_back(drawRequest(tenant, ti, zipf, rng));
            continue;
        }
        double t_ps = 0.0;
        while (true) {
            const double gap_sec = -std::log(1.0 - rng.nextDouble()) /
                                   tenant.arrivalsPerSec;
            t_ps += gap_sec * static_cast<double>(sim::kPsPerSec);
            if (t_ps >= horizon_ps)
                break;
            Request &r = requests.emplace_back(
                drawRequest(tenant, ti, zipf, rng));
            r.arrival = static_cast<sim::Tick>(t_ps) + ready;
        }
    }
    if (!opts.closedLoop) {
        std::stable_sort(requests.begin(), requests.end(),
                         [](const Request &a, const Request &b) {
                             return a.arrival < b.arrival;
                         });
    }
    return requests;
}

double
ticksToUs(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::kPsPerUs);
}

/** Object kind of a text-format tenant's files. */
ObjectKind
textKind(TenantFormat f)
{
    return f == TenantFormat::kCsv    ? ObjectKind::kCsvTable
           : f == TenantFormat::kJson ? ObjectKind::kJsonRecords
                                      : ObjectKind::kIntArray;
}

/** Encode one object file of @p tenant's format. Fills @p inst's
 *  object size and host conversion cost; @return the flash bytes. */
std::vector<std::uint8_t>
encodeObject(const TenantSpec &tenant, const serde::ScanSpec &spec,
             std::uint64_t seed, std::uint32_t values,
             ObjectInstance *inst)
{
    AnyObject obj;
    switch (tenant.format) {
      case TenantFormat::kIntArray:
        obj = genIntArray(seed, values);
        break;
      case TenantFormat::kCsv:
        obj = genCsvTable(seed, values, 8);
        break;
      case TenantFormat::kJson:
        obj = genJsonRecords(seed, values);
        break;
      case TenantFormat::kColumnar: {
        std::vector<std::uint8_t> flash =
            serde::genColumnarTable(seed, values, tenant.tableColumns)
                .toFlash();
        // Reference scan with the tenant's effective spec (full scan
        // when pushdown is off): the emitted size is what the device
        // DMAs out, and the cost is the host fallback's conversion
        // charge — the same shared kernel either way.
        const serde::ScanResult ref =
            serde::scanTable(flash.data(), flash.size(), spec);
        MORPHEUS_ASSERT(ref.ok, "columnar ingest scan failed");
        inst->objectBytes = ref.out.size();
        inst->cost = ref.cost;
        return flash;
      }
    }
    std::vector<std::uint8_t> text = serializeObject(obj);
    inst->objectBytes = objectBytes(obj);
    // Reference parse for the host-fallback conversion charge.
    parseObject(textKind(tenant.format), text.data(), text.size(),
                &inst->cost);
    return text;
}

/** Give @p inst its MWRITE resources. @return when they are ready. */
sim::Tick
ingestWriteTarget(host::HostSystem &sys, const std::string &name,
                  std::uint64_t seed, std::uint32_t values,
                  ObjectInstance *inst)
{
    const serde::IntArrayObject wobj = genIntArray(seed, values);
    std::vector<std::uint8_t> binary(wobj.values.size() * 8);
    std::memcpy(binary.data(), wobj.values.data(), binary.size());
    inst->writeSrcBytes = binary.size();
    inst->writeSrc = sys.allocHost(binary.size());
    sys.mem().store().writeVec(inst->writeSrc, binary);
    const auto wtext = serializeObject(AnyObject(wobj));
    inst->writeDst = sys.createFileOn(
        inst->device, name + ".wdst",
        std::vector<std::uint8_t>(wtext.size(), 0));
    return inst->writeDst.readyAt;
}

/** Ingest the object files of every (tenant, size class, object). */
Corpus
ingest(const ServingOptions &opts, host::HostSystem &sys)
{
    const unsigned objs_per_class = std::max(1u, opts.objectsPerClass);
    Corpus c;
    c.objects.resize(opts.tenants.size());
    c.pushdown.resize(opts.tenants.size());
    for (unsigned ti = 0; ti < opts.tenants.size(); ++ti) {
        const TenantSpec &tenant = opts.tenants[ti];
        MORPHEUS_ASSERT(tenant.sizeClassValues.size() ==
                            tenant.sizeClassProb.size(),
                        "size class values/probabilities mismatch");
        // Columnar without pushdown keeps the default ScanSpec: a
        // full-table scan the applet runs descriptor-less.
        serde::ScanSpec spec;
        if (tenant.format == TenantFormat::kColumnar && tenant.pushdown) {
            spec = serde::makeSelectivitySpec(tenant.selectivity,
                                              tenant.projectColumns,
                                              tenant.tableColumns);
            c.pushdown[ti] = spec.encode();
        }
        c.objects[ti].resize(tenant.sizeClassValues.size());
        for (unsigned k = 0; k < tenant.sizeClassValues.size(); ++k) {
            const std::uint32_t values = tenant.sizeClassValues[k];
            c.objects[ti][k].resize(objs_per_class);
            for (unsigned o = 0; o < objs_per_class; ++o) {
                ObjectInstance &inst = c.objects[ti][k][o];
                const std::uint64_t seed =
                    opts.seed + ti * 131 + k + o * 7919;
                const std::vector<std::uint8_t> text =
                    encodeObject(tenant, spec, seed, values, &inst);
                // Single-object classes keep the classic file name so
                // single-SSD runs stay bit-identical.
                std::string name = "serve.t" + std::to_string(tenant.id) +
                                   ".c" + std::to_string(k);
                if (objs_per_class > 1)
                    name += ".o" + std::to_string(o);
                if (sys.numSsds() > 1)
                    inst.device = shard::shardForKey(name, sys.numSsds());
                inst.extent = sys.createFileOn(inst.device, name, text);
                c.ready = std::max(c.ready, inst.extent.readyAt);
                if (tenant.writeFraction > 0.0) {
                    c.ready = std::max(
                        c.ready, ingestWriteTarget(sys, name,
                                                   seed + 0x9E3779B9u,
                                                   values, &inst));
                }
            }
        }
    }
    return c;
}

/** The measured event loop of one serving run. Every terminal
 *  transition goes through terminate(), which folds the request into
 *  the outcome ledger (the report's tenants and shards); routing is one
 *  policy call, route(); every retry goes back through rearm(). */
class ServingLoop
{
  public:
    ServingLoop(const ServingOptions &opts, host::HostSystem &sys,
                shard::ShardFabric &fabric,
                const core::StandardImages &images, const Corpus &corpus,
                std::vector<Request> requests,
                obs::FlightRecorder *recorder,
                const sim::FaultInjector *injector)
        : _opts(opts), _sys(sys), _fabric(fabric), _images(images),
          _corpus(corpus), _requests(std::move(requests)),
          _recorder(recorder), _injector(injector),
          _firstArrival(opts.closedLoop || _requests.empty()
                            ? corpus.ready
                            : _requests.front().arrival),
          _lastDone(corpus.ready), _issued(opts.tenants.size(), 0),
          _breakers(opts.tenants.size(),
                    sched::CircuitBreaker(opts.breakerThreshold,
                                          kBreakerProbeEvery)),
          _hybrid(sys.numSsds(),
                  sched::HybridPlacementPolicy(opts.hybrid))
    {
        if (_recorder != nullptr) {
            _traces.resize(_requests.size());
            _attr.resize(_requests.size());
            _parkBegin.assign(_requests.size(), 0);
        }
        for (const TenantSpec &t : opts.tenants) {
            TenantReport &tr = _report.tenants.emplace_back();
            tr.id = t.id;
            tr.format = t.format;
        }
        if (sys.numSsds() > 1) {
            _report.shards.resize(sys.numSsds());
            for (unsigned d = 0; d < sys.numSsds(); ++d)
                _report.shards[d].device = d;
        }
        if (!opts.closedLoop) {
            for (unsigned i = 0; i < _requests.size(); ++i)
                push(_requests[i].arrival, Event::kArrival, i);
            return;
        }
        MORPHEUS_ASSERT(opts.closedLoopConcurrency > 0,
                        "closed loop without concurrency");
        for (unsigned ti = 0; ti < opts.tenants.size(); ++ti)
            for (unsigned c = 0; c < opts.closedLoopConcurrency; ++c)
                issueNext(ti, corpus.ready);
    }

    /** Drain the event queue. */
    void
    run()
    {
        startTimeline();
        // Events pop in time order and every reservation a handler
        // makes starts at or after its event, so the popped time is a
        // floor below which component timelines may forget intervals.
        sim::ScopedReservationFloor reservation_floor;
        while (!_events.empty()) {
            const Event ev = _events.top();
            _events.pop();
            reservation_floor.raise(ev.time);
            sampleUntil(ev.time);
            if (ev.kind == Event::kArrival)
                start(ev.idx, ev.time);
            else
                step(ev.idx);
        }
        MORPHEUS_ASSERT(_parked.empty(),
                        "parked requests with no active session left");
        if (_opts.timeline != nullptr) {
            // Close the series with one row at or past the last event
            // so the final counter state is visible in the export.
            sampleUntil(_lastDone);
            _opts.timeline->record(sampleRow());
        }
    }

    /** Summarize the ledger and the latencies into the report. */
    ServingReport aggregate();

  private:
    /** Where one arrival goes. */
    struct Route
    {
        enum Kind : std::uint8_t {
            kDevice,      ///< Device session over the whole stream.
            kSplit,       ///< Device prefix of `cut` bytes + host rest.
            kHost,        ///< Host path under `reason`.
            kShedBounce,  ///< Re-arm at `resume`.
            kShedReject,  ///< Past the shed bounce budget.
        } kind = kDevice;
        bool probe = false;  ///< A half-open breaker probe.
        HostExecReason reason = HostExecReason::kBreaker;
        std::uint64_t cut = 0;
        sim::Tick resume = 0;
    };

    /** The routing policy: breaker, then hybrid placement, then shed.
     *  Advances the breaker and placement state, nothing else. */
    Route
    route(const Request &req, sim::Tick when)
    {
        // An open breaker host-routes the tenant's requests (except
        // periodic half-open probes, which always test the device),
        // and they never reach the hybrid policy: no double-routing.
        Route r;
        const auto br = _breakers[req.tenantIdx].route();
        r.probe = br == sched::CircuitBreaker::Route::kProbe;
        if (br == sched::CircuitBreaker::Route::kHost) {
            r.kind = Route::kHost;
            return r;
        }
        if (!_opts.hybrid.enabled || req.write || r.probe)
            return r;
        // A closed-breaker request may be spilled to the host, split
        // across both executors, or shed, by live device pressure vs.
        // modeled host backlog.
        const ObjectInstance &inst = _corpus.of(req);
        sched::HybridSignals sig;
        sig.backlogBytes = _fabric.deviceBacklogBytes(inst.device);
        sig.queueDepth = _fabric.deviceQueueDepth(inst.device);
        sig.dsramBounces = _fabric.deviceDsramBounces(inst.device);
        sig.hostBacklogUs = _sys.cpu().minBacklogUs(when);
        sig.requestBytes = inst.extent.sizeBytes;
        const sched::PlacementDecision pd =
            _hybrid[inst.device].decide(sig, when);
        switch (pd.placement) {
          case sched::ExecPlacement::kDevice:
            break;
          case sched::ExecPlacement::kHost:
            r.kind = Route::kHost;
            r.reason = HostExecReason::kOverload;
            break;
          case sched::ExecPlacement::kShed:
            // Past the bounce budget the request is rejected outright
            // instead of feeding an unbounded retry queue. Linear
            // backoff over the bounce count spreads repeated sheds.
            r.kind = req.shedBounces + 1 > _opts.hybrid.shedMaxBounces
                         ? Route::kShedReject
                         : Route::kShedBounce;
            r.resume = when + sim::Tick(pd.retryAfterUs) *
                                  sim::kPsPerUs *
                                  sim::Tick(req.shedBounces + 1);
            break;
          case sched::ExecPlacement::kSplit:
            // A degenerate split stays on the plain device path.
            r.cut = sched::splitPrefixBytes(inst.extent.sizeBytes);
            if (r.cut > 0 && r.cut < inst.extent.sizeBytes)
                r.kind = Route::kSplit;
            else
                r.cut = 0;
            break;
        }
        return r;
    }

    void
    start(unsigned idx, sim::Tick when)
    {
        Request &req = _requests[idx];
        const Route r = route(req, when);
        req.probe = r.probe;
        switch (r.kind) {
          case Route::kHost:
            if (r.reason == HostExecReason::kOverload)
                recordServingInstant("place_host", tenantId(req), when);
            fallback(idx, when, r.reason, {});
            return;
          case Route::kShedBounce:
          case Route::kShedReject:
            ++req.shedBounces;
            recordServingInstant("shed_bounce", tenantId(req), when);
            if (r.kind == Route::kShedReject) {
                terminate(idx, Request::State::kRejected, when, 0);
                return;
            }
            ++req.retries;
            rearm(idx, when, r.resume);
            return;
          case Route::kSplit:
            recordServingInstant("place_split", tenantId(req), when);
            break;
          case Route::kDevice:
            break;
        }
        beginSession(idx, when, r.cut);
    }

    void beginSession(unsigned idx, sim::Tick when, std::uint64_t cut);

    void
    step(unsigned slot)
    {
        ActiveSession &as = _active[slot];
        core::MorpheusRuntime &runtime = _fabric.runtime(as.device);
        if (!as.session.streamDone() && !as.session.failed) {
            const sim::Tick next = runtime.stepInvoke(as.session);
            if (!as.session.streamDone() && !as.session.failed) {
                push(next, Event::kStep, slot);
                return;
            }
        }
        const unsigned idx = as.requestIdx;
        const core::InvokeResult result =
            as.session.failed ? runtime.abortInvoke(as.session)
                              : runtime.finishInvoke(as.session);
        Request &req = _requests[idx];
        const ObjectInstance &inst = _corpus.of(req);
        if (!req.write)
            _sys.freeHost(as.session.target.addr, inst.objectBytes);
        noteTraces(idx, as.session.traceIds);
        _freeSlots.push_back(slot);
        if (result.failed) {
            deviceFailure(idx, result.done, as.splitHost);
            releaseParked(result.done);
            return;
        }
        if (_breakers[req.tenantIdx].onDeviceSuccess()) {
            // A successful device-path probe: the device healed.
            recordServingInstant("breaker_close", tenantId(req),
                                 result.done);
        }
        req.cacheHit = result.servedFromCache;
        // A serialize session delivers nothing to the host; the served
        // volume is the binary stream it pushed down. A split finishes
        // when both halves have, and the whole object counts as served.
        sim::Tick term = result.done;
        std::uint64_t served =
            req.write ? inst.writeSrcBytes : result.objectBytes;
        if (req.state == Request::State::kSplit) {
            term = std::max(term, as.splitHost.done);
            served = inst.objectBytes;
        }
        // A split whose host half's reads failed never became whole.
        terminate(idx,
                  as.splitHost.ok() ? Request::State::kCompleted
                                    : Request::State::kLost,
                  term, served);
    }

    /** A device-path attempt of request @p idx failed terminally. */
    void
    deviceFailure(unsigned idx, sim::Tick when,
                  const host::IoResult &split_host)
    {
        Request &req = _requests[idx];
        ++req.deviceFailures;
        if (_breakers[req.tenantIdx].onDeviceFailure())
            recordServingInstant("breaker_open", tenantId(req), when);
        if (_opts.breakerThreshold == 0) {
            // The recovery-off ablation: the request is lost.
            terminate(idx, Request::State::kLost, when, 0);
            return;
        }
        // Rescue the request on the host path: completion stays at
        // 100% even while the device is faulting. A failed half-open
        // probe's rescue is counted under its own reason so the
        // breaker's duty cycle is visible.
        fallback(idx, when,
                 req.probe ? HostExecReason::kProbe
                           : HostExecReason::kBreaker,
                 split_host);
    }

    void fallback(unsigned idx, sim::Tick when, HostExecReason reason,
                  const host::IoResult &split_host);

    /** Host-path work for the whole of request @p idx. A write's host
     *  path is the baseline serialization: the CPU formats the values
     *  and a plain write lands the text, charged as the same chunked
     *  transfer+convert over the destination region. */
    host::HostExecRequest
    hostRequest(unsigned idx)
    {
        const Request &req = _requests[idx];
        const ObjectInstance &inst = _corpus.of(req);
        const host::FileExtent &extent =
            req.write ? inst.writeDst : inst.extent;
        return {.backend = _sys.ssdBackend(inst.device),
                .extent = extent,
                .fileBytes = extent.sizeBytes,
                .objectBytes =
                    req.write ? inst.writeSrcBytes : inst.objectBytes,
                .cost = inst.cost,
                .chunkBytes = kHostChunkBytes,
                .costScale = _opts.hybrid.hostCostScale,
                .tenant = tenantId(req),
                .trace = hostTrace(idx)};
    }

    /** The one terminal transition: fold @p idx into the ledger, then
     *  the terminal bookkeeping. */
    void
    terminate(unsigned idx, Request::State to, sim::Tick done,
              std::uint64_t served)
    {
        Request &req = _requests[idx];
        const bool was_split = req.state == Request::State::kSplit;
        transition(req, to);
        TenantReport &t = _report.tenants[req.tenantIdx];
        ++t.submitted;
        t.retries += req.retries;
        t.dsramBounces += req.dsramBounces;
        t.shedBounces += req.shedBounces;
        t.deviceFailures += req.deviceFailures;
        t.rejected += to == Request::State::kRejected;
        t.lost += to == Request::State::kLost;
        if (req.served()) {
            req.latency = done - req.arrival;
            ++t.completed;
            t.servedBytes += served;
            t.cacheHits += req.cacheHit;
            t.writes += req.write;
            t.writeBytes += req.write ? served : 0;
            t.splitRequests += was_split && to == Request::State::kCompleted;
        }
        if (to == Request::State::kFallback) {
            ++t.fallbacks;
            ++(req.fallbackReason == HostExecReason::kOverload
                   ? t.fallbackOverload
               : req.fallbackReason == HostExecReason::kProbe
                   ? t.fallbackProbe
                   : t.fallbackBreaker);
        }
        if (!_report.shards.empty()) {
            ShardReport &s = _report.shards[_corpus.of(req).device];
            ++s.requests;
            s.completed += req.served();
            s.servedBytes += req.served() ? served : 0;
        }
        _lastDone = std::max(_lastDone, done);
        finishObservability(idx, done);
        // A served request is the retry signal a hint-less bounce
        // waits for; every terminal outcome frees a closed-loop slot.
        if (req.served())
            releaseParked(done);
        issueNext(req.tenantIdx, done);
    }

    /** Re-offer request @p idx at @p resume; it waited from @p since. */
    void
    rearm(unsigned idx, sim::Tick since, sim::Tick resume)
    {
        transition(_requests[idx], Request::State::kArriving);
        if (_recorder != nullptr) {
            // Synthetic host-side backoff span: the wait between a
            // bounce and the re-submission is real latency the device
            // never sees; naming it keeps the attribution gap-free.
            const obs::TraceId trace = hostTrace(idx);
            if (resume > since) {
                obs::recordSpan(*_recorder, "host.serving", "retry_wait",
                                "serving", since, resume,
                                {.trace = trace,
                                 .tenant = tenantId(_requests[idx])});
            }
        }
        push(resume, Event::kArrival, idx);
    }

    void
    park(unsigned idx, sim::Tick since)
    {
        transition(_requests[idx], Request::State::kParked);
        if (_recorder != nullptr)
            _parkBegin[idx] = since;
        _parked.push_back(idx);
    }

    void
    releaseParked(sim::Tick when)
    {
        std::vector<unsigned> waiting;
        waiting.swap(_parked);
        for (unsigned idx : waiting)
            rearm(idx, _recorder != nullptr ? _parkBegin[idx] : when, when);
    }

    /** Closed loop: issue the tenant's next request at @p when (the
     *  trace holds each tenant's requests contiguously, in order). */
    void
    issueNext(unsigned tenant_idx, sim::Tick when)
    {
        if (!_opts.closedLoop ||
            _issued[tenant_idx] == _opts.closedLoopRequests)
            return;
        const auto idx = static_cast<unsigned>(
            tenant_idx * _opts.closedLoopRequests + _issued[tenant_idx]++);
        _requests[idx].arrival = when;
        push(when, Event::kArrival, idx);
    }

    void
    push(sim::Tick when, Event::Kind kind, unsigned idx)
    {
        _events.push(Event{when, _seq++, kind, idx});
    }

    std::uint32_t
    tenantId(const Request &req) const
    {
        return _opts.tenants[req.tenantIdx].id;
    }

    /** Collect the trace ids of a request's driver commands. */
    void
    noteTraces(unsigned idx, const std::vector<obs::TraceId> &ids)
    {
        if (_recorder != nullptr)
            _traces[idx].insert(_traces[idx].end(), ids.begin(), ids.end());
    }

    /** The trace id a request's host-side spans ride under: its last
     *  device-command id, else a synthetic id in a device range (0xFF)
     *  no fleet reaches, so host-only spans are collectible by id. */
    obs::TraceId
    hostTrace(unsigned idx)
    {
        if (_recorder == nullptr)
            return 0;
        if (_traces[idx].empty())
            _traces[idx].push_back((obs::TraceId{0xFFu} << 24) |
                                   ++_hostTraceSeq);
        return _traces[idx].back();
    }

    /** Collect the request's spans, attribute a served request's
     *  stages, and offer the trace for slowest-K / failed retention. */
    void
    finishObservability(unsigned idx, sim::Tick done)
    {
        if (_recorder == nullptr)
            return;
        const Request &req = _requests[idx];
        std::vector<obs::Span> spans = _recorder->collect(_traces[idx]);
        if (req.served())
            _attr[idx] = obs::attributeSpans(spans, req.arrival, done);
        obs::RequestMeta meta;
        meta.requestId = idx;
        meta.tenant = tenantId(req);
        meta.begin = req.arrival;
        meta.end = done;
        // Requests that saw a device failure (including host-path
        // rescues) are always retention-worthy.
        meta.failed = !req.served() || req.deviceFailures > 0;
        _recorder->offer(meta, std::move(spans));
    }

    void
    startTimeline()
    {
        if (_opts.timeline == nullptr)
            return;
        std::vector<std::string> cols{
            "inflight",       "parked",           "completed",
            "rejected",       "lost",             "fallbacks",
            "backlog_bytes",  "dsram_used_bytes", "cache_hits",
            "cache_misses",   "driver_retries",   "driver_timeouts",
            "faults"};
        for (const TenantSpec &t : _opts.tenants)
            cols.push_back("tenant" + std::to_string(t.id) + "_completed");
        _opts.timeline->setColumns(std::move(cols));
        _opts.timeline->start(_firstArrival);
    }

    /** Catch the cadence up to @p t: rows land at exact interval
     *  boundaries with the state as of the boundary. */
    void
    sampleUntil(sim::Tick t)
    {
        if (_opts.timeline == nullptr)
            return;
        while (_opts.timeline->due(t))
            _opts.timeline->record(sampleRow());
    }

    std::vector<double> sampleRow() const;
    void summarizeSlo(const std::vector<unsigned> &idx,
                      TenantReport *tr) const;
    void summarize(std::vector<unsigned> idx, LatencySummary *lat,
                   StageBreakdown *stages) const;

    const ServingOptions &_opts;
    host::HostSystem &_sys;
    shard::ShardFabric &_fabric;
    const core::StandardImages &_images;
    const Corpus &_corpus;
    std::vector<Request> _requests;
    obs::FlightRecorder *const _recorder;
    const sim::FaultInjector *const _injector;
    /** Anchor of the makespan, the SLO windows and the timeline. */
    const sim::Tick _firstArrival;
    sim::Tick _lastDone;

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        _events;
    std::uint64_t _seq = 0;
    std::vector<ActiveSession> _active;
    std::vector<unsigned> _freeSlots;
    std::vector<unsigned> _parked;  ///< FIFO of request indices.
    /** Closed loop: requests each tenant has issued. */
    std::vector<std::uint64_t> _issued;

    std::vector<sched::CircuitBreaker> _breakers;
    /** One placement policy per device (per-device hysteresis). */
    std::vector<sched::HybridPlacementPolicy> _hybrid;

    // Per-request observability state, sized only with a recorder so
    // the uninstrumented path allocates nothing.
    std::vector<std::vector<obs::TraceId>> _traces;
    std::vector<obs::Attribution> _attr;
    std::vector<sim::Tick> _parkBegin;
    std::uint32_t _hostTraceSeq = 0;

    /** The outcome ledger, and in the end the report. */
    ServingReport _report;
};

void
ServingLoop::beginSession(unsigned idx, sim::Tick when, std::uint64_t cut)
{
    Request &req = _requests[idx];
    const TenantSpec &tenant = _opts.tenants[req.tenantIdx];
    const ObjectInstance &inst = _corpus.of(req);
    core::MorpheusRuntime &runtime = _fabric.runtime(inst.device);

    core::InvokeOptions iopts;
    iopts.hostCore = req.tenantIdx % _sys.cpu().config().cores;
    iopts.flushThreshold = _opts.flushThreshold;
    iopts.tenantId = tenant.id;
    // A split streams only the prefix sub-extent through the device
    // (MINIT declares the prefix length, MREAD chunks are
    // byte-precise, and the int-array parser tolerates the truncated
    // tail); the host converts the remainder concurrently once the
    // MINIT is accepted.
    host::FileExtent dev_extent = inst.extent;
    const core::StorageAppImage *applet = &_images.int64Serializer;
    if (req.write) {
        // MWRITE session: the stream declares the binary source
        // length; chunks land behind the scratch region's base.
        iopts.serialize = true;
        iopts.writeSrc = inst.writeSrc;
        iopts.writeDstByte = inst.writeDst.startByte;
        dev_extent = inst.writeDst;
        dev_extent.sizeBytes = inst.writeSrcBytes;
    } else {
        iopts.pushdown = _corpus.pushdown[req.tenantIdx];
        if (cut > 0)
            dev_extent.sizeBytes = cut;
        applet = tenant.format == TenantFormat::kColumnar
                     ? &_images.columnarScan
                     : &imageFor(textKind(tenant.format), _images);
    }
    const core::DmaTarget target =
        req.write ? core::DmaTarget{inst.writeSrc, false}
                  : runtime.hostTarget(inst.objectBytes);
    const core::MsStream stream =
        runtime.streamCreate(dev_extent, when, iopts.hostCore);

    core::InvokeSession s =
        runtime.beginInvoke(*applet, stream, target, when, iopts);
    if (!s.accepted) {
        // A refused MINIT never wrote the target; a re-offer allocates
        // afresh.
        if (!req.write)
            _sys.freeHost(target.addr, inst.objectBytes);
        noteTraces(idx, s.traceIds);
        if (s.failed) {
            // MINIT died on an injected fault with the retry budget
            // spent: a device failure, not a bounce.
            deviceFailure(idx, s.result.done, {});
            return;
        }
        // Every other refusal is a bounce that clears as resident
        // instances finish. A retry-after hint is honored instead of
        // waiting for an unrelated completion.
        ++req.retries;
        req.dsramBounces +=
            s.minitStatus == nvme::Status::kDsramExhausted;
        if (s.retryAfterUs > 0) {
            rearm(idx, s.result.done,
                  s.result.done +
                      sim::Tick(s.retryAfterUs) * sim::kPsPerUs);
        } else {
            park(idx, s.result.done);
        }
        return;
    }
    ActiveSession as{std::move(s), idx, inst.device, {}};
    if (cut > 0) {
        // MINIT accepted the prefix: charge the host half of the split
        // now, concurrent (in simulated time) with the device stream.
        // A bounced MINIT never reaches here, so a bounce costs no
        // host work.
        host::HostExecRequest hreq = hostRequest(idx);
        hreq.extent.startByte += cut;
        hreq.extent.sizeBytes -= cut;
        as.splitHost = host::hostExecute(
            _sys, hreq, _sys.cpu().leastLoadedCore(), when);
    }
    transition(req, cut > 0 ? Request::State::kSplit
                            : Request::State::kStreaming);
    unsigned slot = static_cast<unsigned>(_active.size());
    if (!_freeSlots.empty()) {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
        _active[slot] = std::move(as);
    } else {
        _active.push_back(std::move(as));
    }
    push(_active[slot].session.now, Event::kStep, slot);
}

void
ServingLoop::fallback(unsigned idx, sim::Tick when,
                      HostExecReason reason,
                      const host::IoResult &split_host)
{
    // The paper's baseline path (Fig 1): host read()s the raw text in
    // chunks and converts on the CPU. The breaker uses it to keep
    // availability at 100% while the device path is faulting; the
    // hybrid policy uses it as spill capacity past device saturation.
    Request &req = _requests[idx];
    const bool split = req.state == Request::State::kSplit;
    // Breaker-path rescues keep the classic tenant-pinned core;
    // overload spill spreads over the least-loaded core.
    const unsigned core = reason == HostExecReason::kOverload
                              ? _sys.cpu().leastLoadedCore()
                              : req.tenantIdx % _sys.cpu().config().cores;
    host::HostExecRequest hreq = hostRequest(idx);
    // A failed split session is rescued over its device prefix only:
    // the host half of the remainder already ran.
    if (split)
        hreq.extent.sizeBytes = sched::splitPrefixBytes(hreq.fileBytes);
    // A split ends when both halves have, and fails if either did.
    host::IoResult res = host::hostExecute(_sys, hreq, core, when);
    res.done = std::max(res.done, split_host.done);
    if (res.ok())
        res.status = split_host.status;
    if (!res.ok()) {
        // A host read failed past the driver's retry budget: no path
        // is left to serve the request.
        terminate(idx, Request::State::kLost, res.done, 0);
        return;
    }

    recordServingInstant("fallback", tenantId(req), when);
    req.fallbackReason = reason;
    terminate(idx, Request::State::kFallback, res.done, hreq.objectBytes);
}

std::vector<double>
ServingLoop::sampleRow() const
{
    // Loop state and the ledger, then device occupancy, cache and
    // fault reads.
    OutcomeCounts total;
    for (const TenantReport &t : _report.tenants)
        total += t;
    std::uint64_t backlog = 0, dsram = 0, hits = 0, misses = 0,
                  retries = 0, timeouts = 0;
    for (unsigned d = 0; d < _sys.numSsds(); ++d) {
        auto &ssd = _sys.ssd(d);
        backlog += ssd.scheduler().arbiter().totalDeclaredBacklog();
        for (unsigned c = 0; c < ssd.numCores(); ++c)
            dsram += ssd.core(c).dsramUsed();
        hits += ssd.objectCache().hits();
        misses += ssd.objectCache().misses();
        retries += _sys.nvmeDriver(d).retriesIssued();
        timeouts += _sys.nvmeDriver(d).timeoutsSynthesized();
    }
    const std::uint64_t faults =
        _injector != nullptr
            ? _injector->mediaErrors() + _injector->dmaFaults() +
                  _injector->appCrashes() + _injector->appHangs()
            : 0;
    std::vector<double> v;
    for (const std::uint64_t x :
         {std::uint64_t(_active.size() - _freeSlots.size()),
          std::uint64_t(_parked.size()), total.completed, total.rejected,
          total.lost, total.fallbacks, backlog, dsram, hits, misses,
          retries, timeouts, faults})
        v.push_back(static_cast<double>(x));
    for (const TenantReport &t : _report.tenants)
        v.push_back(static_cast<double>(t.completed));
    return v;
}

ServingReport
ServingLoop::aggregate()
{
    // One list of served request indices per tenant and per shard, in
    // request order; the run's list is tenant-major. Each list feeds
    // one summary pass, so every mean sums in a fixed order.
    ServingReport &rep = _report;
    const unsigned num_tenants = _opts.tenants.size();
    std::vector<std::vector<unsigned>> by_tenant(num_tenants);
    std::vector<std::vector<unsigned>> by_shard(rep.shards.size());
    for (unsigned i = 0; i < _requests.size(); ++i) {
        const Request &r = _requests[i];
        if (!r.served())
            continue;
        by_tenant[r.tenantIdx].push_back(i);
        if (!rep.shards.empty())
            by_shard[_corpus.of(r).device].push_back(i);
    }
    std::vector<unsigned> all;
    double sum = 0.0, sum_sq = 0.0;
    for (unsigned ti = 0; ti < num_tenants; ++ti) {
        TenantReport &tr = rep.tenants[ti];
        all.insert(all.end(), by_tenant[ti].begin(), by_tenant[ti].end());
        summarizeSlo(by_tenant[ti], &tr);
        summarize(std::move(by_tenant[ti]), &tr, &tr);
        tr.cacheHitRate = tr.completed
                              ? static_cast<double>(tr.cacheHits) /
                                    static_cast<double>(tr.completed)
                              : 0.0;
        static_cast<OutcomeCounts &>(rep) += tr;
        const double x = static_cast<double>(tr.servedBytes);
        sum += x;
        sum_sq += x * x;
    }
    summarize(std::move(all), &rep, &rep);
    // Jain index over the tenants' served bytes.
    rep.jainFairness =
        sum_sq > 0.0 ? (sum * sum) / (num_tenants * sum_sq) : 1.0;

    if (_opts.hybrid.enabled) {
        for (const sched::HybridPlacementPolicy &pol : _hybrid) {
            for (unsigned p = 0; p < sched::kNumPlacements; ++p)
                rep.hybridDecisions[p] +=
                    pol.decisions(sched::ExecPlacement(p));
            rep.hybridFlips += pol.flips();
        }
    }
    rep.makespan = _lastDone - _firstArrival;
    rep.throughputPerSec =
        rep.makespan ? static_cast<double>(rep.completed) /
                           (static_cast<double>(rep.makespan) /
                            static_cast<double>(sim::kPsPerSec))
                     : 0.0;
    for (unsigned d = 0; d < _sys.numSsds(); ++d) {
        rep.driverRetries += _sys.nvmeDriver(d).retriesIssued();
        rep.driverTimeouts += _sys.nvmeDriver(d).timeoutsSynthesized();
    }
    // Name the straggler: the shard whose tail holds everyone back.
    double worst = -1.0;
    for (ShardReport &sr : rep.shards) {
        summarize(std::move(by_shard[sr.device]), &sr, nullptr);
        if (sr.p99Us > worst) {
            worst = sr.p99Us;
            rep.stragglerShard = sr.device;
        }
    }
    return std::move(_report);
}

void
ServingLoop::summarizeSlo(const std::vector<unsigned> &idx,
                          TenantReport *tr) const
{
    const SloOptions &slo = _opts.slo;
    if (!slo.enabled)
        return;
    tr->sloTargetUs = slo.targetUs;
    // Burn windows: window -> (completions, violations), keyed by
    // completion time relative to the first arrival.
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        windows;
    for (const unsigned i : idx) {
        const Request &r = _requests[i];
        const bool violated = ticksToUs(r.latency) > tr->sloTargetUs;
        tr->sloViolations += violated;
        if (slo.windowUs <= 0.0)
            continue;
        const sim::Tick done = r.arrival + r.latency;
        const double rel_us =
            ticksToUs(done > _firstArrival ? done - _firstArrival : 0);
        auto &[cnt, viol] =
            windows[static_cast<std::uint64_t>(rel_us / slo.windowUs)];
        ++cnt;
        viol += violated;
    }
    for (const auto &[w, cv] : windows) {
        const double frac = static_cast<double>(cv.second) /
                            static_cast<double>(cv.first);
        ++(frac > 1.0 - slo.objective ? tr->sloBadWindows
                                      : tr->sloGoodWindows);
    }
    if (tr->completed > 0 && slo.objective < 1.0) {
        tr->sloBurnRate = (static_cast<double>(tr->sloViolations) /
                           static_cast<double>(tr->completed)) /
                          (1.0 - slo.objective);
    }
}

void
ServingLoop::summarize(std::vector<unsigned> idx, LatencySummary *lat,
                       StageBreakdown *stages) const
{
    // Latencies of the served requests @p idx and, with a recorder and
    // @p stages, their mean stage ticks. The means sum over @p idx in
    // its given order. One sort by (latency, index) then feeds every
    // order statistic (exact ceil-rank picks; ticksToUs is monotone),
    // so the p99 exemplar whose stages are reported is the request
    // p99Us reads, and its decomposition sums to the reported p99.
    const bool attributed = stages != nullptr && _recorder != nullptr;
    if (stages != nullptr)
        stages->attributed = attributed ? idx.size() : 0;
    if (idx.empty())
        return;
    const auto us = [this](unsigned i) {
        return ticksToUs(_requests[i].latency);
    };
    const double n = static_cast<double>(idx.size());
    double sum = 0.0;
    obs::Attribution stage_sum;
    for (const unsigned i : idx) {
        sum += us(i);
        if (attributed)
            stage_sum += _attr[i];
    }
    lat->meanUs = sum / n;
    std::sort(idx.begin(), idx.end(), [this](unsigned a, unsigned b) {
        if (_requests[a].latency != _requests[b].latency)
            return _requests[a].latency < _requests[b].latency;
        return a < b;
    });
    const auto pick = [&](double q) {
        return idx[quantileRank(q, idx.size())];
    };
    const unsigned p99 = pick(0.99);
    lat->p50Us = us(pick(0.50));
    lat->p95Us = us(pick(0.95));
    lat->p99Us = us(p99);
    lat->p999Us = us(pick(0.999));
    lat->maxUs = us(idx.back());
    if (!attributed)
        return;
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
        stages->stageMeanUs[s] = ticksToUs(stage_sum.ticks[s]) / n;
        stages->stageP99Us[s] = ticksToUs(_attr[p99].ticks[s]);
    }
}

/** Federate @p l under @p prefix; shard and fleet views omit max_us. */
void
federateLatency(obs::MetricsRegistry &reg, const std::string &prefix,
                const LatencySummary &l, bool with_max)
{
    reg.setScalar(prefix + "mean_us", l.meanUs);
    reg.setScalar(prefix + "p50_us", l.p50Us);
    reg.setScalar(prefix + "p95_us", l.p95Us);
    reg.setScalar(prefix + "p99_us", l.p99Us);
    reg.setScalar(prefix + "p999_us", l.p999Us);
    if (with_max)
        reg.setScalar(prefix + "max_us", l.maxUs);
}

void
federateStages(obs::MetricsRegistry &reg, const std::string &prefix,
               const StageBreakdown &b)
{
    if (b.attributed == 0)
        return;
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
        const std::string stage =
            prefix + "breakdown." + obs::stageName(obs::Stage(s));
        reg.setScalar(stage + "_mean_us", b.stageMeanUs[s]);
        reg.setScalar(stage + "_p99_us", b.stageP99Us[s]);
    }
}

void
federateCounts(obs::MetricsRegistry &reg, const std::string &prefix,
               const OutcomeCounts &c, unsigned scopes)
{
    for (const OutcomeField &f : kOutcomeFields) {
        if ((f.scopes & scopes) != 0)
            reg.setCounter(prefix + f.name, c.*f.member);
    }
}

/** Write the machine's counters (under "sys.") and the report (under
 *  "serving.", "shard." and "fleet.") into @p reg. Runs before `sys`
 *  and the devices die. */
void
federate(obs::MetricsRegistry &reg, const ServingOptions &opts,
         host::HostSystem &sys, shard::ShardFabric &fabric,
         const ServingReport &report)
{
    const unsigned num_ssds = sys.numSsds();
    sys.writeStats(reg, "sys");
    // Device 0 keeps the classic "morpheus" prefix; fleet devices
    // federate under "morpheus1", "morpheus2", ...
    for (unsigned d = 0; d < num_ssds; ++d) {
        fabric.deviceRuntime(d).writeStats(
            reg, d == 0 ? "sys.morpheus"
                        : "sys.morpheus" + std::to_string(d));
    }
    for (const TenantReport &tr : report.tenants) {
        const std::string p =
            "serving.tenant." + std::to_string(tr.id) + ".";
        federateCounts(reg, p, tr, kTenantScope);
        reg.setCounter(p + "format", static_cast<std::uint64_t>(tr.format));
        reg.setScalar(p + "cache_hit_rate", tr.cacheHitRate);
        federateLatency(reg, p, tr, /*with_max=*/true);
        if (opts.slo.enabled) {
            reg.setScalar(p + "slo.target_us", tr.sloTargetUs);
            reg.setCounter(p + "slo.violations", tr.sloViolations);
            reg.setCounter(p + "slo.good_windows", tr.sloGoodWindows);
            reg.setCounter(p + "slo.bad_windows", tr.sloBadWindows);
            reg.setScalar(p + "slo.burn_rate", tr.sloBurnRate);
        }
        federateStages(reg, p, tr);
    }
    federateCounts(reg, "serving.", report,
                   kTotalScope | (opts.hybrid.enabled ? kHybridScope : 0));
    reg.setCounter("serving.driverRetries", report.driverRetries);
    reg.setCounter("serving.driverTimeouts", report.driverTimeouts);
    reg.setCounter("serving.makespan_ticks", report.makespan);
    federateLatency(reg, "serving.", report, /*with_max=*/true);
    reg.setScalar("serving.jain_fairness", report.jainFairness);
    reg.setScalar("serving.throughput_per_sec", report.throughputPerSec);
    if (opts.hybrid.enabled) {
        for (unsigned p = 0; p < sched::kNumPlacements; ++p) {
            reg.setCounter(
                std::string("sched.hybrid.decisions.") +
                    sched::placementName(sched::ExecPlacement(p)),
                report.hybridDecisions[p]);
        }
        reg.setCounter("sched.hybrid.flips", report.hybridFlips);
    }
    if (report.attributed > 0)
        reg.setCounter("serving.attributed", report.attributed);
    federateStages(reg, "serving.", report);
    if (num_ssds == 1)
        return;
    for (const ShardReport &sr : report.shards) {
        const std::string p = "shard." + std::to_string(sr.device) + ".";
        reg.setCounter(p + "requests", sr.requests);
        reg.setCounter(p + "completed", sr.completed);
        reg.setCounter(p + "servedBytes", sr.servedBytes);
        federateLatency(reg, p, sr, /*with_max=*/false);
    }
    reg.setCounter("serving.straggler_shard", report.stragglerShard);
    reg.setCounter("fleet.devices", num_ssds);
    reg.setCounter("fleet.completed", report.completed);
    federateLatency(reg, "fleet.", report, /*with_max=*/false);
    reg.setScalar("fleet.throughput_per_sec", report.throughputPerSec);
}

}  // namespace

const char *
tenantFormatName(TenantFormat f)
{
    const auto i = static_cast<std::size_t>(f);
    return i < kFormatNames.size() ? kFormatNames[i] : "?";
}

bool
tenantFormatFromName(const std::string &name, TenantFormat *out)
{
    for (std::size_t i = 0; i < kFormatNames.size(); ++i) {
        if (name == kFormatNames[i] || (i == 0 && name == "int")) {
            *out = static_cast<TenantFormat>(i);
            return true;
        }
    }
    return false;
}

ServingReport
runServing(const ServingOptions &opts)
{
    MORPHEUS_ASSERT(!opts.tenants.empty(), "serving without tenants");
    host::HostSystem sys(opts.sys);
    // One MorpheusRuntime per SSD; the fabric degrades to exactly the
    // classic single-runtime construction when sys.numSsds == 1.
    shard::ShardFabric fabric(sys);
    fabric.setRecovery(opts.recovery);
    const core::StandardImages images = core::StandardImages::make();
    const Corpus corpus = ingest(opts, sys);
    std::vector<Request> requests = generateTrace(opts, corpus.ready);

    // Fault injection covers only the measured loop; the injector
    // stays installed through federation so sys.faults.* is visible.
    std::optional<sim::FaultInjector> injector;
    std::optional<sim::ScopedFaultInjector> fault_scope;
    if (opts.faults.active()) {
        injector.emplace(opts.faults);
        fault_scope.emplace(&*injector);
    }

    // The flight recorder becomes THE trace sink for the measured loop.
    // A breakdown without one gets a private recorder tee-ing to the
    // sink already attached, so existing trace consumers see every span.
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

    ServingLoop loop(opts, sys, fabric, images, corpus, std::move(requests),
                     recorder, injector ? &*injector : nullptr);
    loop.run();
    // Detach before teardown; retained traces survive in `recorder`.
    if (recorder != nullptr)
        obs::setTraceSink(prev_sink);

    ServingReport report = loop.aggregate();
    if (opts.metrics != nullptr)
        federate(*opts.metrics, opts, sys, fabric, report);
    return report;
}

}  // namespace morpheus::workloads
