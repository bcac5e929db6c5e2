#include "core/device_runtime.hh"

#include <algorithm>
#include <utility>

#include "serde/columnar.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace morpheus::core {

MorpheusDeviceRuntime::MorpheusDeviceRuntime(ssd::SsdController &ssd)
    : _ssd(ssd)
{
    _ssd.setMorpheusEngine(this);
}

void
MorpheusDeviceRuntime::stageInstance(std::uint32_t instance_id,
                                     const InstanceSetup &setup)
{
    MORPHEUS_ASSERT(setup.image != nullptr, "staging without an image");
    MORPHEUS_ASSERT(setup.image->factory, "image has no factory");
    _staged[instance_id] = setup;
}

void
MorpheusDeviceRuntime::unstageInstance(std::uint32_t instance_id)
{
    _staged.erase(instance_id);
}

std::uint64_t
MorpheusDeviceRuntime::takeDeliveredBytes(std::uint32_t instance_id)
{
    const auto it = _delivered.find(instance_id);
    if (it == _delivered.end())
        return 0;
    const std::uint64_t bytes = it->second;
    _delivered.erase(it);
    return bytes;
}

bool
MorpheusDeviceRuntime::takeServedFromCache(std::uint32_t instance_id)
{
    const auto it = _cacheServed.find(instance_id);
    if (it == _cacheServed.end())
        return false;
    const bool served = it->second;
    _cacheServed.erase(it);
    return served;
}

ssd::ObjectCacheKey
MorpheusDeviceRuntime::cacheKeyFor(const Instance &inst) const
{
    ssd::ObjectCacheKey key;
    key.nsid = inst.streamNsid;
    key.rawBegin = inst.streamOrigin;
    key.rawLen = inst.declaredStreamBytes;
    key.applet = inst.setup.image->name;
    key.appletVersion = inst.setup.image->version;
    key.pushdownDigest = inst.pushdownDigest;
    return key;
}

nvme::CommandResult
MorpheusDeviceRuntime::execute(const nvme::Command &cmd, sim::Tick start)
{
    switch (cmd.opcode) {
      case nvme::Opcode::kMInit:
        return doMInit(cmd, start);
      case nvme::Opcode::kMRead:
        return doMRead(cmd, start);
      case nvme::Opcode::kMWrite:
        return doMWrite(cmd, start);
      case nvme::Opcode::kMDeinit:
        return doMDeinit(cmd, start);
      default:
        return {start, nvme::Status::kInvalidOpcode, 0};
    }
}

nvme::CommandResult
MorpheusDeviceRuntime::doMInit(const nvme::Command &cmd, sim::Tick start)
{
    ++_minits;
    const auto staged = _staged.find(cmd.instanceId);
    if (staged == _staged.end())
        return {start, nvme::Status::kNoSuchInstance, 0};
    if (_instances.count(cmd.instanceId))
        return {start, nvme::Status::kInstanceBusy, 0};

    const InstanceSetup setup = staged->second;
    _staged.erase(staged);

    // With partitioning, the MINIT's requested budget (in-band in
    // PRP2's low dword) becomes a grant the core must be able to
    // reserve; the default (0) is an equal share of the scratchpad
    // across kMaxInstancesPerCore co-residents. The grant is also a
    // placement signal: the dispatcher prefers cores with room for it.
    // PRP2's high dword carries the pushdown descriptor digest when
    // MINIT ships one (NLB holds the descriptor's dword count).
    std::uint32_t granted = 0;
    if (_ssd.config().sched.dsramPartitioning) {
        const auto requested =
            static_cast<std::uint32_t>(cmd.prp2 & 0xFFFFFFFFull);
        granted = requested ? requested
                            : _ssd.config().core.dsramBytes /
                                  sched::kMaxInstancesPerCore;
    }

    // Pushdown descriptor integrity: the staged dwords must match the
    // in-band count and digest, exactly as the staged factory stands
    // in for the PRP1 code bytes, and decode as a canonical ScanSpec.
    // A mismatched program must never run (its cache entries would
    // replay under the wrong key).
    const std::uint32_t desc_dwords = cmd.nlb;
    std::uint32_t desc_digest = 0;
    if (desc_dwords > 0) {
        if (setup.pushdown.size() != desc_dwords)
            return {start, nvme::Status::kInvalidField, 0};
        desc_digest = serde::pushdownDigest(setup.pushdown);
        serde::ScanSpec spec;
        if (desc_digest != static_cast<std::uint32_t>(cmd.prp2 >> 32) ||
            !serde::ScanSpec::decode(setup.pushdown, &spec))
            return {start, nvme::Status::kInvalidField, 0};
    }
    const std::uint32_t desc_bytes = desc_dwords * 4;

    ssd::EmbeddedCore &core = _ssd.coreFor(cmd.instanceId, start, granted);
    const std::uint32_t code_bytes =
        cmd.cdw13 ? cmd.cdw13 : setup.image->textBytes;
    if (!core.loadImage(code_bytes)) {
        // Only an image larger than the whole I-SRAM can never load. A
        // core whose I-SRAM is full of resident images bounces the
        // MINIT like a full instance table; with no retry-after hint
        // the host waits for a completion before resubmitting.
        return {start,
                code_bytes > core.config().isramBytes
                    ? nvme::Status::kAppLoadFailed
                    : nvme::Status::kInstanceBusy,
                0};
    }
    if (granted && !core.reserveDsram(granted)) {
        // No data budget next to the co-resident grants: release the
        // I-SRAM image too (the scheduler front end frees the arbiter
        // slot and the placement when it sees the failure status).
        core.unloadImage(code_bytes);
        return {start, nvme::Status::kDsramExhausted, 0};
    }

    // Fetch the code image (plus any pushdown descriptor riding behind
    // it) from host memory (prp1), then spend a few core cycles
    // installing it into I-SRAM.
    const sim::Tick fetched = _ssd.fabric().dmaRead(
        _ssd.port(), cmd.prp1, code_bytes + desc_bytes, start);
    if (_ssd.fabric().consumeDmaFault()) {
        // The image arrived corrupted: refuse the install and undo the
        // SRAM reservations. The scheduler front end frees the slot and
        // placement when it sees the failure status, so the host can
        // simply resubmit MINIT.
        core.unloadImage(code_bytes);
        if (granted)
            core.releaseDsram(granted);
        return {fetched, nvme::Status::kTransientTransferError, 0};
    }
    const sim::Tick installed =
        core.execute(static_cast<double>(code_bytes) * 0.5 + 5000.0,
                     fetched, "install",
                     {cmd.traceId, cmd.cdw15, cmd.instanceId, code_bytes});

    ssd::ObjectCache &cache = _ssd.objectCache();
    if (cache.enabled()) {
        // Applet re-install at a different code version: any object it
        // parsed under the old version may embed stale semantics.
        const auto ver = _appletVersions.find(setup.image->name);
        if (ver != _appletVersions.end() &&
            ver->second != setup.image->version)
            cache.invalidateApplet(setup.image->name);
        _appletVersions[setup.image->name] = setup.image->version;
    }

    Instance inst;
    inst.id = cmd.instanceId;
    inst.tenant = cmd.cdw15;
    inst.setup = setup;
    inst.app = setup.image->factory(cmd.cdw14);
    // MINIT declares the stream length in-band (SLBA carries bytes,
    // not blocks): with the first MREAD's origin it identifies the raw
    // range a cached object was parsed from. 0 = unknown, uncacheable.
    inst.declaredStreamBytes = cmd.slba;
    inst.streamNsid = cmd.nsid;
    const std::uint32_t dsram =
        granted ? granted : core.config().dsramBytes;
    const std::uint32_t threshold = std::max<std::uint32_t>(
        1, setup.flushThreshold
               ? std::min(setup.flushThreshold, dsram)
               : dsram / 4);
    inst.ctx = std::make_unique<MsChunkContext>(dsram, threshold,
                                                cmd.cdw14);
    if (desc_dwords > 0) {
        inst.pushdownDigest = desc_digest;
        inst.ctx->setPushdown(setup.pushdown);
    }
    inst.coreId = core.id();
    inst.codeBytes = code_bytes;
    inst.dsramGranted = granted;
    inst.dmaCursor = setup.target.addr;
    _instances.emplace(cmd.instanceId, std::move(inst));

    return {installed, nvme::Status::kSuccess, 0};
}

sim::Tick
MorpheusDeviceRuntime::drainFlushes(
    Instance &inst, std::vector<std::vector<std::uint8_t>> segments,
    sim::Tick earliest, obs::TraceId trace)
{
    sim::Tick done = earliest;
    for (auto &seg : segments) {
        // Staged objects pass through controller DRAM and out over
        // PCIe to the instance's DMA target.
        const sim::Tick buffered =
            _ssd.dramTransfer(seg.size(), earliest);
        sim::Tick dma = _ssd.fabric().dmaWriteData(
            _ssd.port(), inst.dmaCursor, seg.data(), seg.size(),
            buffered);
        // Transient outbound faults are replayed by the device (the
        // data was already delivered functionally, so an exhausted
        // retry bound only costs time — never a double delivery).
        bool dma_failed = false;
        dma = _ssd.retryOutboundDma(inst.dmaCursor, seg.size(), dma,
                                    &dma_failed);
        obs::traceSpan({_ssd.trackPrefix(), "ssd.dma"}, "flush_dma", "ssd",
                       buffered, dma,
                       {trace, inst.tenant, inst.id, seg.size(),
                        inst.coreId});
        inst.dmaCursor += seg.size();
        _objectBytes += seg.size();
        _delivered[inst.id] += seg.size();
        // Candidate for the object cache: the payload is accumulated
        // in DMA order, so on a clean full-stream MDEINIT it is the
        // exact byte sequence a later hit must replay.
        if (_ssd.objectCache().enabled() && inst.cacheable &&
            !inst.cacheServed) {
            inst.cachePayload.insert(inst.cachePayload.end(),
                                     seg.begin(), seg.end());
        }
        done = std::max(done, dma);
    }
    return done;
}

void
MorpheusDeviceRuntime::coalesceFlushes(
    std::vector<std::vector<std::uint8_t>> &segments)
{
    if (!_ssd.config().pipeline.enabled)
        return;
    std::vector<std::vector<std::uint8_t>> merged;
    merged.reserve(segments.size());
    for (auto &seg : segments) {
        if (!merged.empty() &&
            merged.back().size() + seg.size() <= ssd::kMaxDescriptorBytes) {
            merged.back().insert(merged.back().end(), seg.begin(),
                                 seg.end());
        } else {
            merged.push_back(std::move(seg));
        }
    }
    _flushSegmentsCoalesced += segments.size() - merged.size();
    segments = std::move(merged);
}

nvme::CommandResult
MorpheusDeviceRuntime::doMRead(const nvme::Command &cmd, sim::Tick start)
{
    ++_mreads;
    const auto it = _instances.find(cmd.instanceId);
    if (it == _instances.end())
        return {start, nvme::Status::kNoSuchInstance, 0};
    Instance &inst = it->second;
    if (inst.poisoned)
        return {start, nvme::Status::kAppFault, 0};

    const std::uint64_t byte_off = cmd.slba * nvme::kBlockBytes;
    const std::uint64_t valid =
        cmd.cdw13 ? cmd.cdw13 : cmd.dataBytes();
    MORPHEUS_ASSERT(valid <= cmd.dataBytes(),
                    "valid byte count exceeds the LBA range");

    // Stream-order guard: after a failed chunk the host may still have
    // later chunks of the same batch in flight. Feeding them would run
    // the stateful parser across a gap, so bounce them (retryable)
    // until the missing chunk is resubmitted. The first chunk of a
    // stream pins its origin.
    constexpr std::uint64_t kUnpinned = ~std::uint64_t{0};
    if (inst.expectedByteOff != kUnpinned &&
        byte_off != inst.expectedByteOff)
        return {start, nvme::Status::kSequenceError, 0};

    if (inst.cacheServed) {
        // The whole object already left the device on the stream's
        // first chunk; the remaining MREADs of the host's fixed chunk
        // schedule complete immediately, touching neither flash nor an
        // embedded core.
        inst.expectedByteOff = byte_off + valid;
        return {start, nvme::Status::kSuccess, 0};
    }
    ssd::ObjectCache &cache = _ssd.objectCache();
    if (cache.enabled() && inst.expectedByteOff == kUnpinned) {
        // First chunk pins the stream origin — now the raw range is
        // known and the cache can answer.
        inst.streamOrigin = byte_off;
        if (inst.declaredStreamBytes > 0) {
            const ssd::ObjectCache::Entry *hit =
                cache.lookup(cacheKeyFor(inst));
            if (hit != nullptr) {
                // Serve the parsed object straight from controller
                // DRAM: one pass through the DRAM port and out over
                // PCIe. No flash fetch, no ParseCost, no core slot.
                const sim::Tick buffered =
                    _ssd.dramTransfer(hit->payload.size(), start);
                sim::Tick dma = _ssd.fabric().dmaWriteData(
                    _ssd.port(), inst.dmaCursor, hit->payload.data(),
                    hit->payload.size(), buffered);
                bool dma_failed = false;
                dma = _ssd.retryOutboundDma(inst.dmaCursor,
                                            hit->payload.size(), dma,
                                            &dma_failed);
                obs::traceSpan({_ssd.trackPrefix(), "ssd.dma"},
                               "cache_hit", "ssd", start, dma,
                               {cmd.traceId, inst.tenant, inst.id,
                                hit->payload.size(), inst.coreId});
                inst.dmaCursor += hit->payload.size();
                _objectBytes += hit->payload.size();
                _delivered[inst.id] += hit->payload.size();
                inst.cacheServed = true;
                inst.cachedReturnValue = hit->returnValue;
                _cacheServed[inst.id] = true;
                inst.expectedByteOff = byte_off + valid;
                return {dma, nvme::Status::kSuccess, 0};
            }
        }
    }
    _rawBytesIn += valid;
    return mreadStaged(inst, cmd, byte_off, valid, start);
}

void
MorpheusDeviceRuntime::issueReadahead(Instance &inst,
                                      std::uint64_t byte_off,
                                      std::uint64_t len,
                                      sim::Tick earliest,
                                      obs::TraceId trace)
{
    const std::uint64_t capacity =
        _ssd.ftl().logicalPages() *
        static_cast<std::uint64_t>(_ssd.ftl().pageBytes());
    if (byte_off >= capacity)
        return;
    len = std::min(len, ssd::kReadaheadBufferBytes);
    len = std::min(len, capacity - byte_off);
    if (len == 0)
        return;
    Instance::Readahead ra;
    ra.fetch = _ssd.fetchToDram(byte_off, len, earliest);
    ra.media = ra.fetch.mediaError;
    ra.byteOff = byte_off;
    ra.len = len;
    ra.valid = true;
    obs::traceSpan({_ssd.trackPrefix(), "ssd.dram"}, "readahead", "ssd",
                   earliest, ra.fetch.allReady,
                   {trace, inst.tenant, inst.id, len, inst.coreId});
    inst.readahead = std::move(ra);
    ++_readaheadIssued;
}

nvme::CommandResult
MorpheusDeviceRuntime::mreadStaged(Instance &inst,
                                   const nvme::Command &cmd,
                                   std::uint64_t byte_off,
                                   std::uint64_t valid, sim::Tick start)
{
    // With the pipeline off the chunk is one sub-buffer, parsed once
    // its last page is buffered, with no prefetch and no merged
    // flushes.
    const bool pipelined = _ssd.config().pipeline.enabled;
    const std::uint32_t page_bytes = _ssd.ftl().pageBytes();
    const obs::SpanCtx ctx{cmd.traceId, inst.tenant, inst.id, valid,
                           inst.coreId};

    // Stage 1 — fetch. Each flash page is buffered in controller DRAM
    // as it lands. The readahead buffer satisfies the chunk when the
    // prefetch covered this exact origin cleanly; it is consumed
    // either way, and a poisoned or mismatched prefetch is discarded
    // (never fed to the parser) in favor of a fresh, fully charged
    // fetch — which keeps a host resubmission after any failure exact.
    Instance::Readahead ra = std::move(inst.readahead);
    inst.readahead = Instance::Readahead{};
    ssd::PagedFetch fetch;
    bool readahead_hit = false;
    if (ra.valid && !ra.media && ra.byteOff == byte_off &&
        ra.len >= valid) {
        fetch = std::move(ra.fetch);
        readahead_hit = true;
        ++_readaheadHits;
    } else {
        if (ra.valid) {
            if (ra.media)
                ++_readaheadMediaDiscards;
            else
                ++_readaheadDropped;
        }
        fetch = _ssd.fetchToDram(byte_off, valid, start);
    }
    const sim::Tick all_ready = std::max(start, fetch.allReady);
    if (fetch.mediaError) {
        // Uncorrectable flash page: the access time was charged but the
        // chunk never reaches the parser, so a host resubmission of the
        // same command is exact (read-retry recoverable). Pin the
        // stream cursor to this chunk so nothing can slip past it.
        inst.expectedByteOff = byte_off;
        obs::SpanCtx err = ctx;
        err.bytes = 0;
        err.status = static_cast<std::uint32_t>(nvme::Status::kMediaError);
        obs::traceInstant({_ssd.trackPrefix(), "ssd.firmware"},
                          "media_error", "ssd", all_ready, err);
        return {all_ready, nvme::Status::kMediaError, 0};
    }
    obs::traceSpan({_ssd.trackPrefix(), "ssd.dram"},
                   readahead_hit ? "fetch_readahead" : "fetch", "ssd",
                   start, all_ready, ctx);
    std::vector<std::uint8_t> chunk = _ssd.peekBytes(byte_off, valid);

    // Tick the sub-buffer ending at chunk-relative byte @p end_rel is
    // buffered in controller DRAM (pageReady is non-decreasing, so the
    // last covered page dominates). Readahead ticks may lie before the
    // command's arrival — the pages are simply already resident.
    const auto ready_at = [&](std::uint64_t end_rel) {
        const std::uint64_t page =
            (byte_off + end_rel - 1) / page_bytes - fetch.firstPage;
        return std::max(start, fetch.pageReady[page]);
    };

    // Stage 2 sizing — double-buffered parse. Sub-buffers are sized
    // from the instance's partitioned grant (two in-flight sub-buffers
    // plus the staging/carry share it, hence the quarter), so
    // parse(sub_i) starts at sub_i's last page arrival instead of the
    // chunk's. ParseCost is linear, so the per-sub-buffer deltas sum to
    // the single-buffer total and cost accounting is unchanged.
    ssd::EmbeddedCore &core = _ssd.core(inst.coreId);
    const std::uint32_t dsram =
        inst.dsramGranted ? inst.dsramGranted : core.config().dsramBytes;
    const std::uint64_t sub_bytes =
        pipelined ? std::max<std::uint64_t>(page_bytes, dsram / 4)
                  : valid;

    // App-fault injection: both streams are drawn every chunk so each
    // schedule depends only on its own event sequence, regardless of
    // which (if either) fires. A hang outranks a crash. Either one
    // strikes once the app is dispatched on its first sub-buffer.
    bool app_hang = false;
    bool app_crash = false;
    if (auto *fi = sim::faultInjector()) {
        app_hang = fi->appHang();
        app_crash = fi->appCrash();
    }
    if (app_hang) {
        // The app spins forever; the controller watchdog reclaims the
        // core at its deadline and force-kills the instance. No CQE is
        // posted (the host's command timeout covers discovery).
        auto *fi = sim::faultInjector();
        const sim::Tick dispatched = ready_at(std::min(sub_bytes, valid));
        const sim::Tick deadline =
            core.seize(dispatched, fi->plan().watchdogTicks);
        obs::SpanCtx hung = ctx;
        hung.bytes = 0;
        obs::traceSpan(core.timeline().name(), "hang", "ssd", dispatched,
                       deadline, hung);
        hung.core = obs::kNoCore;
        obs::traceInstant({_ssd.trackPrefix(), "ssd.firmware"},
                          "watchdog_kill", "ssd", deadline, hung);
        fi->noteWatchdogKill();
        watchdogKill(cmd.instanceId);
        return {deadline, nvme::Status::kAppFault, 0,
                /*dropped=*/true};
    }
    inst.expectedByteOff = byte_off + valid;

    sim::Tick parsed = start;
    sim::Tick dma_done = start;
    std::uint64_t pos = 0;
    while (pos < valid) {
        const std::uint64_t take = std::min(sub_bytes, valid - pos);
        std::vector<std::uint8_t> sub(
            chunk.begin() + static_cast<std::ptrdiff_t>(pos),
            chunk.begin() + static_cast<std::ptrdiff_t>(pos + take));
        // max(ready, parsed): the parse is a sequential stream, so
        // sub_i may not start before sub_{i-1} finished even when its
        // data landed earlier.
        const sim::Tick ready = std::max(ready_at(pos + take), parsed);
        inst.ctx->feedChunk(std::move(sub));
        inst.app->processChunk(*inst.ctx);
        if (app_crash) {
            // The app dies mid-parse of its first sub-buffer: drop the
            // partial staging and charge the aborted work to this
            // command once (same symmetry as the MWRITE refusal path),
            // then poison the instance so every later data command
            // bounces until the host reinstalls it.
            const serde::ParseCost aborted = inst.ctx->abortCommand();
            const sim::Tick done = core.execute(
                core.config().parseCycles(aborted) +
                    core.config().cyclesPerCommand,
                ready, "crash",
                {cmd.traceId, inst.tenant, inst.id, take});
            inst.poisoned = true;
            return {done, nvme::Status::kAppFault, 0};
        }
        const serde::ParseCost delta = inst.ctx->takeCostDelta();
        auto flushes = inst.ctx->takeFlushes();
        coalesceFlushes(flushes);
        const double cycles =
            core.config().parseCycles(delta) +
            (pos == 0 ? core.config().cyclesPerCommand : 0.0) +
            core.config().cyclesPerFlush *
                static_cast<double>(flushes.size());
        // A pushdown instance's core work is predicate/projection
        // evaluation, not a parse — name it so stage breakdowns
        // separate scan (core) from emit (flush_dma).
        parsed = core.execute(cycles, ready,
                              inst.pushdownDigest ? "scan" : "parse",
                              {cmd.traceId, inst.tenant, inst.id, take});
        // Stage 3 — sub_i's flush DMA proceeds while sub_{i+1}
        // parses; only the command completion waits for the last DMA.
        dma_done = std::max(dma_done,
                            drainFlushes(inst, std::move(flushes),
                                         parsed, cmd.traceId));
        ++_subBuffersParsed;
        pos += take;
    }
    ++inst.chunksProcessed;

    // Prefetch the next chunk's pages. Issued at this command's start:
    // the die/channel timelines queue the prefetch behind this chunk's
    // own reads wherever they contend, so it streams in under the
    // parse that is still running and never delays data a deeper queue
    // would have fetched on its own.
    if (pipelined)
        issueReadahead(inst, byte_off + valid, valid, start, cmd.traceId);
    return {std::max(parsed, dma_done), nvme::Status::kSuccess, 0};
}

nvme::CommandResult
MorpheusDeviceRuntime::doMWrite(const nvme::Command &cmd, sim::Tick start)
{
    ++_mwrites;
    const auto it = _instances.find(cmd.instanceId);
    if (it == _instances.end())
        return {start, nvme::Status::kNoSuchInstance, 0};
    Instance &inst = it->second;
    if (inst.poisoned)
        return {start, nvme::Status::kAppFault, 0};

    const std::uint64_t valid =
        cmd.cdw13 ? cmd.cdw13 : cmd.dataBytes();

    // A serializing stream is not a pure parse of a flash range: its
    // MDEINIT return value and delivered bytes don't describe a
    // replayable object, so the instance drops out of cache candidacy.
    inst.cacheable = false;
    inst.cachePayload.clear();

    // Binary objects arrive from the host (prp1); the app serializes
    // them to text, which lands on flash at slba.
    std::vector<std::uint8_t> data(valid);
    const sim::Tick fetched = _ssd.fabric().dmaReadData(
        _ssd.port(), cmd.prp1, data.data(), valid, start);
    if (_ssd.fabric().consumeDmaFault()) {
        // The inbound payload was corrupted in flight: fail before the
        // app sees any byte so the host's resubmission is exact.
        return {fetched, nvme::Status::kTransientTransferError, 0};
    }

    ssd::EmbeddedCore &core = _ssd.core(inst.coreId);
    const std::uint64_t emitted_before = inst.ctx->bytesEmitted();
    inst.ctx->feedChunk(std::move(data));
    if (!inst.app->processWriteChunk(*inst.ctx)) {
        // The app refused the payload. Drop the partial output and
        // charge the aborted parse work to THIS command, so neither
        // the stale staging nor the cost bleeds into the next one.
        const serde::ParseCost aborted = inst.ctx->abortCommand();
        const sim::Tick done = core.execute(
            core.config().parseCycles(aborted) +
                core.config().cyclesPerCommand,
            fetched);
        return {done, nvme::Status::kInvalidField, 0};
    }

    const serde::ParseCost delta = inst.ctx->takeCostDelta();
    // Serialization cost: symmetric model — emitting text costs what
    // scanning it would, plus per-value conversion. Charge only the
    // bytes this command emitted, not the cumulative stream total.
    const std::uint64_t emitted =
        inst.ctx->bytesEmitted() - emitted_before;
    const double cycles =
        core.config().parseCycles(delta) +
        static_cast<double>(emitted) *
            core.config().cyclesPerByteScan * 0.5 +
        core.config().cyclesPerCommand;
    const sim::Tick serialized =
        core.execute(cycles, fetched, "serialize",
                     {cmd.traceId, inst.tenant, inst.id, valid});

    // Serialized text lands on flash at the command's SLBA; successive
    // MWRITEs to the same region append behind it. The cursor is keyed
    // to the region's base SLBA (a new SLBA starts a new region) —
    // never to the MREAD DMA cursor, which tracks host-memory deliveries
    // and would skew the flash destination after any mixed stream.
    if (!inst.writeRegionOpen || inst.writeSlba != cmd.slba) {
        inst.writeRegionOpen = true;
        inst.writeSlba = cmd.slba;
        inst.writeCursor = 0;
    }
    inst.ctx->flushResidual();
    sim::Tick done = serialized;
    auto segments = inst.ctx->takeFlushes();
    // Stage 3 for the write path: successive segments land behind each
    // other on flash (the region cursor advances segment by segment),
    // so merging them saves the page read-modify-write at every seam.
    coalesceFlushes(segments);
    const std::uint64_t landed_begin =
        inst.writeSlba * nvme::kBlockBytes + inst.writeCursor;
    for (auto &seg : segments) {
        const std::uint64_t dst =
            inst.writeSlba * nvme::kBlockBytes + inst.writeCursor;
        done = _ssd.storeFromDram(dst, seg, done);
        inst.writeCursor += seg.size();
        _objectBytes += seg.size();
        _delivered[inst.id] += seg.size();
    }
    // The serialized text overwrote raw bytes: cached objects parsed
    // from any overlapping range are stale. End-exclusive — an MWRITE
    // that merely touches a cached range leaves it alone.
    if (_ssd.objectCache().enabled()) {
        const std::uint64_t landed_end =
            inst.writeSlba * nvme::kBlockBytes + inst.writeCursor;
        _ssd.objectCache().invalidateRange(cmd.nsid, landed_begin,
                                           landed_end);
    }
    return {done, nvme::Status::kSuccess, 0};
}

nvme::CommandResult
MorpheusDeviceRuntime::doMDeinit(const nvme::Command &cmd,
                                 sim::Tick start)
{
    ++_mdeinits;
    const auto it = _instances.find(cmd.instanceId);
    if (it == _instances.end())
        return {start, nvme::Status::kNoSuchInstance, 0};
    Instance &inst = it->second;

    if (inst.poisoned) {
        // The app crashed earlier: skip its finish hooks (they would
        // run over corrupt state) and just tear the instance down so
        // the scheduler frees the slot and the host can reinstall.
        ssd::EmbeddedCore &core = _ssd.core(inst.coreId);
        const sim::Tick done = core.execute(
            core.config().cyclesPerCommand, start, "teardown",
            {cmd.traceId, inst.tenant, inst.id, 0});
        teardown(it);
        return {done, nvme::Status::kSuccess, 0};
    }

    if (inst.cacheServed) {
        // The object was replayed from the cache: the app never saw a
        // byte, so its finish hooks have nothing to run over. Teardown
        // is pure firmware work — no embedded-core occupancy — and the
        // completion carries the return value cached with the object.
        const std::uint32_t rv = inst.cachedReturnValue;
        teardown(it);
        return {start + 1 * sim::kPsPerUs, nvme::Status::kSuccess, rv};
    }

    // The stream is over: let the app consume any carried final token,
    // then run its finish hook and flush the residual staging.
    inst.ctx->signalEndOfStream();
    inst.app->processChunk(*inst.ctx);
    inst.app->finish(*inst.ctx);
    inst.ctx->flushResidual();

    ssd::EmbeddedCore &core = _ssd.core(inst.coreId);
    const serde::ParseCost delta = inst.ctx->takeCostDelta();
    auto flushes = inst.ctx->takeFlushes();
    coalesceFlushes(flushes);
    const sim::Tick parsed = core.execute(
        core.config().parseCycles(delta) +
            core.config().cyclesPerCommand +
            core.config().cyclesPerFlush *
                static_cast<double>(flushes.size()),
        start, "final_parse",
        {cmd.traceId, inst.tenant, inst.id, 0});
    const sim::Tick done =
        drainFlushes(inst, std::move(flushes), parsed, cmd.traceId);

    const std::uint32_t rv = inst.app->returnValue();

    // Populate the cache: only a clean stream that covered the whole
    // declared range, exactly once, end to end. Crashed (poisoned),
    // watchdog-killed, serializing (MWRITE), or short streams never
    // insert — a partial object must not be replayable.
    ssd::ObjectCache &cache = _ssd.objectCache();
    constexpr std::uint64_t kUnpinned = ~std::uint64_t{0};
    if (cache.enabled() && inst.cacheable &&
        inst.streamOrigin != kUnpinned && inst.declaredStreamBytes > 0 &&
        inst.expectedByteOff ==
            inst.streamOrigin + inst.declaredStreamBytes) {
        cache.insert(cacheKeyFor(inst), std::move(inst.cachePayload),
                     rv);
    }
    teardown(it);
    return {done, nvme::Status::kSuccess, rv};
}

void
MorpheusDeviceRuntime::teardown(
    std::unordered_map<std::uint32_t, Instance>::iterator it)
{
    const Instance &inst = it->second;
    ssd::EmbeddedCore &core = _ssd.core(inst.coreId);
    core.unloadImage(inst.codeBytes);
    if (inst.dsramGranted)
        core.releaseDsram(inst.dsramGranted);
    _instances.erase(it);
}

void
MorpheusDeviceRuntime::watchdogKill(std::uint32_t instance_id)
{
    const auto it = _instances.find(instance_id);
    if (it == _instances.end())
        return;
    teardown(it);
    // The instance never reaches MDEINIT, so reclaim its scheduler
    // slot and placement here; the host's reinstall starts clean.
    _ssd.scheduler().arbiter().dropInstance(instance_id);
    _ssd.scheduler().dispatcher().releaseInstance(instance_id);
}

void
MorpheusDeviceRuntime::writeStats(obs::MetricsRegistry &reg,
                                  const std::string &prefix) const
{
    reg.insertCounter(prefix + ".minits", _minits.value());
    reg.insertCounter(prefix + ".mreads", _mreads.value());
    reg.insertCounter(prefix + ".mwrites", _mwrites.value());
    reg.insertCounter(prefix + ".mdeinits", _mdeinits.value());
    reg.insertCounter(prefix + ".objectBytesOut", _objectBytes.value());
    reg.insertCounter(prefix + ".rawBytesIn", _rawBytesIn.value());
    reg.insertCounter(prefix + ".pipeline.readaheadIssued",
                      _readaheadIssued.value());
    reg.insertCounter(prefix + ".pipeline.readaheadHits",
                      _readaheadHits.value());
    reg.insertCounter(prefix + ".pipeline.readaheadMediaDiscards",
                      _readaheadMediaDiscards.value());
    reg.insertCounter(prefix + ".pipeline.readaheadDropped",
                      _readaheadDropped.value());
    reg.insertCounter(prefix + ".pipeline.subBuffersParsed",
                      _subBuffersParsed.value());
    reg.insertCounter(prefix + ".pipeline.flushSegmentsCoalesced",
                      _flushSegmentsCoalesced.value());
    _ssd.objectCache().writeStats(reg, prefix + ".cache");
}

}  // namespace morpheus::core
