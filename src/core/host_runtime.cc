#include "core/host_runtime.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "serde/columnar.hh"
#include "sim/logging.hh"

namespace morpheus::core {

namespace {

/**
 * Collects the trace ids a session's driver interactions consume: the
 * sim is single-threaded, so every id in [nextTraceId() at entry,
 * nextTraceId() at exit) was stamped on this session's commands —
 * including driver-internal retries. The destructor runs at every
 * return point. No-op (and container-free) without a sink, preserving
 * the zero-cost-when-disabled guarantee.
 */
class TraceIdScope
{
  public:
    TraceIdScope(const nvme::NvmeDriver &driver, InvokeSession &session)
        : _driver(driver), _session(session),
          _enabled(obs::traceSink() != nullptr),
          _first(_enabled ? driver.nextTraceId() : 0)
    {
    }

    ~TraceIdScope()
    {
        if (!_enabled)
            return;
        for (obs::TraceId id = _first; id != _driver.nextTraceId(); ++id)
            _session.traceIds.push_back(id);
    }

    TraceIdScope(const TraceIdScope &) = delete;
    TraceIdScope &operator=(const TraceIdScope &) = delete;

  private:
    const nvme::NvmeDriver &_driver;
    InvokeSession &_session;
    bool _enabled;
    obs::TraceId _first;
};

}  // namespace

MorpheusRuntime::MorpheusRuntime(host::HostSystem &sys,
                                 MorpheusDeviceRuntime &device,
                                 NvmeP2p &p2p, unsigned ssd_device)
    : _sys(sys), _device(device), _p2p(p2p), _ssdDevice(ssd_device)
{
}

MsStream
MorpheusRuntime::streamCreate(const host::FileExtent &extent,
                              sim::Tick now, unsigned host_core)
{
    // Permission check + extent/block-map lookup: two syscalls' worth
    // of host OS work (open + fiemap-style query).
    sim::Tick t = _sys.os().syscall(host_core, now);
    t = _sys.os().syscall(host_core, t);
    return MsStream{extent, t};
}

DmaTarget
MorpheusRuntime::hostTarget(std::uint64_t bytes)
{
    return DmaTarget{_sys.allocHost(bytes), false};
}

DmaTarget
MorpheusRuntime::gpuTarget(std::uint64_t bytes, std::uint64_t *dev_addr)
{
    const std::uint64_t dev = _sys.gpu().alloc(bytes);
    if (dev_addr)
        *dev_addr = dev;
    return DmaTarget{_p2p.busAddrFor(dev), true};
}

InvokeSession
MorpheusRuntime::beginInvoke(const StorageAppImage &image,
                             const MsStream &stream,
                             const DmaTarget &target, sim::Tick now,
                             const InvokeOptions &opts)
{
    // Bracket the impl with the driver's trace-id counter: RAII on the
    // local session would race NRVO (the ids could land in a moved-from
    // object), so the wrapper collects explicitly on the returned one.
    const nvme::NvmeDriver &driver = _sys.nvmeDriver(_ssdDevice);
    const bool traced = obs::traceSink() != nullptr;
    const obs::TraceId first = traced ? driver.nextTraceId() : 0;
    InvokeSession s = beginInvokeImpl(image, stream, target, now, opts);
    if (traced) {
        for (obs::TraceId id = first; id != driver.nextTraceId(); ++id)
            s.traceIds.push_back(id);
    }
    return s;
}

InvokeSession
MorpheusRuntime::beginInvokeImpl(const StorageAppImage &image,
                                 const MsStream &stream,
                                 const DmaTarget &target, sim::Tick now,
                                 const InvokeOptions &opts)
{
    nvme::NvmeDriver &driver = _sys.nvmeDriver(_ssdDevice);
    const unsigned core = opts.hostCore;

    InvokeSession s;
    s.image = &image;
    s.stream = stream;
    s.target = target;
    s.opts = opts;
    // NVMe convention: each host core drives its own queue pair, so
    // concurrent StorageApp instances never serialize on one SQ.
    s.qid = _sys.ioQueue(_ssdDevice, core);
    s.result.start = std::max(now, stream.readyAt);
    s.now = s.result.start;

    // --- MINIT -------------------------------------------------------
    s.instance = _nextInstance++;
    InstanceSetup setup;
    setup.image = &image;
    setup.target = target;
    setup.arg = opts.arg;
    setup.flushThreshold = opts.flushThreshold;
    setup.dsramBytes = opts.dsramBytes;
    setup.pushdown = opts.pushdown;
    _device.stageInstance(s.instance, setup);

    // The host buffer the device fetches the code image from, with a
    // pushdown descriptor behind it. The fetch is timing-only (the
    // program itself reaches firmware through the staged setup), so
    // only the buffer's size matters and no bytes are written.
    const std::uint64_t image_buf_bytes =
        image.textBytes + opts.pushdown.size() * 4;
    const pcie::Addr image_addr = _sys.allocHost(image_buf_bytes);

    s.now = _sys.os().syscall(core, s.now);  // ioctl into the driver
    nvme::Command minit;
    minit.opcode = nvme::Opcode::kMInit;
    minit.instanceId = s.instance;
    minit.prp1 = image_addr;
    // Declare the stream length so the device front end sees the
    // tenant's queued work (SLBA is unused by MINIT proper).
    minit.slba = stream.extent.sizeBytes;
    minit.cdw13 = image.textBytes;
    minit.cdw14 = opts.arg;
    minit.cdw15 = opts.tenantId;
    // Requested per-instance D-SRAM budget rides in PRP2's low dword
    // (MINIT has no second data pointer). A pushdown descriptor adds
    // its dword count in NLB and its digest in PRP2's high dword.
    minit.prp2 = opts.dsramBytes;
    if (!opts.pushdown.empty()) {
        minit.nlb =
            static_cast<std::uint16_t>(opts.pushdown.size());
        minit.prp2 |=
            std::uint64_t(serde::pushdownDigest(opts.pushdown)) << 32;
    }
    nvme::Completion minit_cqe = driver.io(s.qid, minit, s.now);
    if (driver.recovery().enabled) {
        // Transient image-fetch corruption is retryable, but the
        // device consumed the staged setup on the failed attempt:
        // re-stage before each bounded resubmission.
        for (unsigned attempt = 0;
             minit_cqe.status ==
                 nvme::Status::kTransientTransferError &&
             attempt < driver.recovery().maxRetries;
             ++attempt) {
            _device.stageInstance(s.instance, setup);
            driver.noteRetry();
            const sim::Tick at =
                minit_cqe.postedAt + driver.backoffDelay(attempt);
            minit_cqe = driver.io(s.qid, minit, at);
        }
    }
    // The MINIT has settled (no further fetch of the image): the
    // buffer goes back to the host allocator on every path below.
    _sys.freeHost(image_addr, image_buf_bytes);
    s.minitStatus = minit_cqe.status;
    if (s.minitStatus == nvme::Status::kInstanceBusy ||
        s.minitStatus == nvme::Status::kDsramExhausted) {
        // Bounced before the instance came up: the device-wide
        // admission cap (front end), or no I-SRAM or D-SRAM room on
        // the core (engine). All of them clear as resident instances
        // finish, so discard the staged setup and let the caller begin
        // again later.
        _device.unstageInstance(s.instance);
        s.retryAfterUs = minit_cqe.dw0;
        s.result.accepted = false;
        s.result.done = std::max(s.now, minit_cqe.postedAt);
        return s;
    }
    if (!minit_cqe.ok()) {
        MORPHEUS_ASSERT(driver.recovery().enabled,
                        "MINIT failed: status=",
                        nvme::statusName(minit_cqe.status));
        // Retry budget exhausted, or the MINIT's CQE was lost. The
        // device may or may not have installed the instance; a
        // best-effort MDEINIT reclaims it either way (kNoSuchInstance
        // when it never came up) before reporting the refusal.
        _device.unstageInstance(s.instance);
        nvme::Command mdeinit;
        mdeinit.opcode = nvme::Opcode::kMDeinit;
        mdeinit.instanceId = s.instance;
        const nvme::Completion cleanup = driver.io(
            s.qid, mdeinit, std::max(s.now, minit_cqe.postedAt));
        s.failed = true;
        s.failStatus = s.minitStatus;
        s.result.accepted = false;
        s.result.failed = true;
        s.result.done = std::max(s.now, cleanup.postedAt);
        return s;
    }
    s.accepted = true;
    s.now = std::max(s.now, minit_cqe.postedAt);

    // --- MREAD stream setup ------------------------------------------
    const std::uint32_t mdts = driver.maxTransferBlocks();
    const std::uint32_t chunk_blocks =
        opts.chunkBlocks == 0 ? mdts : std::min(opts.chunkBlocks, mdts);
    s.chunkBytes = std::uint64_t(chunk_blocks) * nvme::kBlockBytes;
    s.fileStartBlock = stream.extent.startByte / nvme::kBlockBytes;
    // Batch submissions up to the queue depth, ring once per batch,
    // and sleep until the whole batch completes.
    s.depth =
        _sys.config().queueEntries > 1
            ? static_cast<std::uint16_t>(_sys.config().queueEntries - 1)
            : 1;
    return s;
}

sim::Tick
MorpheusRuntime::stepInvoke(InvokeSession &s)
{
    MORPHEUS_ASSERT(s.accepted, "stepInvoke on a refused session");
    MORPHEUS_ASSERT(!s.failed, "stepInvoke on a failed session");
    MORPHEUS_ASSERT(!s.streamDone(), "stepInvoke past the stream end");
    nvme::NvmeDriver &driver = _sys.nvmeDriver(_ssdDevice);
    const TraceIdScope trace_scope(driver, s);
    const bool recover = driver.recovery().enabled;

    std::vector<std::pair<nvme::Command, nvme::Submitted>> batch;
    while (!s.streamDone() && batch.size() < s.depth) {
        const std::uint64_t valid = std::min<std::uint64_t>(
            s.chunkBytes, s.stream.extent.sizeBytes - s.offset);
        const std::uint64_t blocks =
            (valid + nvme::kBlockBytes - 1) / nvme::kBlockBytes;
        nvme::Command cmd;
        if (s.opts.serialize) {
            // MWRITE: binary values flow host -> device; successive
            // chunks append behind the region's base SLBA device-side.
            cmd.opcode = nvme::Opcode::kMWrite;
            cmd.instanceId = s.instance;
            cmd.slba = s.opts.writeDstByte / nvme::kBlockBytes;
            cmd.nlb = static_cast<std::uint16_t>(blocks - 1);
            cmd.cdw13 = static_cast<std::uint32_t>(valid);
            cmd.prp1 = s.opts.writeSrc + s.offset;
        } else {
            cmd.opcode = nvme::Opcode::kMRead;
            cmd.instanceId = s.instance;
            cmd.slba = s.fileStartBlock + s.offset / nvme::kBlockBytes;
            cmd.nlb = static_cast<std::uint16_t>(blocks - 1);
            cmd.cdw13 = static_cast<std::uint32_t>(valid);
            cmd.prp1 = s.target.addr;  // informational; cursor advances
        }
        batch.emplace_back(cmd, driver.submit(s.qid, cmd));
        s.offset += valid;
        ++s.result.mreadCommands;
    }
    driver.ring(s.qid, s.now);
    // The host thread blocks once per batch (Fig 10: the Morpheus
    // path context-switches per *stream*, not per chunk).
    sim::Tick batch_done = s.now;
    for (const auto &[cmd, token] : batch) {
        nvme::Completion cqe = driver.wait(token);
        if (!cqe.ok() && recover && nvme::isRetryable(cqe.status)) {
            // Retryable chunk failure (media error, transient DMA,
            // busy bounce): the device saw none of its effects, so a
            // resubmission is exact. ioRetry applies the retry-after
            // hint or jittered backoff per attempt.
            driver.noteRetry();
            cqe = driver.ioRetry(s.qid, cmd,
                                 std::max(s.now, cqe.postedAt));
        }
        if (!cqe.ok()) {
            MORPHEUS_ASSERT(recover, "MREAD failed: status=",
                            nvme::statusName(cqe.status));
            // Fatal (app fault, timeout) or retry budget exhausted:
            // mark the session dead but keep draining the batch so
            // the queue is clean for abortInvoke's MDEINIT.
            s.failed = true;
            s.failStatus = cqe.status;
        }
        batch_done = std::max(batch_done, cqe.postedAt);
    }
    s.now = _sys.os().blockingWait(s.opts.hostCore, batch_done);
    ++s.result.hostWakeups;
    return s.now;
}

InvokeResult
MorpheusRuntime::finishInvoke(InvokeSession &s)
{
    MORPHEUS_ASSERT(s.accepted, "finishInvoke on a refused session");
    nvme::NvmeDriver &driver = _sys.nvmeDriver(_ssdDevice);
    const TraceIdScope trace_scope(driver, s);

    nvme::Command mdeinit;
    mdeinit.opcode = nvme::Opcode::kMDeinit;
    mdeinit.instanceId = s.instance;
    const nvme::Completion fin = driver.io(s.qid, mdeinit, s.now);
    if (!fin.ok()) {
        // With recovery, a lost MDEINIT CQE (the teardown itself ran
        // device-side) degrades the invocation: the return value is
        // unrecoverable even though the object bytes landed.
        MORPHEUS_ASSERT(driver.recovery().enabled,
                        "MDEINIT failed: status=",
                        nvme::statusName(fin.status));
        s.failed = true;
        s.failStatus = fin.status;
        s.result.failed = true;
    }
    s.result.returnValue = fin.ok() ? fin.dw0 : 0;
    s.now = std::max(s.now, fin.postedAt);

    // Make the DMA buffer visible to the application (driver unmap +
    // cache maintenance): one syscall, no per-page copying.
    s.now = _sys.os().syscall(s.opts.hostCore, s.now);

    s.result.done = s.now;
    s.result.objectBytes = _device.takeDeliveredBytes(s.instance);
    s.result.servedFromCache = _device.takeServedFromCache(s.instance);
    return s.result;
}

InvokeResult
MorpheusRuntime::abortInvoke(InvokeSession &s)
{
    nvme::NvmeDriver &driver = _sys.nvmeDriver(_ssdDevice);
    const TraceIdScope trace_scope(driver, s);
    // Best-effort reclaim: a watchdog-killed instance answers
    // kNoSuchInstance (already freed device-side), a poisoned one runs
    // the hook-skipping teardown; either way the slot comes back.
    nvme::Command mdeinit;
    mdeinit.opcode = nvme::Opcode::kMDeinit;
    mdeinit.instanceId = s.instance;
    const nvme::Completion fin = driver.io(s.qid, mdeinit, s.now);
    s.now = std::max(s.now, fin.postedAt);
    s.result.failed = true;
    s.result.done = s.now;
    s.result.objectBytes = _device.takeDeliveredBytes(s.instance);
    s.result.servedFromCache = _device.takeServedFromCache(s.instance);
    return s.result;
}

InvokeResult
MorpheusRuntime::invoke(const StorageAppImage &image,
                        const MsStream &stream, const DmaTarget &target,
                        sim::Tick now, const InvokeOptions &opts)
{
    InvokeSession s = beginInvoke(image, stream, target, now, opts);
    if (!s.accepted)
        return s.result;
    while (!s.streamDone() && !s.failed)
        stepInvoke(s);
    if (s.failed)
        return abortInvoke(s);
    return finishInvoke(s);
}

}  // namespace morpheus::core
