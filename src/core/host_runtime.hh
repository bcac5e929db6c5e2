/**
 * @file
 * Host-side Morpheus runtime (paper §V).
 *
 * What the compiler-inserted stubs + runtime system do at a StorageApp
 * call site:
 *  1. ms_stream_create: file permission check and block-list lookup in
 *     the host OS (the device never runs file-system code);
 *  2. MINIT with a fresh instance ID and the app's code image;
 *  3. a stream of MREAD commands chunked to the NVMe transfer limit,
 *     batched to the queue depth so the host thread sleeps instead of
 *     baby-sitting each command (this is where the context-switch
 *     savings of Fig 10 come from);
 *  4. MDEINIT, whose completion carries the StorageApp return value;
 *  5. making the DMAed object buffer visible to the application.
 *
 * When the target is GPU memory the runtime asks NvmeP2p for the BAR
 * mapping and the same MREADs deliver objects peer-to-peer.
 */

#ifndef MORPHEUS_CORE_HOST_RUNTIME_HH
#define MORPHEUS_CORE_HOST_RUNTIME_HH

#include <cstdint>
#include <vector>

#include "core/device_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/storage_app.hh"
#include "host/host_system.hh"
#include "obs/trace.hh"

namespace morpheus::core {

/** Host-side view of an open Morpheus stream (ms_stream). */
struct MsStream
{
    host::FileExtent extent;
    /** Tick when ms_stream_create's OS work finished. */
    sim::Tick readyAt = 0;
};

/** Knobs for one invocation. */
struct InvokeOptions
{
    /** MREAD chunk size in 512 B blocks; 0 = the controller's MDTS. */
    std::uint32_t chunkBlocks = 0;
    /** Host core that owns the calling thread. */
    unsigned hostCore = 0;
    /** Argument word passed to the StorageApp. */
    std::uint32_t arg = 0;
    /** Staging flush threshold override (0 = D-SRAM / 4). */
    std::uint32_t flushThreshold = 0;
    /** Tenant the invocation bills to (MINIT cdw15). */
    std::uint32_t tenantId = 0;
    /**
     * Requested per-instance D-SRAM budget (MINIT PRP2 low dword).
     * Only meaningful with SchedConfig::dsramPartitioning; 0 = the
     * core's default equal share.
     */
    std::uint32_t dsramBytes = 0;
    /**
     * Pushdown descriptor dwords (serde::ScanSpec::encode()). When
     * non-empty, MINIT carries the dword count in NLB, the descriptor
     * digest in PRP2's high dword, and the descriptor bytes behind the
     * code image in the PRP1 fetch. Empty = no pushdown (default, and
     * bit-identical to the pre-pushdown wire encoding).
     */
    std::vector<std::uint32_t> pushdown;
    /**
     * MWRITE (on-device serialization) session: stepInvoke streams the
     * host buffer at @p writeSrc through MWRITE commands landing at
     * flash byte @p writeDstByte, instead of MREADs. The session's
     * stream extent declares the source buffer length.
     */
    bool serialize = false;
    pcie::Addr writeSrc = 0;
    std::uint64_t writeDstByte = 0;
};

/** Measured outcome of one StorageApp invocation. */
struct InvokeResult
{
    sim::Tick start = 0;
    sim::Tick done = 0;
    std::uint32_t returnValue = 0;
    std::uint64_t objectBytes = 0;   ///< DMAed to the target.
    std::uint64_t mreadCommands = 0;
    std::uint64_t hostWakeups = 0;   ///< Blocking waits by the host.
    /** The stream was answered by the device's object cache: the
     *  parsed object was replayed from controller DRAM, no flash
     *  fetch or ParseCost was paid. */
    bool servedFromCache = false;
    /** False when the scheduler front end refused the MINIT. */
    bool accepted = true;
    /** The invocation died mid-stream on a device fault the driver's
     *  recovery budget could not absorb (only with recovery enabled;
     *  otherwise faults assert). Delivered bytes may be partial. */
    bool failed = false;

    sim::Tick elapsed() const { return done - start; }
};

/**
 * One in-flight invocation, advanced by the caller (the building block
 * invoke() and the open-loop serving driver both use). A session walks
 * MINIT -> MREAD batches -> MDEINIT; between steps the host thread is
 * free, which is what lets a serving driver interleave many tenants'
 * streams over one device.
 */
struct InvokeSession
{
    const StorageAppImage *image = nullptr;
    MsStream stream;
    DmaTarget target;
    InvokeOptions opts;

    std::uint32_t instance = 0;
    std::uint16_t qid = 0;
    /** MINIT completion status (admission refusals land here). */
    nvme::Status minitStatus = nvme::Status::kSuccess;
    /** MINIT succeeded; the stream may proceed. Refused and not
     *  failed = bounced (admission cap, I-SRAM or D-SRAM full): begin
     *  again later. */
    bool accepted = false;
    /** NVMe-style retry-after hint from the refusing completion's DW0
     *  (microseconds, derived from the arbiter's backlog); 0 = no hint,
     *  wait for a completion instead. */
    std::uint32_t retryAfterUs = 0;
    /** A data command failed fatally (retry budget exhausted, app
     *  fault, or command timeout): the stream cannot continue and
     *  abortInvoke() must reclaim the instance. */
    bool failed = false;
    /** Status that killed the stream (kSuccess while healthy). */
    nvme::Status failStatus = nvme::Status::kSuccess;

    /** Trace ids of every command this session submitted — MINIT,
     *  MREADs, MDEINIT, including retries. Populated only while a
     *  trace sink is attached (empty otherwise), for flight-recorder
     *  collection and critical-path attribution. */
    std::vector<obs::TraceId> traceIds;

    std::uint64_t offset = 0;      ///< Next stream byte to issue.
    std::uint64_t chunkBytes = 0;
    std::uint64_t fileStartBlock = 0;
    std::uint16_t depth = 1;       ///< MREADs rung per batch.
    sim::Tick now = 0;             ///< The host thread's clock.
    InvokeResult result;

    /** All MREADs issued (finishInvoke may run). */
    bool
    streamDone() const
    {
        return offset >= stream.extent.sizeBytes;
    }
};

/** The runtime the compiled host binary links against. */
class MorpheusRuntime
{
  public:
    /** @p ssd_device selects which fleet SSD this runtime drives (its
     *  driver, queue pairs, and device runtime must match); 0 is the
     *  classic single-device platform. */
    MorpheusRuntime(host::HostSystem &sys,
                    MorpheusDeviceRuntime &device, NvmeP2p &p2p,
                    unsigned ssd_device = 0);

    /**
     * ms_stream_create: permission check + block-map lookup through
     * the host OS. @return the stream; its readyAt reflects the OS
     * time charged on @p host_core.
     */
    MsStream streamCreate(const host::FileExtent &extent, sim::Tick now,
                          unsigned host_core = 0);

    /**
     * Invoke @p image over @p stream, delivering objects to
     * @p target. Synchronous from the calling host thread's view: the
     * thread sleeps while the device works.
     */
    InvokeResult invoke(const StorageAppImage &image,
                        const MsStream &stream, const DmaTarget &target,
                        sim::Tick now, const InvokeOptions &opts = {});

    /**
     * Start an invocation: stage the instance and issue MINIT. Check
     * session.accepted — a bounce (admission cap, full I-SRAM or
     * D-SRAM) comes back with accepted=false and may be begun again
     * later; with driver recovery on, an exhausted MINIT comes back
     * failed. An image larger than the I-SRAM asserts, as with
     * invoke().
     */
    InvokeSession beginInvoke(const StorageAppImage &image,
                              const MsStream &stream,
                              const DmaTarget &target, sim::Tick now,
                              const InvokeOptions &opts = {});

    /**
     * Issue the next MREAD batch and sleep until it completes.
     * @return the host thread's wakeup tick.
     */
    sim::Tick stepInvoke(InvokeSession &session);

    /** MDEINIT + buffer handoff; @return the filled result. */
    InvokeResult finishInvoke(InvokeSession &session);

    /**
     * Best-effort teardown of a failed session: MDEINIT the instance
     * (tolerating kNoSuchInstance when the device watchdog already
     * killed it) and return the result with failed set. The caller
     * decides whether to fall back to the host path.
     */
    InvokeResult abortInvoke(InvokeSession &session);

    /** Allocate a host DMA buffer and return a host-memory target. */
    DmaTarget hostTarget(std::uint64_t bytes);

    /**
     * Allocate GPU device memory and return a P2P target (maps the GPU
     * BAR on first use).
     */
    DmaTarget gpuTarget(std::uint64_t bytes,
                        std::uint64_t *dev_addr = nullptr);

    /** Instance IDs handed out so far. */
    std::uint32_t instancesIssued() const { return _nextInstance; }

  private:
    /** beginInvoke body; the public wrapper collects trace ids. */
    InvokeSession beginInvokeImpl(const StorageAppImage &image,
                                  const MsStream &stream,
                                  const DmaTarget &target, sim::Tick now,
                                  const InvokeOptions &opts);

    host::HostSystem &_sys;
    MorpheusDeviceRuntime &_device;
    NvmeP2p &_p2p;
    /** Fleet SSD index this runtime's commands go to. */
    unsigned _ssdDevice = 0;
    std::uint32_t _nextInstance = 1;
};

}  // namespace morpheus::core

#endif  // MORPHEUS_CORE_HOST_RUNTIME_HH
