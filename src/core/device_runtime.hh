/**
 * @file
 * Device-side Morpheus runtime: the firmware that executes the four
 * extension commands on the SSD (paper §IV-B).
 *
 * Implements ssd::MorpheusEngine. Keeps a per-instance table (the
 * instance ID distinguishes host threads), maps each instance to one
 * embedded core, charges parse work to that core's timeline using the
 * embedded cost model, and DMAs staged objects to the instance's
 * target (host memory, or GPU memory through NVMe-P2P).
 */

#ifndef MORPHEUS_CORE_DEVICE_RUNTIME_HH
#define MORPHEUS_CORE_DEVICE_RUNTIME_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/storage_app.hh"
#include "obs/trace.hh"
#include "sim/stats.hh"
#include "ssd/ssd_controller.hh"

namespace morpheus::core {

/** Runtime options for one StorageApp instance. */
struct InstanceSetup
{
    const StorageAppImage *image = nullptr;
    DmaTarget target;
    std::uint32_t arg = 0;
    /** Staging flush threshold (0 = default: granted D-SRAM / 4). */
    std::uint32_t flushThreshold = 0;
    /**
     * Requested per-instance D-SRAM budget in bytes; also carried
     * in-band by MINIT (PRP2 low dword). Meaningful only with
     * SchedConfig::dsramPartitioning; 0 = the core's default share
     * (dsramBytes / sched::kMaxInstancesPerCore).
     */
    std::uint32_t dsramBytes = 0;
    /**
     * Pushdown descriptor dwords (DESIGN.md §16): the projection mask
     * + predicate program a scan applet executes. Functionally staged
     * like the code image; MINIT carries the dword count (NLB) and the
     * descriptor digest (PRP2 high dword) in-band, and the descriptor
     * bytes ride the PRP1 image fetch. Empty = no pushdown.
     */
    std::vector<std::uint32_t> pushdown;
};

/** The Morpheus command engine inside the SSD. */
class MorpheusDeviceRuntime : public ssd::MorpheusEngine
{
  public:
    explicit MorpheusDeviceRuntime(ssd::SsdController &ssd);

    /**
     * Functional side channel standing in for the code image the MINIT
     * command DMAs in: the host runtime stages the factory + target
     * here immediately before issuing MINIT with the same instance ID.
     */
    void stageInstance(std::uint32_t instance_id,
                       const InstanceSetup &setup);

    /** Drop a staged setup whose MINIT was refused by the scheduler
     *  front end (the engine never saw the command). */
    void unstageInstance(std::uint32_t instance_id);

    // ssd::MorpheusEngine
    nvme::CommandResult execute(const nvme::Command &cmd,
                                sim::Tick start) override;

    /** Bytes of application objects DMAed out so far. */
    std::uint64_t objectBytesOut() const { return _objectBytes.value(); }

    /** Raw stream bytes fetched from flash so far (cache hits are
     *  served from DRAM and do not move this). */
    std::uint64_t rawBytesIn() const { return _rawBytesIn.value(); }

    /**
     * Object bytes delivered on behalf of @p instance_id, consumed:
     * the counter resets to zero. Survives the instance's MDEINIT so
     * the host runtime can collect it after teardown; correct under
     * interleaved multi-tenant streams where the global counter's
     * delta is not.
     */
    std::uint64_t takeDeliveredBytes(std::uint32_t instance_id);

    /** Whether @p instance_id's stream was served from the object
     *  cache, consumed (same lifetime contract as
     *  takeDeliveredBytes): the host runtime collects it after
     *  MDEINIT to surface per-request hit flags. */
    bool takeServedFromCache(std::uint32_t instance_id);

    /** Number of live instances (for tests). */
    std::size_t liveInstances() const { return _instances.size(); }

    // Streaming-pipeline observability (tests + tools).
    std::uint64_t readaheadIssued() const
    {
        return _readaheadIssued.value();
    }
    std::uint64_t readaheadHits() const
    {
        return _readaheadHits.value();
    }
    std::uint64_t readaheadMediaDiscards() const
    {
        return _readaheadMediaDiscards.value();
    }
    std::uint64_t readaheadDropped() const
    {
        return _readaheadDropped.value();
    }
    std::uint64_t subBuffersParsed() const
    {
        return _subBuffersParsed.value();
    }
    std::uint64_t flushSegmentsCoalesced() const
    {
        return _flushSegmentsCoalesced.value();
    }

    void registerStats(sim::stats::StatSet &set,
                       const std::string &prefix) const;

  private:
    struct Instance
    {
        std::uint32_t id = 0;
        std::uint32_t tenant = 0;  ///< Submitting tenant (MINIT cdw15).
        InstanceSetup setup;
        std::unique_ptr<StorageApp> app;
        std::unique_ptr<MsChunkContext> ctx;
        unsigned coreId = 0;
        std::uint32_t codeBytes = 0;  ///< I-SRAM bytes actually loaded.
        /** D-SRAM bytes reserved on coreId (0 = unpartitioned). */
        std::uint32_t dsramGranted = 0;
        pcie::Addr dmaCursor = 0;
        /** MWRITE region cursor: base SLBA of the region being
         *  serialized and the bytes landed there so far. Independent
         *  of dmaCursor, which tracks the MREAD DMA target. */
        std::uint64_t writeSlba = 0;
        std::uint64_t writeCursor = 0;
        bool writeRegionOpen = false;
        std::uint64_t chunksProcessed = 0;
        /** Flash byte offset the next MREAD chunk must start at: the
         *  parse is a stateful stream, so chunks have to be fed in
         *  order. ~0 until the first chunk pins the stream origin. A
         *  failed chunk leaves this pointing at itself, so only its
         *  exact resubmission is accepted and any later chunk already
         *  in flight bounces with kSequenceError instead of corrupting
         *  the parse. */
        std::uint64_t expectedByteOff = ~std::uint64_t{0};
        /** The app crashed mid-command (injected fault): every further
         *  data command bounces with kAppFault; MDEINIT tears the
         *  instance down without running the app's finish hooks. */
        bool poisoned = false;
        /**
         * Object-cache state (DESIGN.md §13), all inert unless
         * SsdConfig::cache.enabled. The declared stream length (MINIT
         * SLBA) plus the first MREAD's origin identify the raw range;
         * a first-chunk cache hit flips cacheServed and the whole
         * parsed object is DMAed at once (later chunks of the stream
         * complete trivially, MDEINIT returns the cached value without
         * running the app). On a miss the outbound flush segments
         * accumulate in cachePayload; a clean MDEINIT that covered the
         * full declared range inserts them. MWRITE makes the instance
         * uncacheable (its stream is not a pure parse), and a crash /
         * watchdog kill drops the pending payload with the instance.
         */
        std::uint64_t declaredStreamBytes = 0;
        std::uint64_t streamOrigin = ~std::uint64_t{0};
        std::uint32_t streamNsid = 1;
        /** Digest of the MINIT pushdown descriptor (0 = none). Part of
         *  the cache key: a differently-predicated scan of the same
         *  raw range is a different object. */
        std::uint32_t pushdownDigest = 0;
        bool cacheServed = false;
        std::uint32_t cachedReturnValue = 0;
        bool cacheable = true;
        std::vector<std::uint8_t> cachePayload;
        /**
         * Streaming-pipeline readahead (DESIGN.md §11): timing of the
         * next chunk's prefetched flash pages. Pure schedule state —
         * functional bytes always come from peekBytes at MREAD time,
         * so discarding the buffer only costs a re-fetch. A prefetch
         * that drew an uncorrectable page is marked `media` and is
         * discarded on use, never fed to the parser.
         */
        struct Readahead
        {
            bool valid = false;
            bool media = false;
            std::uint64_t byteOff = 0;
            std::uint64_t len = 0;
            ssd::PagedFetch fetch;
        };
        Readahead readahead;
    };

    nvme::CommandResult doMInit(const nvme::Command &cmd,
                                sim::Tick start);
    nvme::CommandResult doMRead(const nvme::Command &cmd,
                                sim::Tick start);

    /**
     * The MREAD data path, after doMRead's shared checks (instance
     * lookup, poison, sequence guard, cache hit). Flash pages are
     * buffered in controller DRAM page by page; the chunk is parsed in
     * sub-buffers that each start once their last page is buffered,
     * and each sub-buffer's flush DMA overlaps the next one's parse.
     * With SsdConfig::pipeline on, the chunk may come from the
     * instance's readahead buffer, sub-buffers are D-SRAM-sized
     * (double buffering), flush segments are coalesced, and the next
     * chunk is prefetched. With it off the chunk is one sub-buffer.
     */
    nvme::CommandResult mreadStaged(Instance &inst,
                                    const nvme::Command &cmd,
                                    std::uint64_t byte_off,
                                    std::uint64_t valid, sim::Tick start);

    /**
     * Issue the next chunk's flash page reads into the bounded
     * controller-DRAM readahead buffer, starting no earlier than
     * @p earliest (the tick the current chunk's fetch drained, so the
     * prefetch runs under the current chunk's parse). Clamped to
     * device capacity and ssd::kReadaheadBufferBytes.
     */
    void issueReadahead(Instance &inst, std::uint64_t byte_off,
                        std::uint64_t len, sim::Tick earliest,
                        obs::TraceId trace);

    /**
     * With the pipeline on, merge address-contiguous flush segments
     * (they are contiguous by construction: the DMA or region cursor
     * advances segment by segment) into descriptors of at most
     * ssd::kMaxDescriptorBytes. One cyclesPerFlush and one DMA are
     * charged per merged descriptor. No-op otherwise.
     */
    void coalesceFlushes(std::vector<std::vector<std::uint8_t>> &segments);
    nvme::CommandResult doMWrite(const nvme::Command &cmd,
                                 sim::Tick start);
    nvme::CommandResult doMDeinit(const nvme::Command &cmd,
                                  sim::Tick start);

    /** DMA the staged flush segments; @return last completion tick.
     *  @p trace attributes the transfer spans to the command that
     *  triggered the flushes. */
    sim::Tick drainFlushes(Instance &inst,
                           std::vector<std::vector<std::uint8_t>> segments,
                           sim::Tick earliest, obs::TraceId trace);

    /**
     * Watchdog force-kill of a hung instance: release its I-SRAM and
     * D-SRAM, free its scheduler slot and placement, and erase it from
     * the instance table (the host's MDEINIT-and-reinstall sees
     * kNoSuchInstance and starts fresh). The hung command's CQE is
     * suppressed by the caller.
     */
    void watchdogKill(std::uint32_t instance_id);

    /** Cache key for @p inst's pinned stream (cache enabled only). */
    ssd::ObjectCacheKey cacheKeyFor(const Instance &inst) const;

    ssd::SsdController &_ssd;
    std::unordered_map<std::uint32_t, InstanceSetup> _staged;
    std::unordered_map<std::uint32_t, Instance> _instances;
    /** Per-instance delivered bytes (outlives the instance entry). */
    std::unordered_map<std::uint32_t, std::uint64_t> _delivered;
    /** Instances whose stream was cache-served (outlives the entry;
     *  consumed by takeServedFromCache). */
    std::unordered_map<std::uint32_t, bool> _cacheServed;
    /** Last installed code version per applet name: a re-install at a
     *  different version invalidates the applet's cached objects. */
    std::unordered_map<std::string, std::uint32_t> _appletVersions;

    sim::stats::Counter _minits;
    sim::stats::Counter _mreads;
    sim::stats::Counter _mwrites;
    sim::stats::Counter _mdeinits;
    sim::stats::Counter _objectBytes;
    sim::stats::Counter _rawBytesIn;

    // Streaming-pipeline counters (DESIGN.md §11).
    sim::stats::Counter _readaheadIssued;
    sim::stats::Counter _readaheadHits;
    /** Prefetches discarded because a page came back uncorrectable. */
    sim::stats::Counter _readaheadMediaDiscards;
    /** Prefetches dropped because the next chunk did not match. */
    sim::stats::Counter _readaheadDropped;
    sim::stats::Counter _subBuffersParsed;
    /** Flush segments absorbed into a preceding DMA descriptor. */
    sim::stats::Counter _flushSegmentsCoalesced;
};

}  // namespace morpheus::core

#endif  // MORPHEUS_CORE_DEVICE_RUNTIME_HH
