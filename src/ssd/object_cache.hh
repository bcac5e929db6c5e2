/**
 * @file
 * Deserialized-object cache in controller DRAM (DESIGN.md §13).
 *
 * Morpheus already moves deserialization off the host; this cache
 * removes it from the device too for the hot set: a completed MREAD
 * stream's parsed object (the exact bytes that were DMAed to the
 * host) is retained in controller DRAM keyed on the raw flash range
 * and the applet that parsed it, so the next identical invocation is
 * served straight from DRAM — no flash fetch, no ParseCost, no
 * embedded-core occupancy. Capacity comes out of the same controller
 * DRAM the streaming pipeline's readahead buffer lives in: the two
 * share one budget (the readahead reservation is subtracted from the
 * cache's), never double-booked.
 *
 * Eviction is least-recently-used, and invalidation is end-exclusive
 * byte-range based, consistent with host::FileExtent: any standard
 * write, MWRITE or TRIM overlapping [rawBegin, rawBegin + rawLen)
 * drops the entry, as does re-installing the keyed applet at a
 * different version.
 */

#ifndef MORPHEUS_SSD_OBJECT_CACHE_HH
#define MORPHEUS_SSD_OBJECT_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace morpheus::ssd {

/** Object-cache knobs. Off by default: every existing figure and
 *  serving run reproduces bit-identically with the cache disabled. */
struct ObjectCacheConfig
{
    bool enabled = false;

    /**
     * Controller-DRAM budget for cached objects. The streaming
     * pipeline's readahead buffer (kReadaheadBufferBytes) is carved
     * out of the same budget when the pipeline is on — the effective
     * cache capacity is the remainder, so the two features can never
     * double-book the controller DRAM they share.
     */
    std::uint64_t budgetBytes = 64 * sim::kMiB;
};

/**
 * Cache key: the identity of a deserialized object. Two invocations
 * produce bit-identical objects iff they parse the same raw bytes
 * (namespace + flash byte range) with the same applet at the same
 * version under the same pushdown program — all six fields
 * participate in equality.
 */
struct ObjectCacheKey
{
    std::uint32_t nsid = 1;
    /** Flash byte offset the MREAD stream started at. */
    std::uint64_t rawBegin = 0;
    /** Declared stream length in bytes (MINIT SLBA). The cached range
     *  is end-exclusive: [rawBegin, rawBegin + rawLen). */
    std::uint64_t rawLen = 0;
    std::string applet;
    std::uint32_t appletVersion = 0;
    /** Digest of the MINIT pushdown descriptor (projection mask +
     *  predicate program), 0 when the invocation carried none. A
     *  differently-predicated scan of the same raw range emits
     *  different bytes, so it must never replay another scan's
     *  entry. */
    std::uint32_t pushdownDigest = 0;

    bool
    operator==(const ObjectCacheKey &o) const
    {
        return nsid == o.nsid && rawBegin == o.rawBegin &&
               rawLen == o.rawLen && appletVersion == o.appletVersion &&
               pushdownDigest == o.pushdownDigest && applet == o.applet;
    }
};

/** The cache proper. Functional payloads + counters; all timing
 *  (DRAM pass, outbound DMA) is charged by the caller. */
class ObjectCache
{
  public:
    /**
     * @p reserved_bytes is the controller-DRAM already spoken for by
     * the readahead buffer; the effective capacity is
     * budgetBytes - reserved_bytes, clamped at zero.
     */
    ObjectCache(const ObjectCacheConfig &config,
                std::uint64_t reserved_bytes);

    bool enabled() const { return _config.enabled; }
    const ObjectCacheConfig &config() const { return _config; }
    std::uint64_t capacityBytes() const { return _capacityBytes; }
    std::size_t entries() const { return _entries.size(); }

    struct Entry
    {
        ObjectCacheKey key;
        /** The parsed object — the exact bytes the original stream
         *  DMAed out, replayable to any later instance's target. */
        std::vector<std::uint8_t> payload;
        /** The applet's MDEINIT return value for the stream. */
        std::uint32_t returnValue = 0;
        std::uint64_t useSeq = 0;  ///< LRU recency.
    };

    /**
     * Find the entry for @p key; bumps the hit counters and the
     * entry's recency on success, the miss counter otherwise.
     * The pointer is valid until the next mutating call.
     */
    const Entry *lookup(const ObjectCacheKey &key);

    /**
     * Insert a complete object. Entries larger than the effective
     * capacity are rejected (counted); otherwise least recently used
     * entries are evicted until the payload fits. A re-insert
     * under an existing key replaces the payload in place.
     */
    void insert(const ObjectCacheKey &key,
                std::vector<std::uint8_t> payload,
                std::uint32_t return_value);

    /**
     * Drop every entry of @p nsid whose raw range overlaps the
     * end-exclusive byte range [@p begin, @p end). Adjacent (touching)
     * ranges do not overlap: a write ending exactly at rawBegin, or
     * starting exactly at rawBegin + rawLen, leaves the entry alone —
     * the same convention as host::FileExtent byte ranges.
     */
    void invalidateRange(std::uint32_t nsid, std::uint64_t begin,
                         std::uint64_t end);

    /** Drop every entry keyed on @p applet (re-install at a new
     *  version: any retained object may embed stale semantics). */
    void invalidateApplet(const std::string &applet);

    void clear();

    // Counters (tests + morpheus.cache.* federation).
    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t insertions() const { return _insertions.value(); }
    std::uint64_t evictions() const { return _evictions.value(); }
    std::uint64_t invalidations() const
    {
        return _invalidations.value();
    }
    std::uint64_t hitBytes() const { return _hitBytes.value(); }
    std::uint64_t rejectedTooLarge() const
    {
        return _rejectedTooLarge.value();
    }

    void writeStats(obs::MetricsRegistry &reg,
                    const std::string &prefix) const;

  private:
    /** Index of the least recently used entry. */
    std::size_t victimIndex() const;
    void eraseEntry(std::size_t idx);

    ObjectCacheConfig _config;
    std::uint64_t _capacityBytes = 0;
    std::uint64_t _usedBytes = 0;
    std::uint64_t _seq = 0;
    std::vector<Entry> _entries;

    sim::stats::Counter _hits;
    sim::stats::Counter _misses;
    sim::stats::Counter _insertions;
    sim::stats::Counter _evictions;
    sim::stats::Counter _invalidations;
    sim::stats::Counter _hitBytes;
    sim::stats::Counter _rejectedTooLarge;
};

}  // namespace morpheus::ssd

#endif  // MORPHEUS_SSD_OBJECT_CACHE_HH
