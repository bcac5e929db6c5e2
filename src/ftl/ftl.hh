/**
 * @file
 * Flash translation layer: page-level mapping, striped write
 * allocation, and greedy garbage collection.
 *
 * The mapping unit is one flash page. Logical pages (LPNs) map to
 * physical pages anywhere in the array; writes go to a round-robin
 * stripe of active blocks (one per plane) so sequential I/O spreads
 * across every channel and die. When the free-block pool drops below a
 * threshold, greedy GC relocates the valid pages of the
 * fewest-valid-pages victim block and erases it.
 *
 * A logical page owns its bytes, stored up to the highest byte written
 * to it (past which it reads as zero). A write patches them in place and a GC
 * move only remaps them, so the simulator's memory follows the bytes
 * written to live logical pages, not stale physical ones awaiting erase.
 *
 * Morpheus-SSD deliberately leaves the FTL untouched (paper §IV-B:
 * "Morpheus-SSD performs no changes to the FTL of the baseline SSD") —
 * both the conventional and the Morpheus command paths call the same
 * read/write entry points here.
 */

#ifndef MORPHEUS_FTL_FTL_HH
#define MORPHEUS_FTL_FTL_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "flash/flash_array.hh"
#include "obs/metrics.hh"
#include "sim/stats.hh"

namespace morpheus::ftl {

/** FTL tuning parameters. */
struct FtlConfig
{
    /** Fraction of physical blocks reserved as over-provisioning. */
    double overProvisioning = 0.07;
    /** Start GC when the free pool falls to this many blocks. */
    unsigned gcLowWatermark = 8;
    /** Stop GC when the free pool recovers to this many blocks. */
    unsigned gcHighWatermark = 16;
};

/** Timing of one Ftl::readPages call. */
struct PageReads
{
    /** Per-page flash completion ticks in LPN order (unmapped pages
     *  complete at the call's earliest tick), so a consumer can start
     *  on the first page's arrival instead of the last's. */
    std::vector<sim::Tick> pageTicks;
    /** Any constituent flash page read came back uncorrectable (time
     *  for every page is still charged). */
    bool mediaError = false;
};

/** Page-mapped FTL over a FlashArray. */
class Ftl
{
  public:
    Ftl(flash::FlashArray &array, const FtlConfig &config);

    /** Bytes per logical page (== flash page size). */
    std::uint32_t pageBytes() const { return _array.config().pageBytes; }

    /** Number of logical pages exposed (physical minus OP). */
    std::uint64_t logicalPages() const { return _logicalPages; }

    /**
     * Read @p count logical pages starting at @p lpn.
     *
     * Charges the flash time only; the data is read with peekPage().
     * Unmapped pages cost nothing and read as zeros. Pages are
     * fetched in parallel across dies.
     */
    PageReads readPages(std::uint64_t lpn, std::uint32_t count,
                        sim::Tick earliest);

    /**
     * Write @p data at logical byte offset @p byte_offset: each covered
     * page is remapped and programmed, its bytes outside @p data kept
     * (read-modify-write). GC runs inline when the free pool is low and
     * its time is charged to this write.
     */
    sim::Tick writeBytes(std::uint64_t byte_offset,
                         std::span<const std::uint8_t> data,
                         sim::Tick earliest);

    /** Whether @p lpn currently maps to flash. */
    bool isMapped(std::uint64_t lpn) const;

    /** Zero-time page contents up to the highest byte written (empty
     *  when unmapped); the view is valid until the next write. */
    std::span<const std::uint8_t> peekPage(std::uint64_t lpn) const;

    /** Free blocks remaining in the allocation pool. */
    std::size_t freeBlocks() const { return _freeBlocks; }

    /** Spread between the most- and least-erased written blocks. */
    std::uint64_t maxEraseDelta() const;

    std::uint64_t gcRuns() const { return _gcRuns.value(); }

    void writeStats(obs::MetricsRegistry &reg,
                    const std::string &prefix) const;

  private:
    static constexpr std::uint64_t kUnmapped = ~std::uint64_t(0);

    struct BlockState
    {
        flash::BlockPointer addr;
        /** Per-page owning LPN; kUnmapped for invalid/unwritten. */
        std::vector<std::uint64_t> pageLpn;
        unsigned validPages = 0;
        unsigned writtenPages = 0;
    };

    /** A written logical page: where it lives and what it holds. */
    struct LogicalPage
    {
        std::uint64_t ppn = kUnmapped;  ///< Flat physical page index.
        std::vector<std::uint8_t> bytes;  ///< To the highest byte written.
    };

    /** Pick the next page of the write stripe for @p lpn, opening
     *  blocks as needed; returns its flat physical page index. */
    std::uint64_t allocatePage(std::uint64_t lpn, sim::Tick now,
                               sim::Tick *gc_done);

    /** Run greedy GC until the high watermark; returns finish tick. */
    sim::Tick collectGarbage(sim::Tick now);

    /** Invalidate physical page @p ppn, which backs @p lpn (a no-op
     *  for kUnmapped). */
    void invalidate(std::uint64_t lpn, std::uint64_t ppn);

    std::uint64_t flatBlock(const flash::BlockPointer &b) const;
    /** Block @p block of flat plane index @p plane. */
    flash::BlockPointer blockAt(unsigned plane, unsigned block) const;
    /** Flash address of flat physical page index @p ppn. */
    flash::PagePointer pageAddress(std::uint64_t ppn) const;

    flash::FlashArray &_array;
    FtlConfig _config;
    std::uint64_t _logicalPages;

    /** LPN -> its physical page and bytes. */
    std::unordered_map<std::uint64_t, LogicalPage> _map;
    /** Flat physical page index -> block state + page slot. */
    std::unordered_map<std::uint64_t, BlockState> _blocks;

    /**
     * The free pool, per plane: blocks GC erased, reopened last erased
     * first, then the never-written blocks in ascending order, of
     * which only the next one's index is kept.
     */
    std::vector<std::vector<unsigned>> _recycled;
    std::vector<unsigned> _nextFresh;
    std::size_t _freeBlocks = 0;  ///< Over every plane.
    /** Active write blocks, one per plane, used round-robin. */
    std::vector<std::uint64_t> _activeBlocks;
    std::size_t _nextPlane = 0;
    bool _inGc = false;

    sim::stats::Counter _hostReads;
    sim::stats::Counter _hostWrites;
    sim::stats::Counter _gcRuns;
    sim::stats::Counter _gcRelocated;
};

}  // namespace morpheus::ftl

#endif  // MORPHEUS_FTL_FTL_HH
