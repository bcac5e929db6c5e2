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
 * Morpheus-SSD deliberately leaves the FTL untouched (paper §IV-B:
 * "Morpheus-SSD performs no changes to the FTL of the baseline SSD") —
 * both the conventional and the Morpheus command paths call the same
 * read/write entry points here.
 */

#ifndef MORPHEUS_FTL_FTL_HH
#define MORPHEUS_FTL_FTL_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flash/flash_array.hh"
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
     * fetched in parallel across dies; completion is the latest page.
     *
     * @param media_error  Optional fault-injection out-param: set true
     *         when any constituent flash page read comes back
     *         uncorrectable (time for every page is still charged).
     * @param page_ticks   Optional out-param: per-page flash completion
     *         ticks, in LPN order (unmapped pages complete at
     *         @p earliest). Lets the streaming pipeline start consuming
     *         at the first page's arrival instead of the last's.
     * @return Completion tick: the latest page tick.
     */
    sim::Tick readPages(std::uint64_t lpn, std::uint32_t count,
                        sim::Tick earliest, bool *media_error = nullptr,
                        std::vector<sim::Tick> *page_ticks = nullptr);

    /**
     * Write logical pages starting at @p lpn. @p data is padded to a
     * whole number of pages. Overwrites invalidate prior mappings; GC
     * runs inline when the free pool is low and its time is charged to
     * this write.
     */
    sim::Tick writePages(std::uint64_t lpn,
                         const std::vector<std::uint8_t> &data,
                         sim::Tick earliest);

    /** Whether @p lpn currently maps to flash. */
    bool isMapped(std::uint64_t lpn) const;

    /** Zero-time page contents (unmapped => zeros). */
    std::vector<std::uint8_t> peekPage(std::uint64_t lpn) const;

    /** Free blocks remaining in the allocation pool. */
    std::size_t freeBlocks() const { return _freeBlocks.size(); }

    /** Spread between the most- and least-erased written blocks. */
    std::uint64_t maxEraseDelta() const;

    std::uint64_t gcRuns() const { return _gcRuns.value(); }

    void registerStats(sim::stats::StatSet &set,
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

    /** Pick the next page of the write stripe, opening blocks as needed. */
    flash::PagePointer allocatePage(std::uint64_t lpn, sim::Tick now,
                                    sim::Tick *gc_done);

    /** Run greedy GC until the high watermark; returns finish tick. */
    sim::Tick collectGarbage(sim::Tick now);

    /** Invalidate the physical page currently backing @p lpn, if any. */
    void invalidate(std::uint64_t lpn);

    std::uint64_t flatBlock(const flash::BlockPointer &b) const;
    /** Flash address of flat physical page index @p ppn. */
    flash::PagePointer pageAddress(std::uint64_t ppn) const;

    flash::FlashArray &_array;
    FtlConfig _config;
    std::uint64_t _logicalPages;

    /** LPN -> flat physical page index. */
    std::unordered_map<std::uint64_t, std::uint64_t> _map;
    /** Flat physical page index -> block state + page slot. */
    std::unordered_map<std::uint64_t, BlockState> _blocks;

    /** Blocks never written or erased and returned to the pool. */
    std::vector<flash::BlockPointer> _freeBlocks;
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
