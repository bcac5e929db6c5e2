/**
 * @file
 * Timed NAND flash array.
 *
 * The array enforces NAND programming rules: a page must be erased
 * before it is programmed, pages within a block are programmed in
 * order, and erase operates on whole blocks. It holds no page bytes:
 * those belong to the logical page the FTL maps (ftl::Ftl), so a
 * stale physical page costs no memory. Timing is modeled with one
 * Timeline per die (tR / tPROG / tBERS occupancy) and one per channel
 * (data transfer occupancy), so multi-channel and multi-die
 * parallelism emerge naturally.
 */

#ifndef MORPHEUS_FLASH_FLASH_ARRAY_HH
#define MORPHEUS_FLASH_FLASH_ARRAY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flash/flash_config.hh"
#include "obs/metrics.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"

namespace morpheus::flash {

/** NAND flash array: geometry, timing, wear and program order. */
class FlashArray
{
  public:
    explicit FlashArray(const FlashConfig &config);

    const FlashConfig &config() const { return _config; }

    /**
     * Read one page.
     *
     * @param addr     Page to read; must be programmed.
     * @param earliest First tick at which the die may start.
     * @param uncorrectable  Optional fault-injection out-param: set to
     *                 true when the installed sim::FaultInjector makes
     *                 this read come back uncorrectable (the full
     *                 tR + transfer time is still charged — read retry
     *                 consumes the access either way). Never written
     *                 when no injector is installed.
     * @return Completion tick (timelines reserve at issue time; the
     *         FTL holds the data). This per-page tick is
     *         the contract the streaming pipeline builds on: the FTL
     *         forwards it per page (PageReads::pageTicks), so a
     *         chunk's consumer can start at the first page's arrival,
     *         not the last's.
     */
    sim::Tick read(const PagePointer &addr, sim::Tick earliest,
                   bool *uncorrectable = nullptr);

    /**
     * Program one page. Enforces erase-before-program and in-order
     * programming within the block.
     */
    sim::Tick program(const PagePointer &addr, sim::Tick earliest);

    /** Erase one block, making all of its pages programmable again. */
    sim::Tick erase(const BlockPointer &addr, sim::Tick earliest);

    /** Whether the page was programmed since its block's last erase. */
    bool isProgrammed(const PagePointer &addr) const;

    /** Erase count of a block (wear). */
    std::uint64_t eraseCount(const BlockPointer &addr) const;

    /** Busy-time of a die timeline (for utilization reporting). */
    const sim::Timeline &dieTimeline(unsigned channel, unsigned die) const;

    void writeStats(obs::MetricsRegistry &reg,
                    const std::string &prefix) const;

    const sim::stats::Counter &readsIssued() const { return _reads; }
    const sim::stats::Counter &programsIssued() const { return _programs; }
    const sim::stats::Counter &erasesIssued() const { return _erases; }

  private:
    std::uint64_t flatBlock(const BlockPointer &addr) const;
    /** Flat index of @p addr's block; checks the page address. */
    std::uint64_t pageBlock(const PagePointer &addr) const;
    void checkPageAddr(const PagePointer &addr) const;

    sim::Timeline &die(unsigned channel, unsigned die_idx);
    const sim::Timeline &die(unsigned channel, unsigned die_idx) const;

    FlashConfig _config;

    /** One occupancy timeline per die and per channel bus. */
    std::vector<sim::Timeline> _dieTimelines;
    std::vector<sim::Timeline> _channelTimelines;

    /** Next in-order programmable page per block (absent => 0); the
     *  pages below it are programmed. */
    std::unordered_map<std::uint64_t, unsigned> _nextProgramPage;
    /** Erase counts per block (absent => 0). */
    std::unordered_map<std::uint64_t, std::uint64_t> _eraseCounts;

    sim::stats::Counter _reads;
    sim::stats::Counter _programs;
    sim::stats::Counter _erases;
    sim::stats::Counter _bytesRead;
    sim::stats::Counter _bytesProgrammed;
};

}  // namespace morpheus::flash

#endif  // MORPHEUS_FLASH_FLASH_ARRAY_HH
