/**
 * @file
 * Morpheus-SSD device: flash + FTL + DRAM + embedded cores behind an
 * NVMe front-end (paper Fig 6).
 *
 * SsdController implements the firmware: it is the CommandHandler the
 * NvmeController dispatches to. Standard reads/writes run entirely
 * here. The four Morpheus opcodes are forwarded to a MorpheusEngine —
 * implemented by core::MorpheusDeviceRuntime — so the base SSD stays
 * ignorant of StorageApp semantics, mirroring the paper's claim that
 * the FTL and the conventional command paths are untouched.
 */

#ifndef MORPHEUS_SSD_SSD_CONTROLLER_HH
#define MORPHEUS_SSD_SSD_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "ftl/ftl.hh"
#include "nvme/controller.hh"
#include "pcie/pcie.hh"
#include "sched/ssd_scheduler.hh"
#include "ssd/embedded_core.hh"
#include "ssd/object_cache.hh"

namespace morpheus::ssd {

/**
 * Streaming chunk pipeline (DESIGN.md §11). Every MREAD buffers flash
 * pages into controller DRAM one by one and parses the chunk once its
 * last page lands. With `enabled` set, the firmware also prefetches
 * the next chunk into a bounded readahead buffer, parses in
 * D-SRAM-sized sub-buffers, and coalesces outbound flush DMA; the
 * pipeline is either off or on in full. It is a pure schedule change:
 * functional results and the ParseCost cycle totals are identical
 * either way.
 */
struct PipelineConfig
{
    /** Master switch for the pipelined MREAD/MWRITE data path. */
    bool enabled = false;
};

/** Controller-DRAM bytes the pipeline's readahead buffer reserves. */
inline constexpr std::uint64_t kReadaheadBufferBytes = 256 * 1024;
/** Largest coalesced outbound flush DMA descriptor. */
inline constexpr std::uint64_t kMaxDescriptorBytes = 128 * 1024;

/** Device-level parameters beyond the flash/FTL configs. */
struct SsdConfig
{
    flash::FlashConfig flash;
    ftl::FtlConfig ftl;
    nvme::ControllerConfig nvme;
    EmbeddedCoreConfig core;
    unsigned numCores = 4;
    sched::SchedConfig sched;
    PipelineConfig pipeline;
    /** Deserialized-object cache in controller DRAM (DESIGN.md §13).
     *  Shares one DRAM budget with the pipeline's readahead buffer:
     *  the effective cache capacity is budgetBytes minus the readahead
     *  reservation, never both in full. */
    ObjectCacheConfig cache;

    /** Controller DRAM (buffers + FTL tables). */
    std::uint64_t dramBytes = 2ULL * sim::kGiB;
    double dramBytesPerSec = 6.4 * sim::kGBps;  // DDR3-800 x64

    /** Device label for a fleet ("dev1"): prefixes every span track
     *  this device emits so two devices never share a trace track.
     *  Empty (the default, and always device 0) keeps the classic
     *  single-SSD track names bit-identical. */
    std::string label;
};

/**
 * Timing of a paged flash fetch: per-page DRAM-buffered completion
 * ticks, so a consumer can start on any page's arrival instead of the
 * last's. Pages are buffered in logical order
 * (the parse is a sequential stream), so pageReady is non-decreasing.
 */
struct PagedFetch
{
    /** Tick each covered page is buffered in controller DRAM. */
    std::vector<sim::Tick> pageReady;
    /** First covered logical page (byte_offset / pageBytes). */
    std::uint64_t firstPage = 0;
    sim::Tick allReady = 0;  ///< pageReady.back() (or earliest).
    bool mediaError = false;
};

/** Extension hook for the Morpheus opcodes (implemented in core/). */
class MorpheusEngine
{
  public:
    virtual ~MorpheusEngine() = default;
    /** Execute one of the four M* commands starting at @p start. */
    virtual nvme::CommandResult execute(const nvme::Command &cmd,
                                        sim::Tick start) = 0;
};

/** The SSD device model. */
class SsdController
{
  public:
    SsdController(pcie::PcieSwitch &fabric, pcie::PortId port,
                  const SsdConfig &config);

    const SsdConfig &config() const { return _config; }
    pcie::PortId port() const { return _port; }

    /** Span-track prefix derived from SsdConfig::label ("dev1.", or ""
     *  for the unlabeled / device-0 case). */
    const std::string &trackPrefix() const { return _trackPrefix; }

    nvme::NvmeController &nvme() { return _nvme; }
    ftl::Ftl &ftl() { return *_ftl; }
    flash::FlashArray &flash() { return *_flash; }
    pcie::PcieSwitch &fabric() { return _fabric; }

    /**
     * Embedded core serving a new @p instance_id: the configured
     * placement policy applied at @p now (static modulo by default).
     * @p dsram_needed is the instance's scratchpad grant (0 when
     * partitioning is off), a packing signal for load-aware placement.
     */
    EmbeddedCore &coreFor(std::uint32_t instance_id, sim::Tick now = 0,
                          std::uint32_t dsram_needed = 0);
    EmbeddedCore &core(unsigned idx) { return *_cores.at(idx); }

    /** The multi-tenant command scheduler (admission + placement). */
    sched::SsdScheduler &scheduler() { return *_sched; }

    /** The deserialized-object cache (controller DRAM). Present even
     *  when disabled, so callers can query counters uniformly. */
    ObjectCache &objectCache() { return *_cache; }
    const ObjectCache &objectCache() const { return *_cache; }
    unsigned numCores() const
    {
        return static_cast<unsigned>(_cores.size());
    }

    /** Install the Morpheus command engine. */
    void setMorpheusEngine(MorpheusEngine *engine) { _engine = engine; }

    /** Logical capacity in 512-byte blocks. */
    std::uint64_t capacityBlocks() const;

    /**
     * Functional byte-level read of the logical address space
     * (zero simulated time). Used by StorageApps' stream layer and by
     * tests; the timed flash access is charged separately.
     */
    std::vector<std::uint8_t> peekBytes(std::uint64_t byte_offset,
                                        std::uint64_t len) const;

    /**
     * Timed flash fetch of the logical byte range into controller
     * DRAM. @return tick when the data is buffered on-device.
     * @p media_error (optional) is set true when fault injection made
     * any underlying flash page read uncorrectable.
     */
    sim::Tick fetchToDram(std::uint64_t byte_offset, std::uint64_t len,
                          sim::Tick earliest,
                          bool *media_error = nullptr);

    /**
     * Timed flash fetch like fetchToDram(), but returns per-page
     * DRAM-buffered completion ticks so the caller can overlap
     * consumption with the tail of the fetch: the MREAD path, which
     * models a controller streaming channel data into DRAM page by
     * page. Total DRAM occupancy matches fetchToDram() up to per-page
     * rounding.
     */
    PagedFetch fetchToDramPaged(std::uint64_t byte_offset,
                                std::uint64_t len, sim::Tick earliest);

    /**
     * Device-side recovery for an outbound (device -> host/GPU) DMA:
     * consume the fabric's transient-fault flag and, while set, re-send
     * the payload (re-charging fabric time), up to a bound. The data
     * was delivered functionally on the first pass; retries model the
     * link-level replays. @return new completion tick; sets @p failed
     * when the retry bound is exhausted with the fault still firing.
     */
    sim::Tick retryOutboundDma(pcie::Addr dst, std::uint64_t bytes,
                               sim::Tick done, bool *failed);

    /**
     * Timed write of @p data at a logical byte offset (read-modify-
     * write for partial pages). @return completion tick.
     */
    sim::Tick storeFromDram(std::uint64_t byte_offset,
                            const std::vector<std::uint8_t> &data,
                            sim::Tick earliest);

    /** Charge a pass through controller DRAM. @return completion. */
    sim::Tick dramTransfer(std::uint64_t bytes, sim::Tick earliest);

    void registerStats(sim::stats::StatSet &set,
                       const std::string &prefix) const;

  private:
    /** Firmware dispatch (CommandHandler for the NVMe front-end). */
    nvme::CommandResult handleCommand(const nvme::Command &cmd,
                                      sim::Tick start);

    nvme::CommandResult doRead(const nvme::Command &cmd, sim::Tick start);
    nvme::CommandResult doWrite(const nvme::Command &cmd,
                                sim::Tick start);

    pcie::PcieSwitch &_fabric;
    pcie::PortId _port;
    SsdConfig _config;
    /** Span-track prefix ("" for device 0, "dev1." etc. in a fleet). */
    std::string _trackPrefix;

    std::unique_ptr<flash::FlashArray> _flash;
    std::unique_ptr<ftl::Ftl> _ftl;
    nvme::NvmeController _nvme;
    std::vector<std::unique_ptr<EmbeddedCore>> _cores;
    sim::Timeline _dram;
    std::unique_ptr<sched::SsdScheduler> _sched;
    std::unique_ptr<ObjectCache> _cache;
    MorpheusEngine *_engine = nullptr;

    sim::stats::Counter _readCommands;
    sim::stats::Counter _writeCommands;
    sim::stats::Counter _morpheusCommands;
    sim::stats::Counter _bytesToHost;
    sim::stats::Counter _bytesFromHost;
};

}  // namespace morpheus::ssd

#endif  // MORPHEUS_SSD_SSD_CONTROLLER_HH
