#include "ssd/ssd_controller.hh"

#include <algorithm>
#include <cstring>

#include "obs/trace.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace morpheus::ssd {

SsdController::SsdController(sim::EventQueue &eq,
                             pcie::PcieSwitch &fabric, pcie::PortId port,
                             const SsdConfig &config)
    : _eq(eq), _fabric(fabric), _port(port), _config(config),
      _trackPrefix(config.label.empty() ? std::string()
                                        : config.label + "."),
      _flash(std::make_unique<flash::FlashArray>(eq, config.flash)),
      _ftl(std::make_unique<ftl::Ftl>(eq, *_flash, config.ftl)),
      _nvme(fabric, port, config.nvme),
      _dram(_trackPrefix + "ssd.dram")
{
    MORPHEUS_ASSERT(config.numCores > 0, "SSD with no embedded cores");
    _nvme.setTrackPrefix(_trackPrefix);
    for (unsigned i = 0; i < config.numCores; ++i) {
        _cores.push_back(
            std::make_unique<EmbeddedCore>(i, config.core, _trackPrefix));
    }
    _sched = std::make_unique<sched::SsdScheduler>(
        config.sched, config.numCores,
        [this](unsigned c) { return _cores[c]->timeline().freeAt(); },
        [this](unsigned c) { return _cores[c]->dsramFree(); },
        _trackPrefix);
    // The object cache and the pipeline's readahead buffer share one
    // controller-DRAM budget: whatever the readahead reserves comes
    // out of the cache's capacity, so the two never double-book.
    const std::uint64_t reserved =
        config.pipeline.enabled ? kReadaheadBufferBytes : 0;
    _cache = std::make_unique<ObjectCache>(config.cache, reserved);
    _nvme.setHandler([this](const nvme::Command &cmd, sim::Tick start) {
        return handleCommand(cmd, start);
    });
}

EmbeddedCore &
SsdController::coreFor(std::uint32_t instance_id, sim::Tick now,
                       std::uint32_t dsram_needed)
{
    // Paper §IV-B statically sends all packets with one instance ID to
    // core `id % numCores`; the dispatcher generalizes that to the
    // configured placement policy.
    return *_cores[_sched->dispatcher().placeInstance(instance_id, now,
                                                      dsram_needed)];
}

std::uint64_t
SsdController::capacityBlocks() const
{
    return _ftl->logicalPages() *
           (_ftl->pageBytes() / nvme::kBlockBytes);
}

std::vector<std::uint8_t>
SsdController::peekBytes(std::uint64_t byte_offset,
                         std::uint64_t len) const
{
    const std::uint32_t page_bytes = _ftl->pageBytes();
    std::vector<std::uint8_t> out;
    out.reserve(len);
    std::uint64_t off = byte_offset;
    std::uint64_t remaining = len;
    while (remaining > 0) {
        const std::uint64_t lpn = off / page_bytes;
        const std::uint64_t in_page = off % page_bytes;
        const std::uint64_t take =
            std::min<std::uint64_t>(remaining, page_bytes - in_page);
        const auto page = _ftl->peekPage(lpn);
        out.insert(out.end(), page.begin() + in_page,
                   page.begin() + in_page + take);
        off += take;
        remaining -= take;
    }
    return out;
}

sim::Tick
SsdController::fetchToDram(std::uint64_t byte_offset, std::uint64_t len,
                           sim::Tick earliest, bool *media_error)
{
    if (len == 0)
        return earliest;
    const std::uint32_t page_bytes = _ftl->pageBytes();
    const std::uint64_t first = byte_offset / page_bytes;
    const std::uint64_t last = (byte_offset + len - 1) / page_bytes;
    const auto count = static_cast<std::uint32_t>(last - first + 1);
    const sim::Tick flash_done =
        _ftl->readPages(first, count, earliest, nullptr, media_error);
    // Buffer the payload through controller DRAM.
    return dramTransfer(len, flash_done);
}

PagedFetch
SsdController::fetchToDramPaged(std::uint64_t byte_offset,
                                std::uint64_t len, sim::Tick earliest)
{
    PagedFetch fetch;
    fetch.allReady = earliest;
    if (len == 0)
        return fetch;
    const std::uint32_t page_bytes = _ftl->pageBytes();
    const std::uint64_t first = byte_offset / page_bytes;
    const std::uint64_t last = (byte_offset + len - 1) / page_bytes;
    const auto count = static_cast<std::uint32_t>(last - first + 1);
    fetch.firstPage = first;

    std::vector<sim::Tick> flash_ticks;
    bool media = false;
    _ftl->readPages(first, count, earliest, nullptr, &media,
                    &flash_ticks);
    fetch.mediaError = media;

    // Buffer each page through controller DRAM in logical order (the
    // parse consumes a sequential byte stream): page i's transfer
    // starts once its flash read lands and the DRAM port has drained
    // page i-1. Charge each page's in-range bytes so the total DRAM
    // occupancy matches the unpaged path.
    fetch.pageReady.reserve(count);
    sim::Tick buffered = earliest;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t page_begin = (first + i) * page_bytes;
        const std::uint64_t lo =
            std::max<std::uint64_t>(page_begin, byte_offset);
        const std::uint64_t hi = std::min<std::uint64_t>(
            page_begin + page_bytes, byte_offset + len);
        buffered = dramTransfer(hi - lo,
                                std::max(flash_ticks[i], buffered));
        fetch.pageReady.push_back(buffered);
    }
    fetch.allReady = fetch.pageReady.back();
    return fetch;
}

sim::Tick
SsdController::retryOutboundDma(pcie::Addr dst, std::uint64_t bytes,
                                sim::Tick done, bool *failed)
{
    constexpr unsigned kMaxDeviceDmaRetries = 3;
    unsigned tries = 0;
    while (_fabric.consumeDmaFault()) {
        if (++tries > kMaxDeviceDmaRetries) {
            *failed = true;
            return done;
        }
        if (auto *fi = sim::faultInjector())
            fi->noteDmaRetry();
        // Re-send the payload; each resend can itself draw a fault.
        done = _fabric.dmaWrite(_port, dst, bytes, done);
    }
    return done;
}

sim::Tick
SsdController::storeFromDram(std::uint64_t byte_offset,
                             const std::vector<std::uint8_t> &data,
                             sim::Tick earliest)
{
    if (data.empty())
        return earliest;
    const std::uint32_t page_bytes = _ftl->pageBytes();
    const std::uint64_t first = byte_offset / page_bytes;
    const std::uint64_t last =
        (byte_offset + data.size() - 1) / page_bytes;

    // Read-modify-write the covered pages.
    std::vector<std::uint8_t> pages;
    pages.reserve((last - first + 1) * page_bytes);
    for (std::uint64_t lpn = first; lpn <= last; ++lpn) {
        const auto page = _ftl->peekPage(lpn);
        pages.insert(pages.end(), page.begin(), page.end());
    }
    const std::uint64_t start_off = byte_offset - first * page_bytes;
    std::copy(data.begin(), data.end(), pages.begin() + start_off);

    const sim::Tick buffered = dramTransfer(data.size(), earliest);
    return _ftl->writePages(first, pages, buffered);
}

sim::Tick
SsdController::dramTransfer(std::uint64_t bytes, sim::Tick earliest)
{
    const sim::Tick dur =
        sim::transferTicks(bytes, _config.dramBytesPerSec);
    return _dram.acquireUntil(earliest, dur);
}

nvme::CommandResult
SsdController::handleCommand(const nvme::Command &cmd, sim::Tick start)
{
    using nvme::Opcode;
    switch (cmd.opcode) {
      case Opcode::kRead:
        return doRead(cmd, start);
      case Opcode::kWrite:
        return doWrite(cmd, start);
      case Opcode::kFlush:
        // All writes are durable at completion in this model.
        return nvme::CommandResult{start + 10 * sim::kPsPerUs,
                                   nvme::Status::kSuccess, 0};
      case Opcode::kDsm:
        return doDsm(cmd, start);
      case Opcode::kMInit:
      case Opcode::kMRead:
      case Opcode::kMWrite:
      case Opcode::kMDeinit: {
        ++_morpheusCommands;
        if (!_engine) {
            return nvme::CommandResult{start,
                                       nvme::Status::kInvalidOpcode, 0};
        }
        // Scheduler front end: admission, placement release.
        const sched::FrontEndDecision fe =
            _sched->admitCommand(cmd, start);
        if (fe.status != nvme::Status::kSuccess)
            return nvme::CommandResult{start, fe.status, fe.dw0};
        nvme::CommandResult result = _engine->execute(cmd, fe.start);
        _sched->onCommandDone(cmd, fe.start, result);
        if (result.status == nvme::Status::kDsramExhausted &&
            result.dw0 == 0) {
            // Engine-level bounce: stamp the same NVMe-style
            // retry-after hint the admission path uses.
            result.dw0 = _sched->arbiter().retryAfterHintUs();
        }
        return result;
      }
    }
    return nvme::CommandResult{start, nvme::Status::kInvalidOpcode, 0};
}

nvme::CommandResult
SsdController::doRead(const nvme::Command &cmd, sim::Tick start)
{
    const std::uint64_t off = cmd.slba * nvme::kBlockBytes;
    const std::uint64_t len = cmd.dataBytes();
    if ((off + len) / _ftl->pageBytes() >= _ftl->logicalPages())
        return {start, nvme::Status::kLbaOutOfRange, 0};

    ++_readCommands;
    _bytesToHost += len;

    // Flash -> controller DRAM, then DMA out to the PRP target.
    bool media = false;
    const sim::Tick buffered = fetchToDram(off, len, start, &media);
    if (media) {
        // Uncorrectable page: the access time was charged, but no data
        // leaves the device. The host retries (read-retry recoverable).
        obs::traceInstant(
            {_trackPrefix, "ssd.firmware"}, "media_error", "ssd", buffered,
            {.trace = cmd.traceId,
             .status = static_cast<std::uint32_t>(
                 nvme::Status::kMediaError)});
        return {buffered, nvme::Status::kMediaError, 0};
    }
    const auto data = peekBytes(off, len);
    sim::Tick done =
        _fabric.dmaWriteData(_port, cmd.prp1, data.data(), data.size(),
                             buffered);
    bool dma_failed = false;
    done = retryOutboundDma(cmd.prp1, data.size(), done, &dma_failed);
    if (dma_failed)
        return {done, nvme::Status::kTransientTransferError, 0};
    return {done, nvme::Status::kSuccess, 0};
}

nvme::CommandResult
SsdController::doWrite(const nvme::Command &cmd, sim::Tick start)
{
    const std::uint64_t off = cmd.slba * nvme::kBlockBytes;
    const std::uint64_t len = cmd.dataBytes();
    if ((off + len) / _ftl->pageBytes() >= _ftl->logicalPages())
        return {start, nvme::Status::kLbaOutOfRange, 0};

    ++_writeCommands;
    _bytesFromHost += len;

    // DMA in from the PRP target, buffer in DRAM, program flash.
    std::vector<std::uint8_t> data(len);
    const sim::Tick fetched =
        _fabric.dmaReadData(_port, cmd.prp1, data.data(), len, start);
    if (_fabric.consumeDmaFault()) {
        // The inbound payload was corrupted in flight; fail before any
        // flash side effect so the host's resubmission is exact.
        return {fetched, nvme::Status::kTransientTransferError, 0};
    }
    const sim::Tick done = storeFromDram(off, data, fetched);
    // A standard write lands new raw bytes: any cached object parsed
    // from an overlapping range is stale now.
    if (_cache->enabled())
        _cache->invalidateRange(cmd.nsid, off, off + len);
    return {done, nvme::Status::kSuccess, 0};
}

nvme::IdentifyData
SsdController::identify() const
{
    nvme::IdentifyData id;
    id.capacityBlocks = capacityBlocks();
    id.maxTransferBlocks = _config.nvme.maxTransferBlocks;
    id.numQueues = 64;
    id.morpheusCapable = _engine != nullptr;
    return id;
}

nvme::CommandResult
SsdController::doDsm(const nvme::Command &cmd, sim::Tick start)
{
    // Deallocate: drop the mapping of every logical page fully covered
    // by the LBA range (partial pages keep their data).
    const std::uint64_t off = cmd.slba * nvme::kBlockBytes;
    const std::uint64_t len = cmd.dataBytes();
    const std::uint32_t page = _ftl->pageBytes();
    if ((off + len) / page >= _ftl->logicalPages())
        return {start, nvme::Status::kLbaOutOfRange, 0};
    const std::uint64_t first = (off + page - 1) / page;
    const std::uint64_t last_exclusive = (off + len) / page;
    sim::Tick done = start + 1 * sim::kPsPerUs;
    if (last_exclusive > first) {
        done = _ftl->trimPages(
            first, static_cast<std::uint32_t>(last_exclusive - first),
            start);
    }
    // TRIM deallocates the backing range: cached objects over it are
    // invalidated along with the mapping.
    if (_cache->enabled())
        _cache->invalidateRange(cmd.nsid, off, off + len);
    return {done, nvme::Status::kSuccess, 0};
}

void
SsdController::registerStats(sim::stats::StatSet &set,
                             const std::string &prefix) const
{
    set.registerCounter(prefix + ".readCommands", &_readCommands);
    set.registerCounter(prefix + ".writeCommands", &_writeCommands);
    set.registerCounter(prefix + ".morpheusCommands",
                        &_morpheusCommands);
    set.registerCounter(prefix + ".bytesToHost", &_bytesToHost);
    set.registerCounter(prefix + ".bytesFromHost", &_bytesFromHost);
    _flash->registerStats(set, prefix + ".flash");
    _ftl->registerStats(set, prefix + ".ftl");
    _nvme.registerStats(set, prefix + ".nvme");
    _sched->registerStats(set, prefix + ".sched");
}

}  // namespace morpheus::ssd
