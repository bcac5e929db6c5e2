#include "ssd/ssd_controller.hh"

#include <algorithm>
#include <cstring>

#include "obs/trace.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace morpheus::ssd {

SsdController::SsdController(pcie::PcieSwitch &fabric, pcie::PortId port,
                             const SsdConfig &config)
    : _fabric(fabric), _port(port), _config(config),
      _trackPrefix(config.label.empty() ? std::string()
                                        : config.label + "."),
      _flash(std::make_unique<flash::FlashArray>(config.flash)),
      _ftl(std::make_unique<ftl::Ftl>(*_flash, config.ftl)),
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
    while (out.size() < len) {
        const std::uint64_t off = byte_offset + out.size();
        const std::uint64_t lo = off % page_bytes;
        const std::uint64_t hi =
            std::min<std::uint64_t>(lo + len - out.size(), page_bytes);
        const std::size_t next = out.size() + (hi - lo);
        // The page's stored bytes in [lo, hi), then zeros past them.
        const auto page = _ftl->peekPage(off / page_bytes);
        out.insert(out.end(), page.begin() + std::min(lo, page.size()),
                   page.begin() + std::min(hi, page.size()));
        out.resize(next, 0);
    }
    return out;
}

PagedFetch
SsdController::fetchToDram(std::uint64_t byte_offset, std::uint64_t len,
                           sim::Tick earliest)
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

    const ftl::PageReads reads = _ftl->readPages(first, count, earliest);
    fetch.mediaError = reads.mediaError;

    // Buffer each page through controller DRAM in logical order (a
    // parse or a host DMA consumes a sequential byte stream): page i's
    // transfer starts once its flash read lands and the DRAM port has
    // drained page i-1. Each page charges only its in-range bytes.
    fetch.pageReady.reserve(count);
    sim::Tick buffered = earliest;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t page_begin = (first + i) * page_bytes;
        const std::uint64_t lo =
            std::max<std::uint64_t>(page_begin, byte_offset);
        const std::uint64_t hi = std::min<std::uint64_t>(
            page_begin + page_bytes, byte_offset + len);
        buffered = dramTransfer(hi - lo,
                                std::max(reads.pageTicks[i], buffered));
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
                             std::span<const std::uint8_t> data,
                             sim::Tick earliest)
{
    if (data.empty())
        return earliest;
    const sim::Tick buffered = dramTransfer(data.size(), earliest);
    return _ftl->writeBytes(byte_offset, data, buffered);
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
    const PagedFetch fetch = fetchToDram(off, len, start);
    const sim::Tick buffered = fetch.allReady;
    if (fetch.mediaError) {
        // Uncorrectable page: the access time was charged, but no data
        // leaves the device. The host retries (read-retry recoverable).
        obs::traceInstant(
            {_trackPrefix, "ssd.firmware"}, "media_error", "ssd", buffered,
            {.trace = cmd.traceId,
             .status = static_cast<std::uint32_t>(
                 nvme::Status::kMediaError)});
        return {buffered, nvme::Status::kMediaError, 0};
    }
    obs::traceSpan({_trackPrefix, "ssd.dram"}, "fetch", "ssd", start,
                   buffered, {.trace = cmd.traceId, .bytes = len});
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

void
SsdController::writeStats(obs::MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.insertCounter(prefix + ".readCommands", _readCommands.value());
    reg.insertCounter(prefix + ".writeCommands", _writeCommands.value());
    reg.insertCounter(prefix + ".morpheusCommands", _morpheusCommands.value());
    reg.insertCounter(prefix + ".bytesToHost", _bytesToHost.value());
    reg.insertCounter(prefix + ".bytesFromHost", _bytesFromHost.value());
    _flash->writeStats(reg, prefix + ".flash");
    _ftl->writeStats(reg, prefix + ".ftl");
    _nvme.writeStats(reg, prefix + ".nvme");
    _sched->writeStats(reg, prefix + ".sched");
}

}  // namespace morpheus::ssd
