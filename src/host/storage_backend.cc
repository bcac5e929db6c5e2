#include "host/storage_backend.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace morpheus::host {

// ---------------------------------------------------------------- NVMe

NvmeBackend::NvmeBackend(nvme::NvmeDriver &driver, std::uint16_t qid,
                         HostMemory &host_mem)
    : _driver(driver), _qid(qid), _hostMem(host_mem)
{
}

sim::Tick
NvmeBackend::ingest(std::uint64_t offset,
                    const std::vector<std::uint8_t> &data)
{
    MORPHEUS_ASSERT(offset % nvme::kBlockBytes == 0,
                    "ingest offset must be block aligned");
    // Setup-time write through the normal write path, chunked by MDTS.
    const std::uint64_t mdts_bytes =
        std::uint64_t(_driver.maxTransferBlocks()) * nvme::kBlockBytes;
    std::uint64_t off = 0;
    sim::Tick t = 0;
    while (off < data.size()) {
        const std::uint64_t len =
            std::min<std::uint64_t>(mdts_bytes, data.size() - off);
        const std::uint64_t blocks =
            (len + nvme::kBlockBytes - 1) / nvme::kBlockBytes;

        // Stage the chunk at a scratch host address the device reads.
        // Ingest bypasses measured phases, so we use a fixed scratch
        // buffer high in host memory.
        const pcie::Addr scratch = 8ULL * sim::kGiB;
        nvme::Command cmd;
        cmd.opcode = nvme::Opcode::kWrite;
        cmd.prp1 = scratch;
        cmd.slba = (offset + off) / nvme::kBlockBytes;
        cmd.nlb = static_cast<std::uint16_t>(blocks - 1);
        // The functional payload must be visible at the scratch
        // address before the device DMA-reads it (store() directly so
        // setup does not perturb the measured bus counters). The last
        // block's padding is zeroed: the buffer holds the previous
        // chunk.
        static constexpr std::uint8_t kZeros[nvme::kBlockBytes] = {};
        _hostMem.store().write(scratch, data.data() + off, len);
        _hostMem.store().write(scratch + len, kZeros,
                               blocks * nvme::kBlockBytes - len);
        // ioRetry so setup survives injected transient faults; with
        // recovery disabled it is exactly io().
        const nvme::Completion cqe = _driver.ioRetry(_qid, cmd, t);
        MORPHEUS_ASSERT(cqe.ok(), "ingest write failed: status=",
                        nvme::statusName(cqe.status));
        t = cqe.postedAt;
        off += len;
    }
    return t;
}

IoResult
NvmeBackend::read(std::uint64_t offset, std::uint64_t len,
                  pcie::Addr dst, sim::Tick earliest)
{
    MORPHEUS_ASSERT(offset % nvme::kBlockBytes == 0,
                    "read offset must be block aligned");
    const std::uint64_t mdts_bytes =
        std::uint64_t(_driver.maxTransferBlocks()) * nvme::kBlockBytes;
    std::uint64_t off = 0;
    sim::Tick done = earliest;
    while (off < len) {
        const std::uint64_t take =
            std::min<std::uint64_t>(mdts_bytes, len - off);
        const std::uint64_t blocks =
            (take + nvme::kBlockBytes - 1) / nvme::kBlockBytes;
        nvme::Command cmd;
        cmd.opcode = nvme::Opcode::kRead;
        cmd.prp1 = dst + off;
        cmd.slba = (offset + off) / nvme::kBlockBytes;
        cmd.nlb = static_cast<std::uint16_t>(blocks - 1);
        // The fallback serving path reads through here while faults
        // are firing: retryable failures (media, transient DMA) are
        // absorbed by the driver's bounded retry budget, and what
        // outlasts it (a CQE dropped on every attempt) goes back to
        // the caller.
        const nvme::Completion cqe =
            _driver.ioRetry(_qid, cmd, earliest);
        done = std::max(done, cqe.postedAt);
        if (!cqe.ok())
            return {done, cqe.status};
        off += take;
    }
    return {done};
}

// -----------------------------------------------------------------HDD

HddBackend::HddBackend(HostMemory &host_mem) : _hostMem(host_mem) {}

sim::Tick
HddBackend::ingest(std::uint64_t offset,
                   const std::vector<std::uint8_t> &data)
{
    _platter.writeVec(offset, data);
    return 0;
}

IoResult
HddBackend::read(std::uint64_t offset, std::uint64_t len, pcie::Addr dst,
                 sim::Tick earliest)
{
    // Seek when the head is not already positioned at the request.
    sim::Tick dur = sim::transferTicks(len, bytesPerSec);
    if (offset != _headPos)
        dur += seekTime;
    _headPos = offset + len;
    const sim::Tick done = _arm.acquireUntil(earliest, dur);

    const auto data = _platter.readVec(offset, len);
    _hostMem.busWrite(dst, data.data(), data.size());
    return {done};
}

// ----------------------------------------------------------- RAM drive

RamDriveBackend::RamDriveBackend(HostMemory &host_mem)
    : _hostMem(host_mem)
{
}

sim::Tick
RamDriveBackend::ingest(std::uint64_t offset,
                        const std::vector<std::uint8_t> &data)
{
    _image.writeVec(offset, data);
    return 0;
}

IoResult
RamDriveBackend::read(std::uint64_t offset, std::uint64_t len,
                      pcie::Addr dst, sim::Tick earliest)
{
    // A RAM-drive read is a kernel memcpy: the source and destination
    // both live in DRAM, so the payload crosses the memory bus twice.
    const auto data = _image.readVec(offset, len);
    _hostMem.busWrite(dst, data.data(), data.size());
    return {_hostMem.cpuAccess(len, len, earliest)};
}

}  // namespace morpheus::host
