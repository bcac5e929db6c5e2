#include "host/host_exec.hh"

#include <algorithm>

#include "nvme/command.hh"
#include "sim/logging.hh"

namespace morpheus::host {

IoResult
hostExecute(HostSystem &sys, const HostExecRequest &req, unsigned core,
            sim::Tick when)
{
    MORPHEUS_ASSERT(req.chunkBytes > 0 &&
                        req.chunkBytes % nvme::kBlockBytes == 0,
                    "host path chunk size is not whole blocks");
    OsModel &os = sys.os();
    HostCpu &cpu = sys.cpu();

    const std::uint64_t range = req.extent.sizeBytes;
    const std::uint64_t file_bytes =
        std::max<std::uint64_t>(1, req.fileBytes ? req.fileBytes
                                                 : range);
    // Object bytes this range delivers; exact for the whole file
    // (range == fileBytes), prorated for a split's remainder.
    const std::uint64_t obj_bytes =
        range == file_bytes ? req.objectBytes
                            : req.objectBytes * range / file_bytes;

    // Raw staging buffer X and the object buffer Y. A split's
    // remainder can start mid-block; the device reads whole blocks,
    // so each read is aligned down and X holds the skew in front of
    // the chunk (nothing extra for a block-aligned extent).
    const std::uint64_t x_bytes =
        req.chunkBytes + req.extent.startByte % nvme::kBlockBytes;
    const pcie::Addr buf_x = sys.allocHost(x_bytes);
    const pcie::Addr buf_y = sys.allocHost(obj_bytes);
    const sim::Tick opened = os.syscall(core, when);  // open()
    sim::Tick cpu_cursor = os.pageFaults(
        core, os.faultsForBytes(obj_bytes), opened);

    // The reference parse cost covers the whole file; each chunk's
    // conversion charge is its prorated share.
    const double total_convert =
        cpu.convertCycles(req.cost) * req.costScale;
    nvme::Status status = nvme::Status::kSuccess;
    std::uint64_t offset = 0;
    while (offset < range) {
        const std::uint64_t len =
            std::min<std::uint64_t>(req.chunkBytes, range - offset);
        // The kernel's readahead keeps a deep queue at the device:
        // every chunk is issued at `when` and the device-side
        // timelines serialize them. Align the I/O down to its block.
        const std::uint64_t start = req.extent.startByte + offset;
        const std::uint64_t skew = start % nvme::kBlockBytes;
        const IoResult io =
            req.backend.read(start - skew, len + skew, buf_x, when);
        if (!io.ok()) {
            // read() failed: the conversion stops where the host
            // sees the error.
            status = io.status;
            cpu_cursor = std::max(cpu_cursor, io.done);
            break;
        }
        // read() syscall + FS work + blocking switch pair, then the
        // string-to-binary conversion itself.
        const sim::Tick ready = std::max(cpu_cursor, io.done);
        const sim::Tick fs_done =
            os.blockingReadOverhead(core, len, ready);
        const double convert = total_convert *
                               static_cast<double>(len) /
                               static_cast<double>(file_bytes);
        cpu_cursor = cpu.execute(core, convert, fs_done);
        // Raw out of X (the DMA into X is the backend's), objects
        // into Y.
        sys.mem().cpuAccess(len, obj_bytes * len / range, fs_done);
        offset += len;
    }

    sys.freeHost(buf_x, x_bytes);
    sys.freeHost(buf_y, obj_bytes);

    obs::traceSpan("host.exec", "host_exec", "host", when, cpu_cursor,
                   {.trace = req.trace, .tenant = req.tenant});
    return {cpu_cursor, status};
}

}  // namespace morpheus::host
