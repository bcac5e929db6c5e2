#include "host/host_exec.hh"

#include <algorithm>

#include "nvme/command.hh"

namespace morpheus::host {

const char *
hostExecReasonName(HostExecReason r)
{
    switch (r) {
      case HostExecReason::kBreaker:
        return "breaker";
      case HostExecReason::kProbe:
        return "probe";
      case HostExecReason::kOverload:
        return "overload";
      case HostExecReason::kSplit:
        return "split";
    }
    return "?";
}

HostExecEngine::HostExecEngine(HostSystem &sys, double cost_scale)
    : _sys(sys), _costScale(cost_scale)
{
}

sim::Tick
HostExecEngine::execute(const HostExecRequest &req, unsigned core,
                        sim::Tick when)
{
    OsModel &os = _sys.os();
    HostCpu &cpu = _sys.cpu();

    const std::uint64_t range = req.extent.sizeBytes;
    const std::uint64_t file_bytes =
        std::max<std::uint64_t>(1, req.fileBytes ? req.fileBytes
                                                 : range);
    // Object bytes this range delivers; exact for the whole file
    // (range == fileBytes), prorated for a split's remainder.
    const std::uint64_t obj_bytes =
        range == file_bytes ? req.objectBytes
                            : req.objectBytes * range / file_bytes;

    // Raw staging buffer X and the object buffer Y.
    const pcie::Addr buf_x = _sys.allocHost(kChunkBytes);
    const pcie::Addr buf_y = _sys.allocHost(obj_bytes);
    const sim::Tick opened = os.syscall(core, when);  // open()
    sim::Tick cpu_cursor = os.pageFaults(
        core, os.faultsForBytes(obj_bytes), opened);

    // The reference parse cost covers the whole file; each chunk's
    // conversion charge is its prorated share.
    const double total_convert =
        cpu.convertCycles(req.cost) * _costScale;
    std::uint64_t offset = 0;
    while (offset < range) {
        const std::uint64_t len =
            std::min<std::uint64_t>(kChunkBytes, range - offset);
        // A split's remainder can start mid-block; the device reads
        // whole blocks, so align the I/O down (a no-op — identical
        // call — for the block-aligned whole-extent path).
        const std::uint64_t start = req.extent.startByte + offset;
        const std::uint64_t skew = start % nvme::kBlockBytes;
        const sim::Tick io_done = _sys.ssdBackend(req.device).read(
            start - skew, len + skew, buf_x, when);
        const sim::Tick ready = std::max(cpu_cursor, io_done);
        const sim::Tick fs_done =
            os.blockingReadOverhead(core, len, ready);
        const double convert = total_convert *
                               static_cast<double>(len) /
                               static_cast<double>(file_bytes);
        cpu_cursor = cpu.execute(core, convert, fs_done);
        _sys.mem().cpuAccess(len, obj_bytes * len / range, fs_done);
        offset += len;
    }

    _sys.freeHost(buf_x, kChunkBytes);
    _sys.freeHost(buf_y, obj_bytes);

    ++_execs[static_cast<std::size_t>(req.reason)];
    _deliveredBytes += obj_bytes;

    obs::traceSpan("host.exec", "host_exec", "host", when, cpu_cursor,
                   {.trace = req.trace, .tenant = req.tenant});
    return cpu_cursor;
}

double
HostExecEngine::coreBacklogUs(unsigned core, sim::Tick now) const
{
    const sim::Tick free_at =
        _sys.cpu().coreTimeline(core).freeAt();
    if (free_at <= now)
        return 0.0;
    return static_cast<double>(free_at - now) /
           static_cast<double>(sim::kPsPerUs);
}

unsigned
HostExecEngine::leastLoadedCore(sim::Tick now) const
{
    const unsigned cores = _sys.cpu().config().cores;
    unsigned best = 0;
    sim::Tick best_free = _sys.cpu().coreTimeline(0).freeAt();
    for (unsigned c = 1; c < cores; ++c) {
        const sim::Tick f = _sys.cpu().coreTimeline(c).freeAt();
        if (f < best_free) {
            best_free = f;
            best = c;
        }
    }
    (void)now;
    return best;
}

double
HostExecEngine::minBacklogUs(sim::Tick now) const
{
    return coreBacklogUs(leastLoadedCore(now), now);
}

std::uint64_t
HostExecEngine::totalExecutions() const
{
    std::uint64_t sum = 0;
    for (const std::uint64_t n : _execs)
        sum += n;
    return sum;
}

}  // namespace morpheus::host
