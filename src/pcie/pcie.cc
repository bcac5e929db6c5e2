#include "pcie/pcie.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace morpheus::pcie {

double
LinkConfig::bytesPerSecPerLane() const
{
    // Effective per-lane payload bandwidth after 8b/10b (gen1/2) or
    // 128b/130b (gen3+) encoding and ~1.5% protocol overhead.
    switch (gen) {
      case 1:
        return 250.0 * sim::kMBps * 0.985;
      case 2:
        return 500.0 * sim::kMBps * 0.985;
      case 3:
        return 985.0 * sim::kMBps;
      case 4:
        return 1969.0 * sim::kMBps;
      default:
        MORPHEUS_FATAL("unsupported PCIe generation: ", gen);
    }
}

PcieLink::PcieLink(std::string name, const LinkConfig &config)
    : _name(std::move(name)), _config(config),
      _up(_name + ".up"), _down(_name + ".down")
{
    MORPHEUS_ASSERT(config.lanes > 0, "PCIe link with zero lanes");
}

sim::Tick
PcieLink::sendToSwitch(std::uint64_t bytes, sim::Tick earliest)
{
    _bytesUp += bytes;
    const sim::Tick dur =
        sim::transferTicks(bytes, _config.bytesPerSec());
    return _up.acquireUntil(earliest, dur) + _config.latency;
}

sim::Tick
PcieLink::sendToDevice(std::uint64_t bytes, sim::Tick earliest)
{
    _bytesDown += bytes;
    const sim::Tick dur =
        sim::transferTicks(bytes, _config.bytesPerSec());
    return _down.acquireUntil(earliest, dur) + _config.latency;
}

void
PcieLink::registerStats(sim::stats::StatSet &set,
                        const std::string &prefix) const
{
    set.registerCounter(prefix + ".bytesToSwitch", &_bytesUp);
    set.registerCounter(prefix + ".bytesToDevice", &_bytesDown);
}

PortId
PcieSwitch::addPort(const std::string &name, const LinkConfig &config)
{
    _links.push_back(std::make_unique<PcieLink>(name, config));
    return static_cast<PortId>(_links.size() - 1);
}

void
PcieSwitch::mapWindow(Addr base, std::uint64_t size, PortId port,
                      const std::string &name, BusTarget *target)
{
    MORPHEUS_ASSERT(port < _links.size(), "window for unknown port");
    MORPHEUS_ASSERT(size > 0, "empty BAR window: ", name);
    for (const auto &w : _windows) {
        const bool overlap = base < w.base + w.size && w.base < base + size;
        MORPHEUS_ASSERT(!overlap, "BAR windows overlap: ", name, " vs ",
                        w.name);
    }
    _windows.push_back(Window{base, size, port, name, target});
}

void
PcieSwitch::unmapWindow(Addr base)
{
    const auto it = std::find_if(
        _windows.begin(), _windows.end(),
        [base](const Window &w) { return w.base == base; });
    MORPHEUS_ASSERT(it != _windows.end(),
                    "unmapping a window that is not mapped");
    _windows.erase(it);
}

const PcieSwitch::Window &
PcieSwitch::windowAt(Addr addr) const
{
    for (const auto &w : _windows) {
        if (addr >= w.base && addr < w.base + w.size)
            return w;
    }
    MORPHEUS_FATAL("bus address ", addr, " hits no BAR window");
}

PortId
PcieSwitch::routeAddr(Addr addr) const
{
    return windowAt(addr).port;
}

bool
PcieSwitch::isMapped(Addr addr) const
{
    for (const auto &w : _windows) {
        if (addr >= w.base && addr < w.base + w.size)
            return true;
    }
    return false;
}

sim::Tick
PcieSwitch::move(PortId src, PortId dst, std::uint64_t bytes,
                 sim::Tick earliest)
{
    MORPHEUS_ASSERT(src < _links.size() && dst < _links.size(),
                    "DMA through unknown port");
    if (bytes == 0)
        return earliest;
    _fabricBytes += bytes;
    if (src == dst)
        return earliest;  // internal to the device; no fabric time
    if (src != 0 && dst != 0)
        _p2pBytes += bytes;
    // The payload streams through both links concurrently; completion
    // is bounded by the slower reservation.
    const sim::Tick up_done = _links[src]->sendToSwitch(bytes, earliest);
    const sim::Tick down_done =
        _links[dst]->sendToDevice(bytes, earliest);
    const sim::Tick done = std::max(up_done, down_done);
    // Transient-fault draw, one per payload move. Small control-plane
    // transfers (doorbells, SQEs, CQEs) sit below the plan's size
    // threshold and never consume a draw.
    const obs::Track track("pcie.", _links[src]->name(), "->",
                           _links[dst]->name());
    if (auto *fi = sim::faultInjector()) {
        if (fi->dmaFault(bytes)) {
            _dmaFaultPending = true;
            obs::traceInstant(track, "dma_fault", "pcie", done,
                              {.bytes = bytes});
        }
    }
    // Port 0 is the root complex (host DRAM); everything else is
    // device-to-device traffic that never crosses the host.
    obs::traceSpan(track, (src != 0 && dst != 0) ? "p2p_dma" : "dma",
                   "pcie", earliest, done, {.bytes = bytes});
    return done;
}

sim::Tick
PcieSwitch::dmaWrite(PortId src_port, Addr dst_addr, std::uint64_t bytes,
                     sim::Tick earliest)
{
    return move(src_port, routeAddr(dst_addr), bytes, earliest);
}

sim::Tick
PcieSwitch::dmaRead(PortId dst_port, Addr src_addr, std::uint64_t bytes,
                    sim::Tick earliest)
{
    return move(routeAddr(src_addr), dst_port, bytes, earliest);
}

sim::Tick
PcieSwitch::dmaWriteData(PortId src_port, Addr dst_addr,
                         const std::uint8_t *data, std::size_t n,
                         sim::Tick earliest)
{
    poke(dst_addr, data, n);
    return dmaWrite(src_port, dst_addr, n, earliest);
}

sim::Tick
PcieSwitch::dmaReadData(PortId dst_port, Addr src_addr, std::uint8_t *out,
                        std::size_t n, sim::Tick earliest)
{
    peek(src_addr, out, n);
    return dmaRead(dst_port, src_addr, n, earliest);
}

void
PcieSwitch::poke(Addr addr, const std::uint8_t *data, std::size_t n)
{
    const Window &w = windowAt(addr);
    MORPHEUS_ASSERT(w.target, "window ", w.name, " has no BusTarget");
    MORPHEUS_ASSERT(addr + n <= w.base + w.size,
                    "DMA crosses out of window ", w.name);
    w.target->busWrite(addr - w.base, data, n);
}

void
PcieSwitch::peek(Addr addr, std::uint8_t *out, std::size_t n) const
{
    const Window &w = windowAt(addr);
    MORPHEUS_ASSERT(w.target, "window ", w.name, " has no BusTarget");
    MORPHEUS_ASSERT(addr + n <= w.base + w.size,
                    "DMA crosses out of window ", w.name);
    w.target->busRead(addr - w.base, out, n);
}

void
PcieSwitch::registerStats(sim::stats::StatSet &set,
                          const std::string &prefix) const
{
    set.registerCounter(prefix + ".fabricBytes", &_fabricBytes);
    set.registerCounter(prefix + ".p2pBytes", &_p2pBytes);
    for (const auto &l : _links)
        l->registerStats(set, prefix + "." + l->name());
}

}  // namespace morpheus::pcie
