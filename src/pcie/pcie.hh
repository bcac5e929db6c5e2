/**
 * @file
 * PCIe fabric model: point-to-point links, a switch with BAR-window
 * address routing, and DMA transfers — including peer-to-peer paths
 * that never touch the host port (the mechanism NVMe-P2P relies on).
 *
 * Addresses form a single flat bus address space. The host's DRAM
 * occupies a window at 0; devices that expose device memory (the GPU,
 * via DirectGMA/GPUDirect-style mapping) register BAR windows at high
 * addresses. A DMA is routed by destination (or source) address: if
 * both endpoints are downstream ports, the packet path is
 * device -> switch -> device and the host uplink carries nothing.
 */

#ifndef MORPHEUS_PCIE_PCIE_HH
#define MORPHEUS_PCIE_PCIE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"

namespace morpheus::pcie {

/** Bus address (flat across host DRAM and device BARs). */
using Addr = std::uint64_t;

/**
 * Functional memory behind a BAR window. Devices implement this so DMA
 * moves real bytes end-to-end (application objects can be compared
 * bit-for-bit across execution paths).
 */
class BusTarget
{
  public:
    virtual ~BusTarget() = default;
    /** Store @p n bytes at window-relative offset @p offset. */
    virtual void busWrite(Addr offset, const std::uint8_t *data,
                          std::size_t n) = 0;
    /** Load @p n bytes from window-relative offset @p offset. */
    virtual void busRead(Addr offset, std::uint8_t *out,
                         std::size_t n) const = 0;
};

/** Per-port link parameters. */
struct LinkConfig
{
    unsigned gen = 3;
    unsigned lanes = 4;
    /** Per-transaction latency (posted write / completion). */
    sim::Tick latency = 500 * sim::kPsPerNs;

    /**
     * Effective per-lane bandwidth in bytes/sec after encoding and
     * protocol overhead (gen1 ~250 MB/s ... gen3 ~985 MB/s).
     */
    double bytesPerSecPerLane() const;

    double
    bytesPerSec() const
    {
        return bytesPerSecPerLane() * lanes;
    }
};

/** A full-duplex link between one port and the switch. */
class PcieLink
{
  public:
    PcieLink(std::string name, const LinkConfig &config);

    const LinkConfig &config() const { return _config; }
    const std::string &name() const { return _name; }

    /** Reserve the device->switch direction. @return completion tick. */
    sim::Tick sendToSwitch(std::uint64_t bytes, sim::Tick earliest);
    /** Reserve the switch->device direction. @return completion tick. */
    sim::Tick sendToDevice(std::uint64_t bytes, sim::Tick earliest);

    std::uint64_t bytesToSwitch() const { return _bytesUp.value(); }
    std::uint64_t bytesToDevice() const { return _bytesDown.value(); }
    std::uint64_t totalBytes() const
    {
        return _bytesUp.value() + _bytesDown.value();
    }

    void writeStats(obs::MetricsRegistry &reg,
                    const std::string &prefix) const;

  private:
    std::string _name;
    LinkConfig _config;
    sim::Timeline _up;
    sim::Timeline _down;
    sim::stats::Counter _bytesUp;
    sim::stats::Counter _bytesDown;
};

/** Identifier of a switch port. */
using PortId = unsigned;

/**
 * PCIe switch: owns the per-port links, the bus address map, and the
 * DMA routing logic.
 */
class PcieSwitch
{
  public:
    PcieSwitch() = default;

    /** Attach a device; @return its port id. Port 0 should be the host
     *  root complex by convention. */
    PortId addPort(const std::string &name, const LinkConfig &config);

    /**
     * Map [base, base+size) to @p port (a BAR window or the host DRAM
     * window). Windows must not overlap.
     */
    void mapWindow(Addr base, std::uint64_t size, PortId port,
                   const std::string &name, BusTarget *target = nullptr);

    /** Remove a previously mapped window starting at @p base. */
    void unmapWindow(Addr base);

    /** Port owning @p addr; fatal if unmapped. */
    PortId routeAddr(Addr addr) const;

    /** True if some window covers @p addr. */
    bool isMapped(Addr addr) const;

    /**
     * DMA @p bytes from @p src_port into the window containing
     * @p dst_addr.
     *
     * The data crosses src's upstream direction and the destination
     * port's downstream direction concurrently; if src and dst are the
     * same port the transfer is internal (no fabric time). @return
     * completion tick.
     */
    sim::Tick dmaWrite(PortId src_port, Addr dst_addr,
                       std::uint64_t bytes, sim::Tick earliest);

    /** DMA @p bytes from the window containing @p src_addr to
     *  @p dst_port (a read request issued by dst). */
    sim::Tick dmaRead(PortId dst_port, Addr src_addr,
                      std::uint64_t bytes, sim::Tick earliest);

    /**
     * Timed + functional DMA: deliver @p data into the window holding
     * @p dst_addr (which must have a BusTarget) while reserving fabric
     * time as dmaWrite() does. @return completion tick.
     */
    sim::Tick dmaWriteData(PortId src_port, Addr dst_addr,
                           const std::uint8_t *data, std::size_t n,
                           sim::Tick earliest);

    /**
     * Timed + functional DMA read: fetch @p n bytes from the window
     * holding @p src_addr into @p out. @return completion tick.
     */
    sim::Tick dmaReadData(PortId dst_port, Addr src_addr,
                          std::uint8_t *out, std::size_t n,
                          sim::Tick earliest);

    /** Zero-time functional store into the window holding @p addr. */
    void poke(Addr addr, const std::uint8_t *data, std::size_t n);

    /** Zero-time functional load from the window holding @p addr. */
    void peek(Addr addr, std::uint8_t *out, std::size_t n) const;

    PcieLink &link(PortId port) { return *_links.at(port); }
    const PcieLink &link(PortId port) const { return *_links.at(port); }

    /**
     * Fault injection: check-and-clear the transient-fault flag set by
     * the last DMA move. The fabric charges full transfer time for a
     * faulted move (the TLPs crossed the wire; the completion was
     * poisoned), so callers observe the fault after the fact, decide
     * how to recover (retry, fail the command), and the flag never
     * leaks into an unrelated later transfer.
     */
    bool
    consumeDmaFault()
    {
        const bool f = _dmaFaultPending;
        _dmaFaultPending = false;
        return f;
    }

    /** Total bytes moved across the fabric (each payload counted once). */
    std::uint64_t fabricBytes() const { return _fabricBytes.value(); }

    /** Bytes that moved device-to-device without touching the host. */
    std::uint64_t p2pBytes() const { return _p2pBytes.value(); }

    void writeStats(obs::MetricsRegistry &reg,
                    const std::string &prefix) const;

  private:
    struct Window
    {
        Addr base;
        std::uint64_t size;
        PortId port;
        std::string name;
        BusTarget *target = nullptr;
    };

    const Window &windowAt(Addr addr) const;

    sim::Tick move(PortId src, PortId dst, std::uint64_t bytes,
                   sim::Tick earliest);

    std::vector<std::unique_ptr<PcieLink>> _links;
    std::vector<Window> _windows;
    sim::stats::Counter _fabricBytes;
    sim::stats::Counter _p2pBytes;
    bool _dmaFaultPending = false;
};

}  // namespace morpheus::pcie

#endif  // MORPHEUS_PCIE_PCIE_HH
