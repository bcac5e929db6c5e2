/**
 * @file
 * Device-side NVMe queue engine.
 *
 * The controller owns the queue pairs, fetches submission entries over
 * PCIe when the host rings a doorbell, hands each decoded command to
 * the firmware handler (installed by ssd::SsdController), and posts
 * completions + MSI-X interrupts. Command execution itself — flash
 * access, StorageApps, DMA of payload data — lives in the handler.
 */

#ifndef MORPHEUS_NVME_CONTROLLER_HH
#define MORPHEUS_NVME_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nvme/command.hh"
#include "nvme/queue.hh"
#include "obs/metrics.hh"
#include "pcie/pcie.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"

namespace morpheus::nvme {

/** Outcome of executing one command in the firmware handler. */
struct CommandResult
{
    sim::Tick done = 0;
    Status status = Status::kSuccess;
    std::uint32_t dw0 = 0;  ///< Returned in the completion's DW0.
    /** The firmware never posts a CQE for this command (e.g. the
     *  watchdog killed the instance that was executing it); the host
     *  driver recovers via its command timeout. */
    bool dropped = false;
};

/** Firmware entry point: execute @p cmd starting at @p start. */
using CommandHandler =
    std::function<CommandResult(const Command &cmd, sim::Tick start)>;

/** Controller-level parameters. */
struct ControllerConfig
{
    /** MDTS: maximum blocks per I/O command. */
    std::uint32_t maxTransferBlocks = 256;  // 128 KiB at 512 B blocks
    /** Front-end time to decode/dispatch one command. */
    sim::Tick commandOverhead = 1 * sim::kPsPerUs;
    /** MSI-X delivery latency after the CQ entry lands. */
    sim::Tick interruptLatency = 2 * sim::kPsPerUs;
};

/** The NVMe controller inside the SSD. */
class NvmeController
{
  public:
    NvmeController(pcie::PcieSwitch &fabric, pcie::PortId ssd_port,
                   const ControllerConfig &config);

    const ControllerConfig &config() const { return _config; }
    pcie::PortId port() const { return _port; }

    /** Install the firmware command handler. */
    void setHandler(CommandHandler handler);

    /**
     * Fleet runs: prefix the controller's span tracks
     * ("dev1.nvme.frontend") so two controllers' activity doesn't
     * interleave on one trace track. Empty = classic names (device 0).
     */
    void setTrackPrefix(const std::string &prefix)
    {
        _trackPrefix = prefix;
    }

    /**
     * Create an I/O queue pair whose rings notionally live at the host
     * bus addresses @p sq_base / @p cq_base. @return queue id (>= 1;
     * following NVMe, 0 would be the admin queue).
     */
    std::uint16_t createQueuePair(std::uint16_t entries,
                                  pcie::Addr sq_base, pcie::Addr cq_base);

    SubmissionQueue &sq(std::uint16_t qid);
    CompletionQueue &cq(std::uint16_t qid);

    /**
     * Host MMIO write to the SQ tail doorbell. Fetches and executes
     * every pending entry. @return tick when the last completion's
     * interrupt fires.
     */
    sim::Tick ringDoorbell(std::uint16_t qid, sim::Tick now);

    std::uint64_t commandsProcessed() const { return _commands.value(); }

    void writeStats(obs::MetricsRegistry &reg,
                    const std::string &prefix) const;

  private:
    struct QueuePair
    {
        std::uint16_t qid;
        pcie::Addr sqBase;
        pcie::Addr cqBase;
        SubmissionQueue sq;
        CompletionQueue cq;
    };

    /** Validate MDTS and similar front-end checks. */
    Status frontEndCheck(const Command &cmd) const;

    pcie::PcieSwitch &_fabric;
    pcie::PortId _port;
    ControllerConfig _config;
    /** Span-track prefix ("" for device 0, "dev1." etc. in a fleet). */
    std::string _trackPrefix;
    CommandHandler _handler;
    std::vector<std::unique_ptr<QueuePair>> _queues;

    /** Serializes front-end fetch/decode/dispatch. */
    sim::Timeline _frontEnd{"nvme.frontend"};

    sim::stats::Counter _commands;
    sim::stats::Counter _doorbells;
    sim::stats::Counter _interrupts;
    sim::stats::Counter _cqesDropped;
};

}  // namespace morpheus::nvme

#endif  // MORPHEUS_NVME_CONTROLLER_HH
