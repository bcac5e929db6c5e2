#include "nvme/controller.hh"

#include <algorithm>
#include <utility>

#include "obs/trace.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace morpheus::nvme {

NvmeController::NvmeController(pcie::PcieSwitch &fabric,
                               pcie::PortId ssd_port,
                               const ControllerConfig &config)
    : _fabric(fabric), _port(ssd_port), _config(config)
{
    MORPHEUS_ASSERT(_config.maxTransferBlocks > 0, "MDTS of zero");
}

void
NvmeController::setHandler(CommandHandler handler)
{
    _handler = std::move(handler);
}

std::uint16_t
NvmeController::createQueuePair(std::uint16_t entries, pcie::Addr sq_base,
                                pcie::Addr cq_base)
{
    const auto qid = static_cast<std::uint16_t>(_queues.size() + 1);
    auto qp = std::make_unique<QueuePair>(QueuePair{
        qid, sq_base, cq_base, SubmissionQueue(entries),
        CompletionQueue(entries)});
    _queues.push_back(std::move(qp));
    return qid;
}

SubmissionQueue &
NvmeController::sq(std::uint16_t qid)
{
    MORPHEUS_ASSERT(qid >= 1 && qid <= _queues.size(), "bad qid ", qid);
    return _queues[qid - 1]->sq;
}

CompletionQueue &
NvmeController::cq(std::uint16_t qid)
{
    MORPHEUS_ASSERT(qid >= 1 && qid <= _queues.size(), "bad qid ", qid);
    return _queues[qid - 1]->cq;
}

Status
NvmeController::frontEndCheck(const Command &cmd) const
{
    switch (cmd.opcode) {
      case Opcode::kRead:
      case Opcode::kWrite:
      case Opcode::kMRead:
      case Opcode::kMWrite:
        if (cmd.numBlocks() > _config.maxTransferBlocks)
            return Status::kInvalidField;
        return Status::kSuccess;
      case Opcode::kFlush:
      case Opcode::kDsm:
      case Opcode::kMInit:
      case Opcode::kMDeinit:
        return Status::kSuccess;
    }
    return Status::kInvalidOpcode;
}

sim::Tick
NvmeController::ringDoorbell(std::uint16_t qid, sim::Tick now)
{
    MORPHEUS_ASSERT(_handler, "doorbell rung with no firmware handler");
    MORPHEUS_ASSERT(qid >= 1 && qid <= _queues.size(), "bad qid ", qid);
    QueuePair &qp = *_queues[qid - 1];
    ++_doorbells;

    // The doorbell is a 4-byte posted MMIO write into the controller's
    // register BAR: one downlink hop.
    sim::Tick cursor =
        _fabric.link(_port).sendToDevice(4, now);

    sim::Tick last_done = cursor;
    while (!qp.sq.empty()) {
        // Fetch the 64-byte SQE from host memory.
        const sim::Tick fetched =
            _fabric.dmaRead(_port, qp.sqBase, kCommandBytes, cursor);
        const Command cmd = qp.sq.pop();

        // Front-end decode/dispatch occupancy.
        const sim::Tick dispatched =
            _frontEnd.acquireUntil(fetched, _config.commandOverhead);

        CommandResult result;
        const Status fe = frontEndCheck(cmd);
        if (fe != Status::kSuccess) {
            result.done = dispatched;
            result.status = fe;
        } else {
            result = _handler(cmd, dispatched);
        }
        ++_commands;

        // Front-end decode/dispatch occupancy (acquireUntil returns
        // start + commandOverhead, so the begin tick is exact).
        obs::traceSpan({_trackPrefix, "nvme.frontend"}, "dispatch", "nvme",
                       dispatched - _config.commandOverhead, dispatched,
                       {.trace = cmd.traceId});
        const obs::SpanCtx exec_ctx{
            .trace = cmd.traceId,
            .instance = cmd.instanceId,
            .status = static_cast<std::uint32_t>(result.status)};
        if (result.done > dispatched) {
            // Umbrella over the firmware's handling of the command; the
            // device layers nest their own spans inside it.
            obs::traceSpan({_trackPrefix, "nvme.exec", qid},
                           opcodeName(cmd.opcode), "nvme", dispatched,
                           result.done, exec_ctx);
        }

        // Dropped-CQE fault: the command executed (and its side effects
        // stand) but the completion never reaches the host — either the
        // handler said so (watchdog-killed instance) or the injector
        // eats it here. The host driver's command timeout recovers.
        bool drop = result.dropped;
        if (!drop) {
            if (auto *fi = sim::faultInjector())
                drop = fi->dropCqe();
        }
        if (drop) {
            ++_cqesDropped;
            obs::traceInstant({_trackPrefix, "nvme.exec", qid},
                              "cqe_dropped", "nvme", result.done, exec_ctx);
            last_done = std::max(last_done, result.done);
            cursor = fetched;
            continue;
        }

        // Post the 16-byte CQE to host memory, then raise MSI-X.
        const sim::Tick posted = _fabric.dmaWrite(
            _port, qp.cqBase, kCompletionBytes, result.done);
        const sim::Tick irq = posted + _config.interruptLatency;
        ++_interrupts;

        Completion cqe;
        cqe.dw0 = result.dw0;
        cqe.sqHead = qp.sq.head();
        cqe.sqId = qid;
        cqe.cid = cmd.cid;
        cqe.status = result.status;
        cqe.postedAt = irq;
        qp.cq.post(cqe);

        last_done = std::max(last_done, irq);
        cursor = fetched;  // next fetch may overlap execution
    }
    return last_done;
}

void
NvmeController::registerStats(sim::stats::StatSet &set,
                              const std::string &prefix) const
{
    set.registerCounter(prefix + ".commands", &_commands);
    set.registerCounter(prefix + ".doorbells", &_doorbells);
    set.registerCounter(prefix + ".interrupts", &_interrupts);
    set.registerCounter(prefix + ".cqesDropped", &_cqesDropped);
}

}  // namespace morpheus::nvme
