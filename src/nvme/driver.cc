#include "nvme/driver.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace morpheus::nvme {

namespace {

std::uint32_t
key(std::uint16_t qid, std::uint16_t cid)
{
    return (static_cast<std::uint32_t>(qid) << 16) | cid;
}

/** Payload bytes a command moves, as seen from the host. */
std::uint64_t
tracedBytes(const Command &cmd)
{
    switch (cmd.opcode) {
      case Opcode::kMInit:
        return cmd.cdw13;  // code image length
      case Opcode::kMRead:
      case Opcode::kMWrite:
      case Opcode::kRead:
      case Opcode::kWrite:
        return cmd.dataBytes();
      default:
        return 0;
    }
}

}  // namespace

NvmeDriver::NvmeDriver(NvmeController &controller)
    : _controller(controller)
{
}

std::uint16_t
NvmeDriver::openQueue(std::uint16_t entries, pcie::Addr sq_base,
                      pcie::Addr cq_base)
{
    const std::uint16_t qid =
        _controller.createQueuePair(entries, sq_base, cq_base);
    _nextCid[qid] = 0;
    return qid;
}

Submitted
NvmeDriver::submit(std::uint16_t qid, Command cmd)
{
    auto it = _nextCid.find(qid);
    MORPHEUS_ASSERT(it != _nextCid.end(), "submit to unopened queue ",
                    qid);
    cmd.cid = it->second++;
    cmd.traceId = _nextTraceId++;
    SubmissionQueue &sq = _controller.sq(qid);
    MORPHEUS_ASSERT(!sq.full(), "SQ ", qid,
                    " full; increase entries or drain completions");
    sq.push(cmd);
    const bool traced = obs::traceSink() != nullptr;
    if (traced || _recovery.enabled) {
        _inflight[key(qid, cmd.cid)] =
            Inflight{traced ? cmd.traceId : 0, cmd.opcode,
                     tracedBytes(cmd), std::nullopt};
        _unrung[qid].push_back(key(qid, cmd.cid));
    }
    return Submitted{qid, cmd.cid, cmd.traceId};
}

sim::Tick
NvmeDriver::ring(std::uint16_t qid, sim::Tick now)
{
    if (!_inflight.empty()) {
        // The host-visible span starts when the doorbell rings: that is
        // when the command leaves the host's hands, and when its
        // timeout starts to run.
        auto it = _unrung.find(qid);
        if (it != _unrung.end()) {
            for (const std::uint32_t k : it->second) {
                const auto inflight = _inflight.find(k);
                if (inflight != _inflight.end())
                    inflight->second.rungAt = now;
            }
            it->second.clear();
        }
    }
    return _controller.ringDoorbell(qid, now);
}

void
NvmeDriver::noteReaped(std::uint16_t qid, const Completion &cqe)
{
    const auto it = _inflight.find(key(qid, cqe.cid));
    if (it == _inflight.end())
        return;
    const Inflight &t = it->second;
    if (t.trace != 0) {
        obs::traceSpan({_trackPrefix, "host.queue", qid},
                       opcodeName(t.opcode), "nvme", t.rungAt.value_or(0),
                       cqe.postedAt,
                       {.trace = t.trace,
                        .bytes = t.bytes,
                        .status = static_cast<std::uint32_t>(cqe.status)});
    }
    _inflight.erase(it);
}

Completion
NvmeDriver::wait(const Submitted &token)
{
    const auto cached = _pending.find(key(token.qid, token.cid));
    if (cached != _pending.end()) {
        const Completion cqe = cached->second;
        _pending.erase(cached);
        return cqe;
    }
    CompletionQueue &cq = _controller.cq(token.qid);
    while (cq.hasNew()) {
        const Completion cqe = cq.take();
        if (!_inflight.empty())
            noteReaped(token.qid, cqe);
        if (cqe.cid == token.cid)
            return cqe;
        _pending.emplace(key(token.qid, cqe.cid), cqe);
    }
    if (_recovery.enabled) {
        // The CQE never arrived (dropped, or the instance hung and the
        // watchdog suppressed it). Abort the command at its deadline
        // and hand back a host-synthesized timeout completion.
        const auto t = _inflight.find(key(token.qid, token.cid));
        if (t != _inflight.end() && t->second.rungAt) {
            Completion cqe;
            cqe.cid = token.cid;
            cqe.sqId = token.qid;
            cqe.status = Status::kCommandTimeout;
            cqe.postedAt = *t->second.rungAt + kCommandTimeout;
            ++_timeouts;
            obs::traceInstant(
                {_trackPrefix, "host.queue", token.qid}, "timeout_abort",
                "nvme", cqe.postedAt,
                {.trace = t->second.trace,
                 .status = static_cast<std::uint32_t>(cqe.status)});
            _inflight.erase(t);
            return cqe;
        }
    }
    MORPHEUS_PANIC("no completion for qid=", token.qid,
                   " cid=", token.cid,
                   " (command never rung or CQ drained elsewhere)");
}

Completion
NvmeDriver::io(std::uint16_t qid, Command cmd, sim::Tick now)
{
    const Submitted token = submit(qid, cmd);
    ring(qid, now);
    return wait(token);
}

void
NvmeDriver::setRecovery(const DriverRecoveryConfig &cfg)
{
    _recovery = cfg;
    if (cfg.enabled)
        _jitterRng.emplace(kJitterSeed);
    else
        _jitterRng.reset();
}

sim::Tick
NvmeDriver::backoffDelay(unsigned attempt)
{
    // Exponential growth, capped so the shift cannot overflow.
    const sim::Tick base = kBackoffBase << std::min(attempt, 16u);
    double scale = 1.0;
    if (_jitterRng) {
        scale = 1.0 +
                kBackoffJitter * (2.0 * _jitterRng->nextDouble() - 1.0);
    }
    return static_cast<sim::Tick>(static_cast<double>(base) * scale);
}

Completion
NvmeDriver::ioRetry(std::uint16_t qid, Command cmd, sim::Tick now)
{
    sim::Tick t = now;
    for (unsigned attempt = 0;; ++attempt) {
        const Completion cqe = io(qid, cmd, t);
        if (cqe.ok() || !_recovery.enabled || !isRetryable(cqe.status) ||
            attempt >= _recovery.maxRetries) {
            return cqe;
        }
        ++_retries;
        // Busy/over-budget bounces carry an NVMe-style retry-after
        // hint in DW0 (microseconds, derived from arbiter backlog);
        // statuses without a hint back off exponentially.
        sim::Tick delay;
        if ((cqe.status == Status::kInstanceBusy ||
             cqe.status == Status::kDsramExhausted) &&
            cqe.dw0 != 0) {
            delay = sim::Tick(cqe.dw0) * sim::kPsPerUs;
        } else {
            delay = backoffDelay(attempt);
        }
        obs::traceInstant(
            {_trackPrefix, "host.queue", qid}, "retry", "nvme",
            cqe.postedAt,
            {.status = static_cast<std::uint32_t>(cqe.status)});
        t = cqe.postedAt + delay;
    }
}

}  // namespace morpheus::nvme
