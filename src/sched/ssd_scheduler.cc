#include "sched/ssd_scheduler.hh"

#include "obs/trace.hh"

namespace morpheus::sched {

namespace {

/** Attribution of a scheduling span about @p cmd, drawn on the
 *  tenant's track ("sched.tenant[N]", device-prefixed). */
obs::SpanCtx
schedCtx(const nvme::Command &cmd, std::uint32_t tenant)
{
    return {.trace = cmd.traceId, .tenant = tenant,
            .instance = cmd.instanceId};
}

}  // namespace

SsdScheduler::SsdScheduler(const SchedConfig &config, unsigned num_cores,
                           CoreDispatcher::LoadProbe probe,
                           CoreDispatcher::DsramProbe dsram_probe,
                           std::string track_prefix)
    : _config(config), _trackPrefix(std::move(track_prefix)),
      _arbiter(config),
      _dispatcher(config, num_cores, std::move(probe),
                  std::move(dsram_probe), _trackPrefix)
{
}

FrontEndDecision
SsdScheduler::admitCommand(const nvme::Command &cmd, sim::Tick arrival)
{
    switch (cmd.opcode) {
      case nvme::Opcode::kMInit: {
        // Overload valve: refuse work the device could not start for a
        // long time anyway, with a retry-after hint sized to the drain
        // rate, so the host can spill or back off instead of queueing.
        if (_config.overloadBacklogLimit > 0 &&
            _arbiter.totalDeclaredBacklog() + cmd.slba >
                _config.overloadBacklogLimit) {
            ++_overloadBounces;
            obs::traceInstant({_trackPrefix, "sched.tenant", cmd.cdw15},
                              "overload_bounce", "sched", arrival,
                              schedCtx(cmd, cmd.cdw15));
            return {arrival, nvme::Status::kOverloaded,
                    _arbiter.retryAfterHintUs()};
        }
        // MINIT repurposes its unused SLBA field to declare the byte
        // length of the upcoming stream (the host knows the extent).
        const AdmitDecision d = _arbiter.admitInstance(
            cmd.cdw15, cmd.instanceId, arrival, cmd.slba);
        const obs::Track track(_trackPrefix, "sched.tenant", cmd.cdw15);
        if (d.rejected) {
            obs::traceInstant(track, "admission_reject", "sched", arrival,
                              schedCtx(cmd, cmd.cdw15));
        } else if (d.retry) {
            obs::traceInstant(track, "admission_bounce", "sched", arrival,
                              schedCtx(cmd, cmd.cdw15));
        } else if (d.start > arrival) {
            obs::traceSpan(track, "admission_wait", "sched", arrival,
                           d.start, schedCtx(cmd, cmd.cdw15));
        }
        if (d.rejected)
            return {arrival, nvme::Status::kAdmissionDenied};
        if (d.retry) {
            return {arrival, nvme::Status::kInstanceBusy,
                    _arbiter.retryAfterHintUs()};
        }
        return {d.start, nvme::Status::kSuccess};
      }
      case nvme::Opcode::kMRead:
      case nvme::Opcode::kMWrite: {
        const std::uint64_t bytes =
            cmd.cdw13 ? cmd.cdw13 : cmd.dataBytes();
        const sim::Tick start =
            _arbiter.admitData(cmd.instanceId, bytes, arrival);
        // The tenant lookup is paid only when the span is recorded.
        if (start > arrival && obs::traceSink()) {
            const std::uint32_t tenant = _arbiter.tenantOf(cmd.instanceId);
            obs::traceSpan({_trackPrefix, "sched.tenant", tenant},
                           "drr_wait", "sched", arrival, start,
                           schedCtx(cmd, tenant));
        }
        return {start, nvme::Status::kSuccess};
      }
      default:
        return {arrival, nvme::Status::kSuccess};
    }
}

void
SsdScheduler::onCommandDone(const nvme::Command &cmd, sim::Tick start,
                            const nvme::CommandResult &result)
{
    switch (cmd.opcode) {
      case nvme::Opcode::kMInit:
        if (result.status != nvme::Status::kSuccess) {
            if (result.status == nvme::Status::kDsramExhausted) {
                ++_dsramBounces;
                obs::traceInstant(
                    {_trackPrefix, "sched.tenant", cmd.cdw15},
                    "dsram_bounce", "sched", result.done,
                    schedCtx(cmd, cmd.cdw15));
            }
            // The runtime refused the instance after admission (bad
            // image, duplicate ID): free its slot and placement.
            _arbiter.dropInstance(cmd.instanceId);
            _dispatcher.releaseInstance(cmd.instanceId);
        }
        break;
      case nvme::Opcode::kMRead:
      case nvme::Opcode::kMWrite:
        if (result.status == nvme::Status::kSuccess) {
            const std::uint64_t bytes =
                cmd.cdw13 ? cmd.cdw13 : cmd.dataBytes();
            _arbiter.onDataDone(bytes, start, result.done);
            // Drain the dispatcher's per-core pending-bytes packing
            // signal in step with the arbiter's declared backlog.
            _dispatcher.noteServedBytes(cmd.instanceId, bytes);
        }
        break;
      case nvme::Opcode::kMDeinit:
        if (result.status == nvme::Status::kSuccess) {
            _arbiter.onInstanceDone(cmd.instanceId, result.done);
            _dispatcher.releaseInstance(cmd.instanceId);
        }
        break;
      default:
        break;
    }
}

void
SsdScheduler::registerStats(sim::stats::StatSet &set,
                            const std::string &prefix) const
{
    _arbiter.registerStats(set, prefix + ".arbiter");
    _dispatcher.registerStats(set, prefix + ".dispatcher");
    set.registerCounter(prefix + ".dsramBounces", &_dsramBounces);
    set.registerCounter(prefix + ".overloadBounces", &_overloadBounces);
}

}  // namespace morpheus::sched
