#include "sched/ssd_scheduler.hh"

#include "obs/trace.hh"

namespace morpheus::sched {

namespace {

/** Attribution of a scheduling span about MINIT @p cmd, drawn on the
 *  tenant's track ("sched.tenant[N]", device-prefixed; the tenant ID
 *  rides in cdw15). */
obs::SpanCtx
schedCtx(const nvme::Command &cmd)
{
    return {.trace = cmd.traceId, .tenant = cmd.cdw15,
            .instance = cmd.instanceId};
}

}  // namespace

SsdScheduler::SsdScheduler(const SchedConfig &config, unsigned num_cores,
                           CoreDispatcher::LoadProbe probe,
                           CoreDispatcher::DsramProbe dsram_probe,
                           std::string track_prefix)
    : _trackPrefix(std::move(track_prefix)),
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
        // MINIT repurposes its unused SLBA field to declare the byte
        // length of the upcoming stream (the host knows the extent).
        const AdmitDecision d =
            _arbiter.admitInstance(cmd.instanceId, arrival, cmd.slba);
        const obs::Track track(_trackPrefix, "sched.tenant", cmd.cdw15);
        if (d.retry) {
            obs::traceInstant(track, "admission_bounce", "sched", arrival,
                              schedCtx(cmd));
            return {arrival, nvme::Status::kInstanceBusy,
                    _arbiter.retryAfterHintUs()};
        }
        if (d.start > arrival) {
            obs::traceSpan(track, "admission_wait", "sched", arrival,
                           d.start, schedCtx(cmd));
        }
        return {d.start, nvme::Status::kSuccess};
      }
      case nvme::Opcode::kMRead:
      case nvme::Opcode::kMWrite:
        _arbiter.onDataArrival(cmd.instanceId,
                               cmd.cdw13 ? cmd.cdw13 : cmd.dataBytes());
        return {arrival, nvme::Status::kSuccess};
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
                    schedCtx(cmd));
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
SsdScheduler::writeStats(obs::MetricsRegistry &reg,
                         const std::string &prefix) const
{
    _arbiter.writeStats(reg, prefix + ".arbiter");
    _dispatcher.writeStats(reg, prefix + ".dispatcher");
    reg.insertCounter(prefix + ".dsramBounces", _dsramBounces.value());
}

}  // namespace morpheus::sched
