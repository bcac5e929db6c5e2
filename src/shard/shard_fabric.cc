#include "shard/shard_fabric.hh"

namespace morpheus::shard {

ShardFabric::ShardFabric(host::HostSystem &sys) : _sys(sys), _p2p(sys)
{
    for (unsigned d = 0; d < _sys.numSsds(); ++d) {
        _deviceRuntimes.push_back(
            std::make_unique<core::MorpheusDeviceRuntime>(_sys.ssd(d)));
        _runtimes.push_back(std::make_unique<core::MorpheusRuntime>(
            _sys, *_deviceRuntimes[d], _p2p, d));
    }
}

void
ShardFabric::setRecovery(const nvme::DriverRecoveryConfig &cfg)
{
    for (unsigned d = 0; d < numDevices(); ++d)
        _sys.nvmeDriver(d).setRecovery(cfg);
}

std::uint64_t
ShardFabric::deviceBacklogBytes(unsigned device)
{
    return _sys.ssd(device).scheduler().arbiter().totalDeclaredBacklog();
}

unsigned
ShardFabric::deviceQueueDepth(unsigned device)
{
    auto &ssd = _sys.ssd(device);
    unsigned depth = 0;
    for (unsigned c = 0; c < ssd.numCores(); ++c)
        depth += ssd.scheduler().dispatcher().residents(c);
    return depth;
}

std::uint64_t
ShardFabric::deviceDsramBounces(unsigned device)
{
    return _sys.ssd(device).scheduler().dsramBounces();
}

}  // namespace morpheus::shard
