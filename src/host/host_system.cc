#include "host/host_system.hh"

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace morpheus::host {

namespace {

/** Queue rings live in a small reserved region of host DRAM; each
 *  device's rings occupy a disjoint 1 MiB stripe. */
constexpr pcie::Addr kQueueRingBase = 1 * sim::kMiB;
constexpr pcie::Addr kQueueRingStride = 1 * sim::kMiB;
static_assert(kQueueRingBase + kMaxSsds * kQueueRingStride <
                  8ULL * sim::kGiB,
              "queue rings collide with the ingest scratch area");
// Each queue pair's SQ and CQ rings take 64 KiB apiece, SQs in the
// stripe's low half and CQs in its high half.
static_assert(kIoQueues * 64 * sim::kKiB <= kQueueRingStride / 2,
              "queue rings overflow their per-device stripe");
/** General allocations start above the ingest scratch area. */
constexpr pcie::Addr kAllocBase = 9ULL * sim::kGiB;

/** Host allocations are whole 4 KiB pages. */
std::uint64_t
pageRound(std::uint64_t bytes)
{
    return (bytes + 4095) & ~std::uint64_t(4095);
}

}  // namespace

ssd::SsdConfig
HostSystem::deviceConfig(unsigned d) const
{
    ssd::SsdConfig cfg = _config.ssd;
    // Device 0 keeps the template's (empty) label so the single-SSD
    // trace tracks stay bit-identical; fleet devices get one.
    if (d > 0)
        cfg.label = "dev" + std::to_string(d);
    return cfg;
}

HostSystem::HostSystem(const SystemConfig &config)
    : _config(config),
      _hostPort(_fabric.addPort("host", config.hostLink)),
      _ssdPorts{_fabric.addPort("ssd", config.ssdLink)},
      _gpuPort(_fabric.addPort("gpu", config.gpuLink)),
      _mem(config.mem),
      _cpu(config.cpu),
      _os(config.os, _cpu),
      _power(config.power),
      _gpu(std::make_unique<Gpu>(_fabric, _gpuPort, config.gpu)),
      _hostAllocTop(kAllocBase),
      _hostAllocBase(kAllocBase)
{
    const unsigned num_ssds = config.numSsds;
    MORPHEUS_ASSERT(num_ssds >= 1 && num_ssds <= kMaxSsds,
                    "numSsds = ", num_ssds, " outside [1, ", kMaxSsds,
                    "]");
    MORPHEUS_ASSERT(_hostPort == 0,
                    "host root complex must be port 0 by convention");
    // Host DRAM window at bus address 0.
    _fabric.mapWindow(0, _mem.config().size, _hostPort, "host-dram",
                      &_mem);

    // Extra fleet SSDs take ports after the GPU's so the classic
    // host/ssd/gpu numbering (and every single-SSD trace) is
    // untouched.
    for (unsigned d = 1; d < num_ssds; ++d) {
        _ssdPorts.push_back(
            _fabric.addPort("ssd" + std::to_string(d), config.ssdLink));
    }

    for (unsigned d = 0; d < num_ssds; ++d) {
        _ssds.push_back(std::make_unique<ssd::SsdController>(
            _fabric, _ssdPorts[d], deviceConfig(d)));
        auto driver = std::make_unique<nvme::NvmeDriver>(
            _ssds[d]->nvme());
        if (d > 0) {
            // Device d's host-side tracks and trace-id block; device 0
            // keeps base 0 / no prefix, bit-identical to pre-fleet.
            driver->setTrackPrefix(_ssds[d]->trackPrefix());
            driver->setTraceIdBase(static_cast<obs::TraceId>(d) << 24);
        }
        _drivers.push_back(std::move(driver));

        const pcie::Addr ring_base =
            kQueueRingBase + d * kQueueRingStride;
        std::vector<std::uint16_t> dev_queues;
        for (unsigned q = 0; q < kIoQueues; ++q) {
            dev_queues.push_back(_drivers[d]->openQueue(
                config.queueEntries,
                ring_base + q * 64 * sim::kKiB,
                ring_base + 512 * sim::kKiB + q * 64 * sim::kKiB));
        }
        _ioQueues.push_back(std::move(dev_queues));
        _ssdBackends.push_back(std::make_unique<NvmeBackend>(
            *_drivers[d], _ioQueues[d].front(), _mem));
        _nextFileByte.push_back(0);
    }
}

pcie::Addr
HostSystem::allocHost(std::uint64_t bytes)
{
    const std::uint64_t size = pageRound(bytes);
    const auto it = _hostFree.find(size);
    if (it != _hostFree.end() && !it->second.empty()) {
        const pcie::Addr addr = it->second.back();
        it->second.pop_back();
        return addr;
    }
    const pcie::Addr addr = _hostAllocTop;
    _hostAllocTop += size;
    MORPHEUS_ASSERT(_hostAllocTop <= _mem.config().size,
                    "host memory allocator exhausted");
    return addr;
}

void
HostSystem::freeHost(pcie::Addr addr, std::uint64_t bytes)
{
    const std::uint64_t size = pageRound(bytes);
    MORPHEUS_ASSERT(addr >= _hostAllocBase && addr + size <= _hostAllocTop,
                    "freeHost of a buffer allocHost never returned");
    if (size > 0)
        _hostFree[size].push_back(addr);
}

void
HostSystem::resetHostAllocator()
{
    _hostAllocTop = _hostAllocBase;
    _hostFree.clear();
}

FileExtent
HostSystem::createFile(const std::string &name,
                       const std::vector<std::uint8_t> &data)
{
    return createFileOn(0, name, data);
}

FileExtent
HostSystem::createFileOn(unsigned device, const std::string &name,
                         const std::vector<std::uint8_t> &data)
{
    MORPHEUS_ASSERT(_files.find(name) == _files.end(),
                    "file already exists: ", name);
    MORPHEUS_ASSERT(device < numSsds(), "no such device: ", device);
    const std::uint32_t page = _ssds[device]->ftl().pageBytes();

    FileExtent extent;
    extent.name = name;
    extent.deviceId = device;
    extent.startByte = _nextFileByte[device];
    extent.sizeBytes = data.size();
    _nextFileByte[device] +=
        ((data.size() + page - 1) / page) * std::uint64_t(page);
    extent.readyAt = _ssdBackends[device]->ingest(extent.startByte, data);
    _files.emplace(name, extent);
    return extent;
}

const FileExtent &
HostSystem::file(const std::string &name) const
{
    const auto it = _files.find(name);
    MORPHEUS_ASSERT(it != _files.end(), "no such file: ", name);
    return it->second;
}

std::vector<std::uint8_t>
HostSystem::fileBytes(const FileExtent &extent) const
{
    return _ssds.at(extent.deviceId)
        ->peekBytes(extent.startByte, extent.sizeBytes);
}

void
HostSystem::registerStats(sim::stats::StatSet &set)
{
    // Device 0 keeps the classic "ssd" prefix; fleet devices federate
    // under "ssd1", "ssd2", ... matching their port names.
    for (unsigned d = 0; d < numSsds(); ++d) {
        _ssds[d]->registerStats(
            set, d == 0 ? "ssd" : "ssd" + std::to_string(d));
    }
    _mem.registerStats(set, "host.mem");
    _os.registerStats(set, "host.os");
    _cpu.registerStats(set, "host.cpu");
    _gpu->registerStats(set, "gpu");
    _fabric.registerStats(set, "pcie");
    if (auto *fi = sim::faultInjector()) {
        // Federates into the run-wide registry as sys.faults.*.
        fi->registerStats(set, "faults");
    }
}

}  // namespace morpheus::host
