#include "workloads/runner.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "sim/logging.hh"
#include "workloads/partition.hh"

namespace morpheus::workloads {

namespace {

/** Busy-tick totals used to derive per-phase component activity. */
struct ActivitySnapshot
{
    sim::Tick cpuBusy = 0;
    sim::Tick flashBusy = 0;
    sim::Tick ssdCoresBusy = 0;
    sim::Tick gpuBusy = 0;
    std::uint64_t fabricBytes = 0;
    std::uint64_t membusBytes = 0;
    std::uint64_t contextSwitches = 0;

    static ActivitySnapshot
    take(host::HostSystem &sys)
    {
        ActivitySnapshot s;
        for (unsigned c = 0; c < sys.cpu().config().cores; ++c)
            s.cpuBusy += sys.cpu().coreTimeline(c).busyTicks();
        const auto &fc = sys.ssd().flash().config();
        for (unsigned ch = 0; ch < fc.channels; ++ch) {
            for (unsigned d = 0; d < fc.diesPerChannel; ++d) {
                s.flashBusy +=
                    sys.ssd().flash().dieTimeline(ch, d).busyTicks();
            }
        }
        for (unsigned c = 0; c < sys.ssd().numCores(); ++c)
            s.ssdCoresBusy += sys.ssd().core(c).timeline().busyTicks();
        s.gpuBusy = sys.gpu().smTimeline().busyTicks();
        s.fabricBytes = sys.fabric().fabricBytes();
        s.membusBytes = sys.mem().busBytesTotal();
        s.contextSwitches = sys.os().contextSwitches();
        return s;
    }
};

/** The per-rank input files of one run. */
struct RankInput
{
    std::uint64_t objBytes = 0;       ///< Binary size of the shard.
    std::vector<std::uint8_t> text;   ///< Serialized shard.
    host::FileExtent extent;          ///< Where it lives on the device.
    std::uint64_t backendOffset = 0;  ///< Offset for HDD/RAM backends.
};

/** Baseline deserialization of one rank's file. @return finish tick. */
sim::Tick
baselineDeserRank(host::HostSystem &sys, host::StorageBackend &backend,
                  const AppSpec &app, const RankInput &input,
                  unsigned core, sim::Tick t0,
                  const serde::ParseCost &cost)
{
    host::OsModel &os = sys.os();
    host::HostCpu &cpu = sys.cpu();
    host::HostMemory &mem = sys.mem();

    // Raw staging buffer X and the object buffer Y (Fig 1(b)).
    const pcie::Addr buf_x = sys.allocHost(app.baselineChunkBytes);
    const std::uint64_t obj_bytes = input.objBytes;
    sys.allocHost(obj_bytes);  // buffer Y

    sim::Tick t = os.syscall(core, t0);  // open()
    // First-touch faults on the freshly allocated object buffer.
    sim::Tick cpu_cursor =
        os.pageFaults(core, os.faultsForBytes(obj_bytes), t);

    const std::uint64_t file_bytes = input.text.size();
    const double total_convert = cpu.convertCycles(cost);

    std::uint64_t offset = 0;
    while (offset < file_bytes) {
        const std::uint64_t len = std::min<std::uint64_t>(
            app.baselineChunkBytes, file_bytes - offset);
        // The kernel's readahead keeps a deep queue of requests at the
        // device: every chunk is issued eagerly and the device-side
        // resource timelines (flash dies, channels, PCIe link) do the
        // actual serialization, so sequential streams run at device
        // bandwidth, not one-request latency.
        const sim::Tick io_done = backend.read(
            input.backendOffset + offset, len, buf_x, t0);

        // read() syscall + FS work + blocking switch pair, then the
        // string-to-binary conversion itself (phase B).
        const sim::Tick ready = std::max(cpu_cursor, io_done);
        const sim::Tick fs_done =
            os.blockingReadOverhead(core, len, ready);
        const double convert =
            total_convert * static_cast<double>(len) /
            static_cast<double>(file_bytes);
        cpu_cursor = cpu.execute(core, convert, fs_done);

        // Memory traffic: raw into X (DMA, already counted by the
        // backend), raw out of X, objects into Y.
        const std::uint64_t obj_share =
            obj_bytes * len / file_bytes;
        mem.cpuAccess(len, obj_share, fs_done);
        offset += len;
    }
    return cpu_cursor;
}

/** Charge the (parallel) CPU kernel across the app's ranks. */
sim::Tick
cpuKernelPhase(host::HostSystem &sys, const AppSpec &app,
               const KernelWork &work, sim::Tick start)
{
    sim::Tick done = start;
    for (unsigned r = 0; r < app.ranks; ++r) {
        const sim::Tick t = sys.cpu().execute(
            r, work.cpuCycles / app.ranks, start);
        done = std::max(done, t);
    }
    sys.mem().cpuAccess(work.hostMemBytes, work.hostMemBytes / 4,
                        start);
    return done;
}

}  // namespace

RunMetrics
runWorkload(const AppSpec &app, const RunOptions &opts)
{
    host::HostSystem sys(opts.sys);
    sys.cpu().setFreqHz(opts.cpuFreqHz);
    sys.nvmeDriver().setRecovery(opts.recovery);

    const bool gpu_app = app.isGpuApp();
    const bool p2p = opts.mode == ExecutionMode::kMorpheusP2p && gpu_app;
    const unsigned ranks =
        app.parallel == ParallelModel::kMpi ? app.ranks : 1;

    // ---------------- setup: generate + partition + ingest -----------
    const AnyObject truth = app.generate(opts.seed, opts.scale);
    std::vector<AnyObject> shards = partitionObject(truth, ranks);

    std::unique_ptr<host::StorageBackend> alt_backend;
    host::StorageBackend *backend = &sys.ssdBackend();
    if (opts.mode == ExecutionMode::kBaseline) {
        if (opts.backend == BackendKind::kHdd)
            alt_backend = std::make_unique<host::HddBackend>(sys.mem());
        else if (opts.backend == BackendKind::kRamDrive)
            alt_backend =
                std::make_unique<host::RamDriveBackend>(sys.mem());
        if (alt_backend)
            backend = alt_backend.get();
    }

    std::vector<RankInput> inputs(ranks);
    sim::Tick ingest_done = 0;
    std::uint64_t raw_total = 0;
    std::uint64_t backend_cursor = 0;
    for (unsigned r = 0; r < ranks; ++r) {
        inputs[r].objBytes = objectBytes(shards[r]);
        inputs[r].text = serializeObject(shards[r]);
        raw_total += inputs[r].text.size();
        if (backend == &sys.ssdBackend()) {
            inputs[r].extent = sys.createFile(
                app.name + ".part" + std::to_string(r),
                inputs[r].text);
            inputs[r].backendOffset = inputs[r].extent.startByte;
            ingest_done =
                std::max(ingest_done, inputs[r].extent.readyAt);
        } else {
            inputs[r].backendOffset = backend_cursor;
            ingest_done = std::max(
                ingest_done,
                backend->ingest(backend_cursor, inputs[r].text));
            backend_cursor +=
                (inputs[r].text.size() + 4095) & ~std::uint64_t(4095);
        }
    }

    const std::uint64_t obj_total = objectBytes(truth);

    // ---------------- measured phases --------------------------------
    // Faults fire only during the measured phases, never at ingest.
    // The injector stays installed through metrics federation so
    // sys.faults.* gets snapshotted; an inactive plan installs nothing.
    std::optional<sim::FaultInjector> fault_injector;
    std::optional<sim::ScopedFaultInjector> fault_scope;
    if (opts.faults.active()) {
        fault_injector.emplace(opts.faults);
        fault_scope.emplace(&*fault_injector);
    }

    const sim::Tick t0 = ingest_done;
    const ActivitySnapshot before = ActivitySnapshot::take(sys);

    RunMetrics m;
    m.rawTextBytes = raw_total;

    core::StandardImages images = core::StandardImages::make();
    core::MorpheusDeviceRuntime device(sys.ssd());
    core::NvmeP2p p2p_module(sys);
    core::MorpheusRuntime runtime(sys, device, p2p_module);

    AnyObject produced;       // object the measured path yielded
    sim::Tick deser_done = t0;
    std::vector<std::uint64_t> gpu_dev_addrs(ranks, 0);

    if (opts.mode == ExecutionMode::kBaseline) {
        // The host parse is the modelled CPU work: its cost drives the
        // timing and its object is what the baseline produced.
        std::vector<AnyObject> parsed(ranks);
        for (unsigned r = 0; r < ranks; ++r) {
            serde::ParseCost cost;
            parsed[r] = parseObject(app.object, inputs[r].text.data(),
                                    inputs[r].text.size(), &cost);
            const sim::Tick t = baselineDeserRank(
                sys, *backend, app, inputs[r], r, t0, cost);
            deser_done = std::max(deser_done, t);
        }
        produced = mergeObjects(app.object, parsed);
    } else {
        const core::StorageAppImage &image =
            imageFor(app.object, images);
        std::vector<core::DmaTarget> targets(ranks);
        std::vector<core::InvokeResult> results(ranks);
        for (unsigned r = 0; r < ranks; ++r) {
            if (p2p) {
                targets[r] =
                    runtime.gpuTarget(inputs[r].objBytes, &gpu_dev_addrs[r]);
            } else {
                targets[r] = runtime.hostTarget(inputs[r].objBytes);
            }
            core::InvokeOptions iopts;
            iopts.hostCore = r % sys.cpu().config().cores;
            iopts.arg = appArgFor(app.object);
            iopts.chunkBlocks = opts.chunkBlocks;
            const core::MsStream stream =
                runtime.streamCreate(inputs[r].extent, t0, iopts.hostCore);
            results[r] =
                runtime.invoke(image, stream, targets[r], t0, iopts);
            // With recovery enabled an invocation can die on an
            // injected fault (crashed app, watchdog kill). Replay it
            // whole: the fresh instance restreams from byte 0,
            // overwriting any partial delivery. Bounded so a rate-1.0
            // plan can't loop forever.
            for (unsigned replay = 0;
                 (results[r].failed || !results[r].accepted) &&
                 opts.recovery.enabled && replay < 8;
                 ++replay) {
                const sim::Tick at = results[r].done;
                const core::MsStream again = runtime.streamCreate(
                    inputs[r].extent, at, iopts.hostCore);
                results[r] =
                    runtime.invoke(image, again, targets[r], at, iopts);
            }
            MORPHEUS_ASSERT(
                results[r].accepted && !results[r].failed,
                "invocation failed beyond recovery: app=", app.name,
                " rank=", r);
            deser_done = std::max(deser_done, results[r].done);
        }
        // Reconstruct the produced objects from the DMA destinations.
        std::vector<AnyObject> produced_shards(ranks);
        for (unsigned r = 0; r < ranks; ++r) {
            std::vector<std::uint8_t> bin;
            if (p2p) {
                bin = sys.gpu().mem().readVec(
                    gpu_dev_addrs[r],
                    static_cast<std::size_t>(inputs[r].objBytes));
            } else {
                bin = sys.mem().store().readVec(
                    targets[r].addr,
                    static_cast<std::size_t>(inputs[r].objBytes));
            }
            produced_shards[r] = objectFromBinary(app.object, bin);
        }
        produced = mergeObjects(app.object, produced_shards);
    }

    m.deserTime = deser_done - t0;
    const ActivitySnapshot after_deser = ActivitySnapshot::take(sys);

    // -------- deser-phase derived metrics ----------------------------
    m.contextSwitchesDeser =
        after_deser.contextSwitches - before.contextSwitches;
    m.contextSwitchesPerSec =
        m.deserTime
            ? static_cast<double>(m.contextSwitchesDeser) /
                  sim::ticksToSeconds(m.deserTime)
            : 0.0;
    m.pcieBytesDeser = after_deser.fabricBytes - before.fabricBytes;
    m.membusBytesDeser = after_deser.membusBytes - before.membusBytes;
    m.objectBytesProduced = obj_total;
    m.effectiveBandwidthMBps =
        m.deserTime
            ? static_cast<double>(obj_total) / ranks /
                  sim::ticksToSeconds(m.deserTime) / 1e6
            : 0.0;

    {
        const double dur = static_cast<double>(m.deserTime);
        host::PhaseActivity act;
        if (dur > 0) {
            const double cpu_busy = static_cast<double>(
                after_deser.cpuBusy - before.cpuBusy);
            const double flash_busy = static_cast<double>(
                after_deser.flashBusy - before.flashBusy);
            const double cores_busy = static_cast<double>(
                after_deser.ssdCoresBusy - before.ssdCoresBusy);
            act.cpuCoresParsing = cpu_busy / dur;
            m.cpuBusyCoresDeser = act.cpuCoresParsing;
            act.ssdIoActive = std::min(
                1.0, flash_busy /
                         (dur * sys.ssd().flash().config().dies()));
            act.ssdCoresActive = cores_busy / dur;
            act.hddActive =
                opts.backend == BackendKind::kHdd ? 1.0 : 0.0;
            act.dramStreaming = std::min(
                1.0, static_cast<double>(m.membusBytesDeser) /
                         (sys.mem().config().bytesPerSec *
                          sim::ticksToSeconds(m.deserTime)));
        }
        m.deserPowerWatts = sys.power().systemWatts(act);
        m.deserEnergyJoules =
            sys.power().energyJoules(act, m.deserTime);
    }

    // ---------------- kernel (+ copy) phases --------------------------
    const KernelResult kres = app.kernel(produced);
    m.kernelChecksum = kres.checksum;

    sim::Tick phase_cursor = deser_done;
    if (gpu_app) {
        if (!p2p) {
            // cudaMemcpy H2D of the object buffer.
            const auto bin = objectToBinary(produced);
            const std::uint64_t dev = sys.gpu().alloc(bin.size());
            const pcie::Addr host_buf = sys.allocHost(bin.size());
            sys.mem().store().writeVec(host_buf, bin);
            const sim::Tick copy_done = sys.gpu().copyFromHost(
                host_buf, dev, bin.data(), bin.size(), phase_cursor);
            m.gpuCopyTime = copy_done - phase_cursor;
            phase_cursor = copy_done;
        }
        const sim::Tick k_done = sys.gpu().kernel(
            kres.work.gpuFlop, kres.work.gpuMemBytes, phase_cursor);
        m.kernelTime = k_done - phase_cursor;
        phase_cursor = k_done;
    } else {
        const sim::Tick k_done =
            cpuKernelPhase(sys, app, kres.work, phase_cursor);
        m.kernelTime = k_done - phase_cursor;
        phase_cursor = k_done;
    }

    // "Other CPU computation": result handling, allocation, MPI glue.
    // Scales with the data volume handled, i.e. with the
    // deserialization phase.
    const double other_cycles =
        app.otherCpuFraction * sim::ticksToSeconds(m.deserTime) *
        sys.cpu().freqHz();
    const sim::Tick other_done =
        sys.cpu().execute(0, other_cycles, phase_cursor);
    m.otherCpuTime = other_done - phase_cursor;
    m.totalTime = other_done - t0;

    const ActivitySnapshot at_end = ActivitySnapshot::take(sys);
    m.pcieBytesTotal = at_end.fabricBytes - before.fabricBytes;
    m.membusBytesTotal = at_end.membusBytes - before.membusBytes;
    m.p2pBytes = sys.fabric().p2pBytes();

    // Every mode must reproduce the generator's ground truth exactly.
    m.validated = objectsEqual(produced, truth);

    if (opts.metrics != nullptr) {
        sim::stats::StatSet set;
        sys.registerStats(set);
        device.registerStats(set, "morpheus");
        obs::MetricsRegistry &reg = *opts.metrics;
        reg.absorb(set, "sys.");
        reg.setCounter("run.deser_ticks", m.deserTime);
        reg.setCounter("run.gpu_copy_ticks", m.gpuCopyTime);
        reg.setCounter("run.kernel_ticks", m.kernelTime);
        reg.setCounter("run.other_cpu_ticks", m.otherCpuTime);
        reg.setCounter("run.total_ticks", m.totalTime);
        reg.setCounter("run.pcie_bytes_deser", m.pcieBytesDeser);
        reg.setCounter("run.membus_bytes_deser", m.membusBytesDeser);
        reg.setCounter("run.pcie_bytes_total", m.pcieBytesTotal);
        reg.setCounter("run.membus_bytes_total", m.membusBytesTotal);
        reg.setCounter("run.p2p_bytes", m.p2pBytes);
        reg.setCounter("run.raw_text_bytes", m.rawTextBytes);
        reg.setCounter("run.object_bytes", m.objectBytesProduced);
        reg.setCounter("run.validated", m.validated ? 1 : 0);
        reg.setCounter("run.retries", sys.nvmeDriver().retriesIssued());
        reg.setCounter("run.timeouts",
                       sys.nvmeDriver().timeoutsSynthesized());
        reg.setScalar("run.deser_power_watts", m.deserPowerWatts);
        reg.setScalar("run.deser_energy_joules", m.deserEnergyJoules);
    }
    return m;
}

}  // namespace morpheus::workloads
