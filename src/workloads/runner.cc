#include "workloads/runner.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "host/host_exec.hh"
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
        s.fabricBytes = sys.fabric().fabricBytes();
        s.membusBytes = sys.mem().busBytesTotal();
        s.contextSwitches = sys.os().contextSwitches();
        return s;
    }
};

/**
 * One app's mode-independent input: the ground-truth object, each
 * rank's serialized shard and the kernel's result on the truth. The
 * three modes of one app run on the same (app, seed, scale), so
 * runWorkload builds it once and reuses it until the key changes.
 */
struct PreparedInput
{
    const AppSpec *app = nullptr;
    std::uint64_t seed = 0;
    double scale = 0.0;
    AnyObject truth;
    std::vector<std::uint64_t> shardObjBytes;  ///< Binary size per rank.
    std::vector<std::vector<std::uint8_t>> shardText;  ///< Per rank.
    KernelResult kernel;  ///< app.kernel(truth).
};

/** The prepared input of (@p app, @p seed, @p scale), from this
 *  thread's one-entry slot; a miss drops the old input first, so two
 *  apps' inputs are never resident at once. */
const PreparedInput &
preparedInput(const AppSpec &app, std::uint64_t seed, double scale,
              unsigned ranks)
{
    thread_local PreparedInput slot;
    if (slot.app == &app && slot.seed == seed && slot.scale == scale)
        return slot;
    slot = PreparedInput{};
    slot.truth = app.generate(seed, scale);
    std::vector<AnyObject> shards = partitionObject(slot.truth, ranks);
    for (AnyObject &shard : shards) {
        slot.shardObjBytes.push_back(objectBytes(shard));
        slot.shardText.push_back(serializeObject(shard));
        shard = AnyObject{};  // only the text is kept
    }
    slot.kernel = app.kernel(slot.truth);
    slot.app = &app;
    slot.seed = seed;
    slot.scale = scale;
    return slot;
}

/** The per-rank input files of one run. */
struct RankInput
{
    std::uint64_t objBytes = 0;  ///< Binary size of the shard.
    /** Serialized shard, owned by the PreparedInput. */
    const std::vector<std::uint8_t> *text = nullptr;
    host::FileExtent extent;     ///< Where it lives on the backend.
};

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

    // ------------- setup: prepared input (or a rebuild), ingest ------
    const PreparedInput &input =
        preparedInput(app, opts.seed, opts.scale, ranks);

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
        inputs[r].objBytes = input.shardObjBytes[r];
        inputs[r].text = &input.shardText[r];
        const std::vector<std::uint8_t> &text = *inputs[r].text;
        raw_total += text.size();
        if (backend == &sys.ssdBackend()) {
            inputs[r].extent = sys.createFile(
                app.name + ".part" + std::to_string(r), text);
        } else {
            inputs[r].extent.startByte = backend_cursor;
            inputs[r].extent.sizeBytes = text.size();
            inputs[r].extent.readyAt =
                backend->ingest(backend_cursor, text);
            backend_cursor +=
                (text.size() + 4095) & ~std::uint64_t(4095);
        }
        ingest_done = std::max(ingest_done, inputs[r].extent.readyAt);
    }

    const std::uint64_t obj_total = objectBytes(input.truth);

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
        // Fig 1(b) on the host path, one rank per core. The host parse
        // is the modelled CPU work: its cost drives the timing and its
        // object is what the baseline produced.
        std::vector<AnyObject> parsed(ranks);
        for (unsigned r = 0; r < ranks; ++r) {
            host::HostExecRequest req{
                .backend = *backend,
                .extent = inputs[r].extent,
                .objectBytes = inputs[r].objBytes,
                .chunkBytes = app.baselineChunkBytes};
            parsed[r] = parseObject(app.object, inputs[r].text->data(),
                                    inputs[r].text->size(), &req.cost);
            const host::IoResult res = host::hostExecute(sys, req, r, t0);
            MORPHEUS_ASSERT(res.ok(), "host read failed: app=", app.name,
                            " rank=", r,
                            " status=", nvme::statusName(res.status));
            deser_done = std::max(deser_done, res.done);
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

    // Every mode must reproduce the generator's ground truth exactly.
    m.validated = objectsEqual(produced, input.truth);

    // ---------------- kernel (+ copy) phases --------------------------
    // A validated object equals the truth, so its kernel result is the
    // prepared one; a mismatch runs the kernel on what was produced.
    const KernelResult kres =
        m.validated ? input.kernel : app.kernel(produced);
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

    if (opts.metrics != nullptr) {
        obs::MetricsRegistry &reg = *opts.metrics;
        sys.writeStats(reg, "sys");
        device.writeStats(reg, "sys.morpheus");
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
