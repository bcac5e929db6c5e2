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
#include "sim/digest.hh"
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

/** One rank's prepared input file. */
struct PreparedShard
{
    std::vector<std::uint8_t> text;  ///< The shard, serialized.
    std::uint64_t objBytes = 0;      ///< Binary size of the shard.
    sim::Digest128 digest;           ///< Of the shard's binary encoding.
};

/**
 * One app's mode-independent input: each rank's text, binary size and
 * binary digest, the object total and the kernel's result on the
 * truth. No object is kept: a run checks what it produced against the
 * digests. The three modes of one app run on the same (app, seed,
 * scale), so runWorkload builds it once and reuses it until the key
 * changes.
 */
struct PreparedInput
{
    const AppSpec *app = nullptr;
    std::uint64_t seed = 0;
    double scale = 0.0;
    std::vector<PreparedShard> shards;  ///< Per rank.
    std::uint64_t objBytes = 0;         ///< objectBytes(truth).
    KernelResult kernel;                ///< app.kernel(truth).
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
    AnyObject truth = app.generate(seed, scale);
    slot.kernel = app.kernel(truth);
    slot.objBytes = objectBytes(truth);
    // The truth moves into the partition (a 1-rank app's shard is the
    // truth itself), and each shard is freed once encoded.
    for (AnyObject &shard : partitionObject(std::move(truth), ranks)) {
        slot.shards.push_back({serializeObject(shard), objectBytes(shard),
                               objectDigest(shard)});
        shard = AnyObject{};
    }
    slot.app = &app;
    slot.seed = seed;
    slot.scale = scale;
    return slot;
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

bool
targetMatches(const host::SparseMemory &mem, std::uint64_t addr,
              std::uint64_t bytes, const sim::Digest128 &expected)
{
    sim::Digester d;
    mem.forEachChunk(addr, static_cast<std::size_t>(bytes),
                     [&d](const std::uint8_t *data, std::size_t n) {
                         d.append(data, n);
                     });
    return d.finish() == expected;
}

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

    // ---------------- setup: prepared input, ingest -------------------
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

    std::vector<host::FileExtent> extents(ranks);
    sim::Tick ingest_done = 0;
    std::uint64_t raw_total = 0;
    std::uint64_t backend_cursor = 0;
    for (unsigned r = 0; r < ranks; ++r) {
        const std::vector<std::uint8_t> &text = input.shards[r].text;
        raw_total += text.size();
        if (backend == &sys.ssdBackend()) {
            extents[r] = sys.createFile(
                app.name + ".part" + std::to_string(r), text);
        } else {
            extents[r].startByte = backend_cursor;
            extents[r].sizeBytes = text.size();
            extents[r].readyAt = backend->ingest(backend_cursor, text);
            backend_cursor +=
                (text.size() + 4095) & ~std::uint64_t(4095);
        }
        ingest_done = std::max(ingest_done, extents[r].readyAt);
    }

    const std::uint64_t obj_total = input.objBytes;

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

    // Every mode must reproduce the generator's ground truth exactly:
    // each rank's produced object encodes to its prepared digest.
    m.validated = true;
    sim::Tick deser_done = t0;

    if (opts.mode == ExecutionMode::kBaseline) {
        // Fig 1(b) on the host path, one rank per core. The host parse
        // is the modelled CPU work: its cost drives the timing and its
        // object is what the baseline produced.
        for (unsigned r = 0; r < ranks; ++r) {
            const PreparedShard &shard = input.shards[r];
            host::HostExecRequest req{
                .backend = *backend,
                .extent = extents[r],
                .objectBytes = shard.objBytes,
                .chunkBytes = app.baselineChunkBytes};
            const AnyObject parsed =
                parseObject(app.object, shard.text.data(),
                            shard.text.size(), &req.cost);
            m.validated = m.validated && objectDigest(parsed) == shard.digest;
            const host::IoResult res = host::hostExecute(sys, req, r, t0);
            MORPHEUS_ASSERT(res.ok(), "host read failed: app=", app.name,
                            " rank=", r,
                            " status=", nvme::statusName(res.status));
            deser_done = std::max(deser_done, res.done);
        }
    } else {
        const core::StorageAppImage &image =
            imageFor(app.object, images);
        // Where each rank's object lands: GPU memory under P2P.
        const host::SparseMemory &landing =
            p2p ? sys.gpu().mem() : sys.mem().store();
        for (unsigned r = 0; r < ranks; ++r) {
            const PreparedShard &shard = input.shards[r];
            std::uint64_t landed = 0;
            core::DmaTarget target;
            if (p2p) {
                target = runtime.gpuTarget(shard.objBytes, &landed);
            } else {
                target = runtime.hostTarget(shard.objBytes);
                landed = target.addr;
            }
            core::InvokeOptions iopts;
            iopts.hostCore = r % sys.cpu().config().cores;
            iopts.arg = appArgFor(app.object);
            iopts.chunkBlocks = opts.chunkBlocks;
            const core::MsStream stream =
                runtime.streamCreate(extents[r], t0, iopts.hostCore);
            core::InvokeResult result =
                runtime.invoke(image, stream, target, t0, iopts);
            // With recovery enabled an invocation can die on an
            // injected fault (crashed app, watchdog kill). Replay it
            // whole: the fresh instance restreams from byte 0,
            // overwriting any partial delivery. Bounded so a rate-1.0
            // plan can't loop forever.
            for (unsigned replay = 0;
                 (result.failed || !result.accepted) &&
                 opts.recovery.enabled && replay < 8;
                 ++replay) {
                const sim::Tick at = result.done;
                const core::MsStream again = runtime.streamCreate(
                    extents[r], at, iopts.hostCore);
                result = runtime.invoke(image, again, target, at, iopts);
            }
            MORPHEUS_ASSERT(
                result.accepted && !result.failed,
                "invocation failed beyond recovery: app=", app.name,
                " rank=", r);
            deser_done = std::max(deser_done, result.done);
            m.validated = m.validated && targetMatches(landing, landed,
                                                       shard.objBytes,
                                                       shard.digest);
        }
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
            // Only a baseline reads from opts.backend; Morpheus and
            // P2P runs read the SSD whatever it names.
            act.hddActive = opts.mode == ExecutionMode::kBaseline &&
                                    opts.backend == BackendKind::kHdd
                                ? 1.0
                                : 0.0;
            act.dramStreaming = std::min(
                1.0, static_cast<double>(m.membusBytesDeser) /
                         (sys.mem().config().bytesPerSec *
                          sim::ticksToSeconds(m.deserTime)));
        }
        m.deserPowerWatts = sys.power().systemWatts(act);
        m.deserEnergyJoules =
            sys.power().energyJoules(act, m.deserTime);
    }

    // A validated object equals the truth, so its kernel result is the
    // prepared one. A run that failed validation has no checksum; its
    // later phases are timed on the prepared sizes and kernel work.
    const KernelWork &work = input.kernel.work;
    m.kernelChecksum = m.validated ? input.kernel.checksum : 0;

    // ---------------- kernel (+ copy) phases --------------------------
    sim::Tick phase_cursor = deser_done;
    if (gpu_app) {
        if (!p2p) {
            // cudaMemcpy H2D of the object buffer. It is timing only:
            // the host staging buffer is allocated, so later addresses
            // stay put, but nothing is written to it or to the GPU.
            const pcie::Addr host_buf = sys.allocHost(obj_total);
            const sim::Tick copy_done = sys.gpu().copyFromHost(
                host_buf, static_cast<std::size_t>(obj_total),
                phase_cursor);
            m.gpuCopyTime = copy_done - phase_cursor;
            phase_cursor = copy_done;
        }
        const sim::Tick k_done = sys.gpu().kernel(
            work.gpuFlop, work.gpuMemBytes, phase_cursor);
        m.kernelTime = k_done - phase_cursor;
        phase_cursor = k_done;
    } else {
        const sim::Tick k_done =
            cpuKernelPhase(sys, app, work, phase_cursor);
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
