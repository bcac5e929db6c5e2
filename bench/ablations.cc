/**
 * @file
 * The design-choice ablations: one knob swept per section, each cell
 * one app under one RunOptions, run once through bench::runCell
 * (which exits 1 naming a cell whose object differs from the
 * generator's ground truth). Sections, in print order, each under its
 * own banner and each writing one BENCH_<name>.json that
 * tools/check_bench.py gates:
 *   - MREAD chunk size, hybridsort (§V-B): per-command overhead vs
 *     amortization; ablation_chunk_size, mdtsSpeedup;
 *   - embedded core count, pagerank's 4 ranks: ablation_cores,
 *     scaling4Cores;
 *   - D-SRAM staging threshold, kmeans (§V-A restriction 3):
 *     ablation_dsram, stagingSlowdown2KiB;
 *   - NVMe queue depth, bfs: the Fig 10 mechanism (context switches
 *     per MREAD batch); ablation_qdepth, ctxSwitchReduction;
 *   - NVMe-P2P vs a bounce through host memory, bfs at 0.2x to 4x the
 *     bench scale: ablation_p2p, meanGain;
 *   - soft-float penalty, spmv (the FPU gap behind its ~1.1x):
 *     ablation_softfloat, fpuSpeedup;
 *   - the streaming chunk pipeline (DESIGN.md §11) at queue depth 1
 *     on a flash-bound and a parse-bound mix: ablation_pipeline,
 *     meanImprovement;
 *   - extension: the CSV and JSON formats §II motivates, without and
 *     with an FPU: extension_formats, fpuGeomeanSpeedup;
 *   - extension: columnar projection and predicate pushdown (DESIGN.md
 *     §16) at 1%, 10% and 50% selectivity: extension_pushdown,
 *     pushdown_cut_s10.
 *
 * Two sections self-check, one "gate <claim> pass|FAIL" line each on
 * stderr. The pipeline: pipeline-on must cut deser time by >= 20% on
 * the flash-bound mix and >= 10% on the parse-bound one, leave the
 * kernel checksum unchanged, and pipeline-off must be
 * bit-deterministic. The pushdown: the full-table scan equals the
 * reference, each selectivity's cut reaches its analytic bound with
 * the device, the host and a split execution returning identical
 * bytes, and 10% selectivity ships <= 0.3x the table. Exits 1 when a
 * cell fails validation or a gate fails.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "serde/columnar.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/** Options of one cell in @p mode at the bench scale. */
wk::RunOptions
cellOptions(wk::ExecutionMode mode)
{
    wk::RunOptions o;
    o.mode = mode;
    o.scale = bench::benchScale();
    return o;
}

double
ms(sim::Tick t)
{
    return sim::ticksToSeconds(t) * 1e3;
}

/** @p a / @p b; speedup(x) is ratio(base, x). */
double
ratio(sim::Tick a, sim::Tick b)
{
    return static_cast<double>(a) / static_cast<double>(b);
}

void
chunkSize()
{
    bench::section("Ablation: Morpheus MREAD chunk size",
                   "per-command overhead vs amortization (design "
                   "choice, DESIGN.md #1)");
    const wk::AppSpec &app = wk::findApp("hybridsort");
    std::printf("%-12s %14s %10s %12s\n", "chunk", "deser(ms)",
                "speedup", "mreads");
    const auto base = bench::runCell(
        app, cellOptions(wk::ExecutionMode::kBaseline), "baseline");

    std::vector<bench::BenchMetric> extra;
    bench::BenchRuns runs;
    double mdts = 0.0;
    // 256 blocks (128 KiB) is the MDTS, the default chunk.
    for (const std::uint32_t blocks : {8u, 16u, 32u, 64u, 128u, 256u}) {
        const std::string name =
            "chunk" + std::to_string(blocks * 512 / 1024) + "KiB";
        wk::RunOptions o = cellOptions(wk::ExecutionMode::kMorpheus);
        o.chunkBlocks = blocks;
        o.metrics = &runs.emplace_back(name, obs::MetricsRegistry{}).second;
        const auto m = bench::runCell(app, o, name);
        mdts = ratio(base.deserTime, m.deserTime);
        std::printf("%9u KiB %14.2f %9.2fx %12llu\n", blocks * 512 / 1024,
                    ms(m.deserTime), mdts,
                    static_cast<unsigned long long>(
                        o.metrics->counter("sys.morpheus.mreads")));
        extra.push_back({name + ".speedup", mdts, "x"});
    }
    bench::writeBenchJson("ablation_chunk_size", "mdtsSpeedup", mdts, "x",
                          /*higher_is_better=*/true, extra, {}, runs);
}

void
cores()
{
    bench::section("Ablation: embedded core count",
                   "multi-instance (MPI) offload scales with cores "
                   "(design choice, DESIGN.md #2)");
    const wk::AppSpec &app = wk::findApp("pagerank");  // 4 ranks
    std::printf("%-8s %14s %10s\n", "cores", "deser(ms)", "vs 1 core");
    std::vector<bench::BenchMetric> extra;
    double first = 0.0;
    double four = 0.0;
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
        const std::string name = "cores" + std::to_string(n);
        wk::RunOptions o = cellOptions(wk::ExecutionMode::kMorpheus);
        o.sys.ssd.numCores = n;
        const double t = ms(bench::runCell(app, o, name).deserTime);
        if (first == 0.0)
            first = t;
        std::printf("%-8u %14.2f %9.2fx\n", n, t, first / t);
        extra.push_back({name + ".scaling", first / t, "x"});
        four = n == 4 ? first / t : four;
    }
    bench::writeBenchJson("ablation_cores", "scaling4Cores", four, "x",
                          /*higher_is_better=*/true, extra);
}

void
dsram()
{
    bench::section("Ablation: StorageApp staging (ms_memcpy flush) "
                   "threshold",
                   "D-SRAM working-set limit forces streaming flushes "
                   "(design choice #5)");
    const wk::AppSpec &app = wk::findApp("kmeans");
    std::printf("%-12s %14s\n", "staging", "deser(ms)");
    std::vector<bench::BenchMetric> extra;
    sim::Tick t2k = 0;
    sim::Tick t64k = 0;
    for (const std::uint32_t threshold :
         {2u * 1024, 8u * 1024, 32u * 1024, 64u * 1024}) {
        const std::string name =
            "staging" + std::to_string(threshold / 1024) + "KiB";
        wk::RunOptions o = cellOptions(wk::ExecutionMode::kMorpheus);
        // Thread the flush threshold through the embedded-core D-SRAM
        // size: the device default threshold is D-SRAM / 4.
        o.sys.ssd.core.dsramBytes = threshold * 4;
        const sim::Tick t = bench::runCell(app, o, name).deserTime;
        std::printf("%9u KiB %14.2f\n", threshold / 1024, ms(t));
        extra.push_back({name + ".deserMs", ms(t), "ms"});
        t2k = threshold == 2 * 1024 ? t : t2k;
        t64k = threshold == 64 * 1024 ? t : t64k;
    }
    bench::writeBenchJson("ablation_dsram", "stagingSlowdown2KiB",
                          ratio(t2k, t64k), "x",
                          /*higher_is_better=*/false, extra);
}

void
queueDepth()
{
    bench::section("Ablation: NVMe queue depth (Morpheus MREAD "
                   "batching)",
                   "deep queues amortize the host wakeups Fig 10 "
                   "counts");
    const wk::AppSpec &app = wk::findApp("bfs");
    std::printf("%-8s %14s %14s %14s\n", "depth", "deser(ms)",
                "ctx-switches", "cs/s");
    std::vector<bench::BenchMetric> extra;
    std::uint64_t cs4 = 0;
    std::uint64_t cs256 = 0;
    for (const std::uint16_t depth : {4, 8, 16, 64, 256}) {
        const std::string name = "depth" + std::to_string(depth);
        wk::RunOptions o = cellOptions(wk::ExecutionMode::kMorpheus);
        o.chunkBlocks = 32;  // 16 KiB chunks -> many commands
        o.sys.queueEntries = depth;
        const auto m = bench::runCell(app, o, name);
        std::printf("%-8u %14.2f %14llu %14.0f\n", depth,
                    ms(m.deserTime),
                    static_cast<unsigned long long>(
                        m.contextSwitchesDeser),
                    m.contextSwitchesPerSec);
        extra.push_back({name + ".ctxSwitches",
                         static_cast<double>(m.contextSwitchesDeser),
                         "count"});
        extra.push_back(
            {name + ".ctxSwitchesPerSec", m.contextSwitchesPerSec, "1/s"});
        cs4 = depth == 4 ? m.contextSwitchesDeser : cs4;
        cs256 = depth == 256 ? m.contextSwitchesDeser : cs256;
    }
    bench::writeBenchJson(
        "ablation_qdepth", "ctxSwitchReduction",
        1.0 - static_cast<double>(cs256) / static_cast<double>(cs4),
        "fraction", /*higher_is_better=*/true, extra);
}

void
p2p()
{
    bench::section("Ablation: NVMe-P2P vs bounce-through-host, by "
                   "object size",
                   "P2P's end-to-end gain levels off near 1.06x as the "
                   "object grows (design choice #4)");
    const wk::AppSpec &app = wk::findApp("bfs");
    std::printf("%-10s %12s %12s %12s %10s\n", "scale", "obj(MB)",
                "morph(ms)", "p2p(ms)", "gain");
    std::vector<bench::BenchMetric> extra;
    std::vector<double> gains;
    for (const double factor : {0.2, 0.4, 1.0, 2.0, 4.0}) {
        char name[32];
        std::snprintf(name, sizeof(name), "scale%gx", factor);
        wk::RunOptions o = cellOptions(wk::ExecutionMode::kMorpheus);
        o.scale = factor * bench::benchScale();
        const auto m = bench::runCell(app, o, name);
        o.mode = wk::ExecutionMode::kMorpheusP2p;
        const auto p = bench::runCell(app, o, name);
        gains.push_back(ratio(m.totalTime, p.totalTime));
        std::printf("%-10.2f %12.1f %12.2f %12.2f %9.2fx\n", o.scale,
                    m.objectBytesProduced / 1e6, ms(m.totalTime),
                    ms(p.totalTime), gains.back());
        extra.push_back({std::string(name) + ".gain", gains.back(), "x"});
    }
    bench::writeBenchJson("ablation_p2p", "meanGain", bench::mean(gains),
                          "x", /*higher_is_better=*/true, extra);
}

void
softFloat()
{
    bench::section("Ablation: soft-float penalty on the embedded cores",
                   "SpMV ~1.1x without an FPU; future FPU-equipped "
                   "cores recover the gain (design choice #3)");
    const wk::AppSpec &app = wk::findApp("spmv");
    const auto base = bench::runCell(
        app, cellOptions(wk::ExecutionMode::kBaseline), "baseline");

    std::printf("%-24s %14s %10s\n", "config", "deser(ms)", "speedup");
    std::vector<bench::BenchMetric> extra;
    for (const double penalty : {44.0, 22.0, 11.0, 5.0}) {
        char name[32];
        std::snprintf(name, sizeof(name), "soft%.0fcyc", penalty);
        wk::RunOptions o = cellOptions(wk::ExecutionMode::kMorpheus);
        o.sys.ssd.core.hasFpu = false;
        o.sys.ssd.core.cyclesPerFloatOpSoft = penalty;
        const auto m = bench::runCell(app, o, name);
        const double x = ratio(base.deserTime, m.deserTime);
        std::printf("soft-float %4.0f cyc/op  %14.2f %9.2fx\n", penalty,
                    ms(m.deserTime), x);
        extra.push_back({std::string(name) + ".speedup", x, "x"});
    }
    wk::RunOptions o = cellOptions(wk::ExecutionMode::kMorpheus);
    o.sys.ssd.core.hasFpu = true;
    const auto m = bench::runCell(app, o, "hardware FPU");
    const double fpu = ratio(base.deserTime, m.deserTime);
    std::printf("%-24s %14.2f %9.2fx\n", "hardware FPU", ms(m.deserTime),
                fpu);
    extra.push_back({"fpu.speedup", fpu, "x"});
    bench::writeBenchJson("ablation_softfloat", "fpuSpeedup", fpu, "x",
                          /*higher_is_better=*/true, extra);
}

/** One pipeline-ablation mix. */
struct Mix
{
    const char *name;
    const char *app;
    double minImprovement;
    bool shrinkFlash;  ///< 2 channels x 1 die: flash-bound.
};

wk::RunOptions
mixOptions(const Mix &mix, bool pipeline_on)
{
    wk::RunOptions o = cellOptions(wk::ExecutionMode::kMorpheus);
    // Queue depth 1: deeper queues already overlap across commands via
    // the shared timelines, so only depth 1 exposes the serial
    // schedule the pipeline removes.
    o.sys.queueEntries = 2;
    if (mix.shrinkFlash) {
        o.sys.ssd.flash.channels = 2;
        o.sys.ssd.flash.diesPerChannel = 1;
    }
    o.sys.ssd.pipeline.enabled = pipeline_on;
    return o;
}

/**
 * With the pipeline off, an MREAD chunk is one sub-buffer: its parse
 * waits for the last flash page and its flush DMA for the parse, so
 * flash, the embedded core and PCIe each idle while the other two
 * work. The pipeline overlaps the three stages without changing
 * functional results or ParseCost totals.
 */
void
pipeline(bench::Gates &gate)
{
    bench::section(
        "Ablation: streaming chunk pipeline (readahead + "
        "double-buffered parse + coalesced flush DMA)",
        "ms_stream overlap: the firmware parses while flash pages are "
        "still arriving (paper SVI-A)");

    const Mix mixes[] = {
        // Integer graph parse (~0.55 cyc/B) against a 2-channel,
        // 1-die array: flash dominates, readahead hides it.
        {"flash-bound", "bfs", 0.20, true},
        // Soft-float parse (12 cyc/float op) against the full array:
        // the core dominates, sub-buffer overlap hides fetch + flush.
        {"parse-bound", "nn", 0.10, false},
    };

    std::vector<bench::BenchMetric> extra;
    double headline = 0.0;
    std::printf("%-12s %-6s %14s %14s %12s %8s\n", "mix", "app",
                "serial(ms)", "pipeline(ms)", "improvement", "gate");
    for (const Mix &mix : mixes) {
        const wk::AppSpec &app = wk::findApp(mix.app);
        const std::string name = mix.name;
        const auto off = bench::runCell(app, mixOptions(mix, false),
                                        name + " pipeline off");
        const auto off2 = bench::runCell(app, mixOptions(mix, false),
                                         name + " pipeline off");
        const auto on = bench::runCell(app, mixOptions(mix, true),
                                       name + " pipeline on");
        gate(off == off2,
             (name + ": pipeline-off is bit-deterministic").c_str());
        gate(on.kernelChecksum == off.kernelChecksum,
             (name + ": pipeline keeps the kernel result").c_str());

        const double serial_ms = ms(off.deserTime);
        const double pipe_ms = ms(on.deserTime);
        const double improvement =
            serial_ms > 0.0 ? (serial_ms - pipe_ms) / serial_ms : 0.0;
        char claim[64];
        std::snprintf(claim, sizeof(claim),
                      "%s: pipeline cuts deser time >= %.0f%%", mix.name,
                      mix.minImprovement * 1e2);
        const bool ok = gate(improvement >= mix.minImprovement, claim);
        std::printf("%-12s %-6s %14.3f %14.3f %11.1f%% %8s\n", mix.name,
                    mix.app, serial_ms, pipe_ms, improvement * 1e2,
                    ok ? "pass" : "FAIL");

        extra.push_back({name + ".serialMs", serial_ms, "ms"});
        extra.push_back({name + ".pipelineMs", pipe_ms, "ms"});
        extra.push_back({name + ".improvement", improvement, "fraction"});
        headline += improvement / static_cast<double>(std::size(mixes));
    }
    // The config block is the pipeline-on platform.
    bench::writeBenchJson("ablation_pipeline", "meanImprovement",
                          headline, "fraction",
                          /*higher_is_better=*/true, extra,
                          mixOptions(mixes[0], true).sys);
}

/**
 * Not a paper figure: the paper evaluates token-text inputs only, but
 * "does in-storage deserialization still pay for structured formats?"
 * follows from its §II motivation.
 */
void
formats()
{
    bench::section("Extension: CSV and JSON deserialization offload",
                   "the §II format motivation, quantified");

    // CSV/JSON deserialize every cell through the floating-point
    // path, so (unlike the integer-dominated Table I inputs) the
    // FPU-less cores lose — the SpMV effect writ large. The paper's
    // predicted "next generation of SSD processors" with native FP
    // support recovers the offload win.
    std::printf("%-12s %6s %14s %12s %12s\n", "app", "ranks",
                "baseline(ms)", "no-FPU", "with-FPU");
    std::vector<bench::BenchMetric> extra;
    std::vector<double> fpu_speedups;
    for (const auto &app : wk::extensionSuite()) {
        wk::RunOptions o = cellOptions(wk::ExecutionMode::kBaseline);
        const auto b = bench::runCell(app, o, "baseline");
        o.mode = wk::ExecutionMode::kMorpheus;
        const auto soft = bench::runCell(app, o, "no FPU");
        o.sys.ssd.core.hasFpu = true;
        const auto fpu = bench::runCell(app, o, "with FPU");
        const double soft_x = ratio(b.deserTime, soft.deserTime);
        fpu_speedups.push_back(ratio(b.deserTime, fpu.deserTime));
        std::printf("%-12s %6u %14.2f %11.2fx %11.2fx\n",
                    app.name.c_str(), app.ranks, ms(b.deserTime), soft_x,
                    fpu_speedups.back());
        extra.push_back({app.name + ".noFpuSpeedup", soft_x, "x"});
        extra.push_back(
            {app.name + ".fpuSpeedup", fpu_speedups.back(), "x"});
    }
    bench::writeBenchJson("extension_formats", "fpuGeomeanSpeedup",
                          bench::geomean(fpu_speedups), "x",
                          /*higher_is_better=*/true, extra);
}

/**
 * Not a paper figure: on-device projection and predicate pushdown
 * (DESIGN.md §16) over a columnar table, swept by selectivity. The
 * full-table scan (no descriptor: every row and column crosses PCIe)
 * is the baseline; the pushdown descriptor ships only the surviving
 * rows' projected columns. The paper's own §VII-A traffic table is in
 * fig11_end_to_end.
 */
void
pushdown(bench::Gates &gate)
{
    bench::section("Extension: projection and predicate pushdown, PCIe "
                   "traffic by selectivity",
                   "pushdown PCIe bytes scale with selectivity");
    const std::uint64_t rows = std::max<std::uint64_t>(
        2048, static_cast<std::uint64_t>(100000.0 * bench::benchScale()));
    const std::uint32_t cols = 6;
    const std::uint32_t proj_cols = 2;
    const serde::ColumnarTableObject table =
        serde::genColumnarTable(7, rows, cols);
    const std::vector<std::uint8_t> flash = table.toFlash();

    host::HostSystem sys;
    core::MorpheusDeviceRuntime device(sys.ssd());
    core::NvmeP2p p2p(sys);
    core::MorpheusRuntime rt(sys, device, p2p);
    const core::StandardImages images = core::StandardImages::make();
    const host::FileExtent file = sys.createFile("columnar.sweep", flash);
    // One scan-applet invocation over @p extent with descriptor @p desc
    // (empty: full scan); @return its result and the DMAed payload.
    const auto scan = [&](const host::FileExtent &extent,
                          const std::vector<std::uint32_t> &desc,
                          std::uint64_t out_bytes) {
        core::InvokeOptions iopts;
        iopts.pushdown = desc;
        const core::DmaTarget target = rt.hostTarget(out_bytes + 64);
        const core::InvokeResult r = rt.invoke(
            images.columnarScan,
            rt.streamCreate(extent, file.readyAt, iopts.hostCore), target,
            file.readyAt, iopts);
        return std::make_pair(
            r, sys.mem().store().readVec(
                   target.addr, static_cast<std::size_t>(r.objectBytes)));
    };

    // Per-row bytes, for the analytic reduction bound and the split.
    std::uint64_t row_bytes = 0, proj_row_bytes = 0;
    for (std::uint32_t c = 0; c < cols; ++c) {
        const std::uint32_t cb = serde::columnCellBytes(table.schema[c].type);
        row_bytes += cb;
        proj_row_bytes += c < proj_cols ? cb : 0;
    }
    const double proj_fraction = static_cast<double>(proj_row_bytes) /
                                 static_cast<double>(row_bytes);

    const serde::ScanResult ref_full =
        serde::scanTable(flash.data(), flash.size(), serde::ScanSpec{});
    const auto [full, full_payload] = scan(file, {}, ref_full.out.size());
    gate(full_payload == ref_full.out,
         "pushdown: full-table scan equals the reference");
    const double full_bytes = static_cast<double>(full.objectBytes);

    // Split geometry: the device scans the header and the first half of
    // the row groups, the host the rest (DESIGN.md §16).
    std::uint64_t header_bytes = 0;
    std::memcpy(&header_bytes, flash.data() + flash.size() - 28, 8);
    const std::uint64_t num_groups =
        (rows + table.rowGroupRows - 1) / table.rowGroupRows;
    const std::uint64_t prefix_groups = num_groups / 2;
    host::FileExtent prefix = file;
    prefix.sizeBytes =
        header_bytes + prefix_groups * row_bytes * table.rowGroupRows;

    std::printf("%llu rows x %u cols, project %u cols\n",
                static_cast<unsigned long long>(rows), cols, proj_cols);
    std::printf("%6s %14s %14s %10s %10s %10s %6s\n", "sel", "full(B)",
                "pushdown(B)", "cut", "bound", "rows", "gate");
    std::vector<bench::BenchMetric> extra;
    double cut_s10 = 0.0, push_bytes_s10 = 0.0;
    for (const double s : {0.01, 0.10, 0.50}) {
        const serde::ScanSpec spec =
            serde::makeSelectivitySpec(s, proj_cols, cols);
        // The host fallback is this shared kernel run in one shot.
        const serde::ScanResult ref =
            serde::scanTable(flash.data(), flash.size(), spec);
        const auto [push, push_payload] =
            scan(file, spec.encode(), ref.out.size());
        const bool dev_ok =
            push_payload == ref.out &&
            push.returnValue == static_cast<std::uint32_t>(ref.survivingRows);

        // Split: the device prefix has no trailer, the host suffix no
        // header and counts on from the device's surviving rows.
        serde::ScanSpec pre = spec;
        pre.flags |= serde::kScanNoTrailer;
        auto [dev_pre, stitched] =
            scan(prefix, pre.encode(), ref.out.size());
        serde::ScanSpec suf = spec;
        suf.flags |= serde::kScanNoHeader;
        const serde::ScanResult host_suf =
            serde::scanTable(flash.data(), flash.size(), suf,
                             prefix_groups, dev_pre.returnValue);
        stitched.insert(stitched.end(), host_suf.out.begin(),
                        host_suf.out.end());
        const bool split_ok = host_suf.ok && stitched == ref.out;

        const double push_bytes = static_cast<double>(push.objectBytes);
        const double cut = 1.0 - push_bytes / full_bytes;
        // Surviving rows x projected columns are (selectivity x
        // projected fraction) of the table; framing gets a 0.8 grace.
        const double bound = (1.0 - s * proj_fraction) * 0.8;
        char claim[64];
        std::snprintf(claim, sizeof(claim),
                      "pushdown %.0f%%: cut >= bound, 3 paths agree",
                      s * 100);
        const bool ok =
            gate(cut >= bound && dev_ok && ref.ok && split_ok, claim);
        std::printf("%5.0f%% %14.0f %14.0f %9.1f%% %9.1f%% %10llu %6s\n",
                    s * 100, full_bytes, push_bytes, cut * 100,
                    bound * 100,
                    static_cast<unsigned long long>(ref.survivingRows),
                    ok ? "pass" : "FAIL");
        if (s == 0.10) {
            cut_s10 = cut;
            push_bytes_s10 = push_bytes;
        }
        char key[24];
        std::snprintf(key, sizeof(key), "pushdown_cut_s%02.0f", s * 100);
        extra.push_back({key, cut, "fraction"});
    }
    gate(push_bytes_s10 <= 0.3 * full_bytes,
         "pushdown: 10% selectivity ships <= 0.3x the table");
    extra.push_back({"full_table_bytes", full_bytes, "bytes"});
    extra.push_back({"pushdown_bytes_s10", push_bytes_s10, "bytes"});
    bench::writeBenchJson("extension_pushdown", "pushdown_cut_s10", cut_s10,
                          "fraction", /*higher_is_better=*/true, extra);
}

}  // namespace

int
main()
{
    bench::Gates gate;
    chunkSize();
    cores();
    dsram();
    queueDepth();
    p2p();
    softFloat();
    pipeline(gate);
    formats();
    pushdown(gate);
    return gate.exitStatus();
}
