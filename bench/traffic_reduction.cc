/**
 * @file
 * Extension (DESIGN.md §16): on-device projection & predicate
 * pushdown. A selectivity sweep over a columnar table compares
 * shipping the full table (descriptor-less scan: every row, every
 * column crosses PCIe) against the pushdown descriptor (only
 * surviving rows x projected columns cross), gating that the
 * reduction tracks the analytic bound and that the device pushdown,
 * the host fallback, and a split execution return bit-identical
 * bytes. A serving mix then shows the pushdown tenant beating the
 * full-object tenant's p99 at equal offered load. (The paper's §VII-A
 * baseline-vs-Morpheus traffic table is in fig11_end_to_end.)
 *
 * Exit status is the gate: any sweep or serving check failing returns
 * nonzero.
 */

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "serde/columnar.hh"
#include "workloads/serving.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/** One pushdown invocation: stream @p extent through the columnar
 *  scan applet with @p desc (empty = full scan) and read back the
 *  DMAed payload. */
struct ScanRun
{
    core::InvokeResult result;
    std::vector<std::uint8_t> payload;
};

ScanRun
runScan(host::HostSystem &sys, core::MorpheusRuntime &rt,
        const core::StandardImages &images,
        const host::FileExtent &extent,
        const std::vector<std::uint32_t> &desc, std::uint64_t out_bytes,
        sim::Tick when)
{
    core::InvokeOptions iopts;
    iopts.pushdown = desc;
    const core::DmaTarget target = rt.hostTarget(out_bytes + 64);
    const core::MsStream stream =
        rt.streamCreate(extent, when, iopts.hostCore);
    ScanRun run;
    run.result = rt.invoke(images.columnarScan, stream, target, when,
                           iopts);
    run.payload = sys.mem().store().readVec(
        target.addr, static_cast<std::size_t>(run.result.objectBytes));
    return run;
}

double
pct(double x)
{
    return x * 100.0;
}

}  // namespace

int
main()
{
    bench::banner("Projection and predicate pushdown: PCIe traffic by "
                  "selectivity",
                  "pushdown PCIe bytes scale with selectivity");

    // ---- part 1: pushdown selectivity sweep --------------------------
    const double scale = bench::benchScale();
    const std::uint64_t rows = std::max<std::uint64_t>(
        2048, static_cast<std::uint64_t>(100000.0 * scale));
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
    const host::FileExtent file =
        sys.createFile("columnar.sweep", flash);

    // Per-row byte accounting for the analytic reduction bound.
    std::uint64_t row_bytes = 0, proj_row_bytes = 0;
    for (std::uint32_t c = 0; c < cols; ++c) {
        const std::uint32_t cb =
            serde::columnCellBytes(table.schema[c].type);
        row_bytes += cb;
        if (c < proj_cols)
            proj_row_bytes += cb;
    }
    const double proj_fraction = static_cast<double>(proj_row_bytes) /
                                 static_cast<double>(row_bytes);

    // The full-table baseline: a descriptor-less scan ships every row
    // of every column (plus framing) over PCIe.
    const serde::ScanResult ref_full =
        serde::scanTable(flash.data(), flash.size(), serde::ScanSpec{});
    const ScanRun full = runScan(sys, rt, images, file, {},
                                 ref_full.out.size(), file.readyAt);
    bool ok = full.payload == ref_full.out;
    if (!ok)
        std::printf("FAIL: full-table device scan != reference\n");
    const double full_bytes =
        static_cast<double>(full.result.objectBytes);

    // Split geometry: device prefix = the first half of the row
    // groups, host suffix = the rest (DESIGN.md §16 split semantics).
    std::uint64_t header_bytes = 0;
    std::memcpy(&header_bytes, flash.data() + flash.size() - 28, 8);
    const std::uint64_t group_rows = table.rowGroupRows;
    const std::uint64_t group_bytes = row_bytes * group_rows;
    const std::uint64_t num_groups =
        (rows + group_rows - 1) / group_rows;
    const std::uint64_t prefix_groups = num_groups / 2;

    std::printf("== pushdown selectivity sweep: %llu rows x %u cols, "
                "project %u cols ==\n",
                static_cast<unsigned long long>(rows), cols, proj_cols);
    std::printf("%6s %14s %14s %10s %10s %10s %6s\n", "sel",
                "full(B)", "pushdown(B)", "cut", "bound", "rows",
                "3way");

    const double sweep[] = {0.01, 0.10, 0.50};
    double reduction_s10 = 0.0, push_bytes_s10 = 0.0;
    std::vector<bench::BenchMetric> extras;
    for (const double s : sweep) {
        const serde::ScanSpec spec =
            serde::makeSelectivitySpec(s, proj_cols, cols);
        const serde::ScanResult ref =
            serde::scanTable(flash.data(), flash.size(), spec);

        // Device pushdown.
        const ScanRun push =
            runScan(sys, rt, images, file, spec.encode(),
                    ref.out.size(), file.readyAt);
        const bool dev_ok = push.payload == ref.out &&
                            push.result.returnValue ==
                                static_cast<std::uint32_t>(
                                    ref.survivingRows);

        // Host fallback: the same shared kernel, one shot.
        const serde::ScanResult host_res =
            serde::scanTable(flash.data(), flash.size(), spec);
        const bool host_ok = host_res.ok && host_res.out == ref.out;

        // Split execution: device prefix (no trailer), host suffix
        // (no header, base surviving from the device's return value).
        serde::ScanSpec pre = spec;
        pre.flags |= serde::kScanNoTrailer;
        host::FileExtent prefix = file;
        prefix.sizeBytes = header_bytes + prefix_groups * group_bytes;
        const ScanRun dev_pre =
            runScan(sys, rt, images, prefix, pre.encode(),
                    ref.out.size(), file.readyAt);
        serde::ScanSpec suf = spec;
        suf.flags |= serde::kScanNoHeader;
        const serde::ScanResult host_suf =
            serde::scanTable(flash.data(), flash.size(), suf,
                             prefix_groups, dev_pre.result.returnValue);
        std::vector<std::uint8_t> stitched = dev_pre.payload;
        stitched.insert(stitched.end(), host_suf.out.begin(),
                        host_suf.out.end());
        const bool split_ok = host_suf.ok && stitched == ref.out;

        const double push_bytes =
            static_cast<double>(push.result.objectBytes);
        const double reduction = 1.0 - push_bytes / full_bytes;
        // The analytic bound: surviving rows x projected columns is
        // (selectivity x proj-fraction) of the table payload; framing
        // overhead gets a 0.8 grace factor.
        const double bound = (1.0 - s * proj_fraction) * 0.8;
        const bool three_way = dev_ok && host_ok && split_ok;
        const bool gate = reduction >= bound && three_way;
        ok = ok && gate;
        std::printf("%5.0f%% %14.0f %14.0f %9.1f%% %9.1f%% %10llu %6s\n",
                    pct(s), full_bytes, push_bytes, pct(reduction),
                    pct(bound),
                    static_cast<unsigned long long>(ref.survivingRows),
                    three_way ? "ok" : "FAIL");
        if (!gate)
            std::printf("FAIL: selectivity %.2f: cut %.3f < bound %.3f "
                        "or identity broken (dev=%d host=%d split=%d)\n",
                        s, reduction, bound, dev_ok, host_ok, split_ok);
        if (s == 0.10) {
            reduction_s10 = reduction;
            push_bytes_s10 = push_bytes;
        }
        char key[48];
        std::snprintf(key, sizeof(key), "pushdown_cut_s%02.0f", s * 100);
        extras.push_back({key, reduction, "fraction"});
    }
    // Headline hard gate: 10% selectivity must ship <= 0.3x the full
    // table (the ISSUE acceptance floor).
    if (push_bytes_s10 > 0.3 * full_bytes) {
        std::printf("FAIL: 10%% selectivity pushdown bytes %.0f > 0.3 x "
                    "full-table %.0f\n",
                    push_bytes_s10, full_bytes);
        ok = false;
    }

    // ---- part 2: serving mix — pushdown vs full-object p99 -----------
    // Two columnar tenants at the same offered load over the same
    // table geometry: tenant 1 pushes the 10%-selectivity projection
    // down; tenant 2 ships the full table (descriptor-less scan, the
    // full-object MREAD posture). A third tenant adds mixed-format
    // (CSV) read+write background traffic.
    wk::ServingOptions sopts;
    // Closed loop: each tenant keeps a fixed number of requests in
    // flight, so per-request latency traces service time (transfer +
    // scan) rather than queue-drain position — the pushdown-vs-full
    // p99 comparison stays deterministic across bench scales.
    sopts.closedLoop = true;
    sopts.closedLoopConcurrency = 2;
    sopts.closedLoopRequests =
        static_cast<std::uint64_t>(64.0 * bench::servingWindows());
    sopts.seed = 42;
    // Bound concurrent instances so overload queues host-side (kQueue)
    // instead of overflowing I-SRAM into hard MINIT failures (same
    // posture as serving_tail_latency).
    sopts.sys.ssd.sched.maxInflightTotal = 12;
    {
        wk::TenantSpec t1;
        t1.id = 1;
        t1.format = wk::TenantFormat::kColumnar;
        t1.pushdown = true;
        t1.selectivity = 0.10;
        t1.projectColumns = proj_cols;
        t1.tableColumns = cols;
        t1.sizeClassValues = {4096, 16384};
        t1.sizeClassProb = {0.75, 0.25};
        t1.arrivalsPerSec = 3000.0;
        wk::TenantSpec t2 = t1;
        t2.id = 2;
        t2.pushdown = false;  // full-object baseline
        wk::TenantSpec t3;
        t3.id = 3;
        t3.format = wk::TenantFormat::kCsv;
        t3.sizeClassValues = {512, 2048};
        t3.sizeClassProb = {0.8, 0.2};
        t3.arrivalsPerSec = 2500.0;
        t3.writeFraction = 0.4;
        sopts.tenants = {t1, t2, t3};
    }
    const wk::ServingReport rep = wk::runServing(sopts);
    const wk::TenantReport &push_t = rep.tenants[0];
    const wk::TenantReport &fullo_t = rep.tenants[1];
    const wk::TenantReport &mix_t = rep.tenants[2];
    std::printf("\n== serving mix (equal offered load) ==\n");
    std::printf("tenant1 columnar+pushdown: completed %llu p99 %.1f us "
                "served %.2f MB\n",
                static_cast<unsigned long long>(push_t.completed),
                push_t.p99Us, push_t.servedBytes / 1e6);
    std::printf("tenant2 columnar full-object: completed %llu p99 %.1f "
                "us served %.2f MB\n",
                static_cast<unsigned long long>(fullo_t.completed),
                fullo_t.p99Us, fullo_t.servedBytes / 1e6);
    std::printf("tenant3 csv mixed r/w: completed %llu writes %llu "
                "writeBytes %.2f MB p99 %.1f us\n",
                static_cast<unsigned long long>(mix_t.completed),
                static_cast<unsigned long long>(mix_t.writes),
                mix_t.writeBytes / 1e6, mix_t.p99Us);
    if (!(push_t.p99Us < fullo_t.p99Us)) {
        std::printf("FAIL: pushdown p99 %.1f us !< full-object p99 %.1f "
                    "us at equal load\n",
                    push_t.p99Us, fullo_t.p99Us);
        ok = false;
    }
    if (mix_t.writes == 0) {
        std::printf("FAIL: mixed tenant completed no MWRITE traffic\n");
        ok = false;
    }

    std::printf("\npushdown gate: %s\n", ok ? "ok" : "FAIL");

    extras.push_back({"full_table_bytes", full_bytes, "bytes"});
    extras.push_back({"pushdown_bytes_s10", push_bytes_s10, "bytes"});
    extras.push_back({"serving_p99_pushdown_us", push_t.p99Us, "us"});
    extras.push_back({"serving_p99_fullobject_us", fullo_t.p99Us,
                      "us"});
    extras.push_back({"serving_writes", static_cast<double>(rep.writes),
                      "count"});
    bench::writeBenchJson("traffic_reduction", "pushdown_cut_s10",
                          reduction_s10, "fraction",
                          /*higher_is_better=*/true, extras);
    return ok ? 0 : 1;
}
