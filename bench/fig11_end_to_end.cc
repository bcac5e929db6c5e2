/**
 * @file
 * The paper sweep: every figure and table the paper measures on the
 * ten Table I apps, printed from one run of each cell. A cell is one
 * app under one of nine configurations:
 *   - baseline on the NVMe SSD, the RAM drive and the HDD, each at a
 *     2.5 GHz and at a 1.2 GHz host clock;
 *   - Morpheus at 2.5 GHz and at 1.2 GHz;
 *   - Morpheus + NVMe-P2P at 2.5 GHz (the P2P column only differs for
 *     the CUDA apps; the others fall back to plain Morpheus).
 *
 * Sections, in print order, each under its own banner:
 *   - §VII-B end-to-end time: Morpheus ~1.32x, with P2P ~1.39x;
 *   - Fig 2: baseline time breakdown, deserialization ~64%;
 *   - Fig 3: effective deserialization bandwidth per I/O thread; the
 *     RAM drive is no better than the NVMe SSD (CPU bound) and all
 *     devices converge at 1.2 GHz;
 *   - Fig 9: power (-7%) and energy (-42%) during deserialization;
 *   - Fig 10: context switches during deserialization (-98%);
 *   - Fig 12 / §VII-B slower servers: the gain grows at 1.2 GHz;
 *   - §VII-A: PCIe (-22%) and CPU-memory-bus (-58%) traffic;
 *   - §VII-A: host CPU load during deserialization;
 *   - Table I: the apps, their suites, parallel models, object kinds
 *     and input sizes, printed from the AppSpecs and the NVMe baseline
 *     cells' text size, with no run of its own.
 *
 * Each measured headline goes to a BENCH_<name>.json that
 * tools/check_bench.py gates: fig02, fig03, fig09, fig10, fig11, fig12
 * and sec7a.
 * MORPHEUS_TRACE=<file.json> records the whole sweep as a Chrome
 * trace. Exits 1 when a run fails validation or the Fig 12 gate
 * ("gate <claim> pass|FAIL" on stderr) fails: the 1.2 GHz mean
 * speedup must exceed the 2.5 GHz one.
 */

#include "bench_common.hh"
#include "workloads/objects.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/** The sweep's cells, in runSuite order. */
enum Cell : std::size_t
{
    // Baseline at 2.5 GHz, then at 1.2 GHz, in Fig 3's column order.
    kNvme25,
    kRam25,
    kHdd25,
    kNvme12,
    kRam12,
    kHdd12,
    kMorph25,
    kMorph12,
    kP2p25,
    kNumCells
};

using Sweep = std::array<std::vector<bench::SuiteRow>, kNumCells>;
using bench::section;

void
endToEnd(const Sweep &s)
{
    section("Section VII-B: end-to-end execution time",
            "Morpheus 1.32x, Morpheus+NVMe-P2P 1.39x");
    std::printf("%-12s %12s %12s %12s %9s %9s\n", "app", "base(ms)",
                "morph(ms)", "p2p(ms)", "morph", "p2p");
    std::vector<double> s_morph, s_p2p;
    for (std::size_t i = 0; i < s[kNvme25].size(); ++i) {
        const double tb =
            sim::ticksToSeconds(s[kNvme25][i].metrics.totalTime);
        const double tm =
            sim::ticksToSeconds(s[kMorph25][i].metrics.totalTime);
        const double tp =
            sim::ticksToSeconds(s[kP2p25][i].metrics.totalTime);
        s_morph.push_back(tb / tm);
        s_p2p.push_back(tb / tp);
        std::printf("%-12s %12.2f %12.2f %12.2f %8.2fx %8.2fx\n",
                    s[kNvme25][i].app->name.c_str(), tb * 1e3, tm * 1e3,
                    tp * 1e3, tb / tm, tb / tp);
    }
    std::printf("%-12s %38s %8.2fx %8.2fx\n", "mean", "",
                bench::mean(s_morph), bench::mean(s_p2p));
    bench::writeBenchJson("fig11", "meanSpeedup", bench::mean(s_morph),
                          "x", /*higher_is_better=*/true,
                          {{"p2p.meanSpeedup", bench::mean(s_p2p), "x"}});
}

void
breakdown(const Sweep &s)
{
    section("Figure 2: baseline execution-time breakdown",
            "deserialization is ~64% of execution on average");
    std::printf("%-12s %8s %8s %8s %8s (fractions of total)\n", "app",
                "deser", "kernel", "copy", "other");
    std::vector<double> deser_fracs;
    for (const auto &row : s[kNvme25]) {
        const double total = static_cast<double>(row.metrics.totalTime);
        const double deser =
            static_cast<double>(row.metrics.deserTime) / total;
        const double kernel =
            static_cast<double>(row.metrics.kernelTime) / total;
        const double copy =
            static_cast<double>(row.metrics.gpuCopyTime) / total;
        const double other =
            static_cast<double>(row.metrics.otherCpuTime) / total;
        deser_fracs.push_back(deser);
        std::printf("%-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
                    row.app->name.c_str(), deser * 100, kernel * 100,
                    copy * 100, other * 100);
    }
    std::printf("%-12s %7.1f%%  <- mean deserialization share\n",
                "mean", bench::mean(deser_fracs) * 100);
    // Higher is better: the paper's motivation is that deserialization
    // dominates the baseline; a model change that shrinks it weakens
    // the reproduction.
    bench::writeBenchJson("fig02", "meanDeserShare",
                          bench::mean(deser_fracs), "fraction",
                          /*higher_is_better=*/true);
}

void
bandwidth(const Sweep &s)
{
    section("Figure 3: effective deserialization bandwidth (MB/s per I/O "
            "thread)",
            "CPU-bound: RAM drive ~= NVMe SSD; all devices converge at "
            "1.2 GHz");
    // One column per baseline cell.
    const char *const columns[kMorph25] = {"nvme-2.5GHz", "ram-2.5GHz",
                                           "hdd-2.5GHz",  "nvme-1.2GHz",
                                           "ram-1.2GHz",  "hdd-1.2GHz"};
    std::vector<double> series[kMorph25];
    for (std::size_t c = 0; c < kMorph25; ++c) {
        for (const auto &row : s[c])
            series[c].push_back(row.metrics.effectiveBandwidthMBps);
    }

    std::printf("%-12s", "app");
    for (const char *name : columns)
        std::printf(" %12s", name);
    std::printf("\n");
    for (std::size_t a = 0; a < s[kNvme25].size(); ++a) {
        std::printf("%-12s", s[kNvme25][a].app->name.c_str());
        for (const auto &col : series)
            std::printf(" %12.1f", col[a]);
        std::printf("\n");
    }
    std::printf("%-12s", "mean");
    for (const auto &col : series)
        std::printf(" %12.1f", bench::mean(col));
    std::printf("\n");

    // Headline: the paper's main operating point (NVMe at 2.5 GHz).
    std::vector<bench::BenchMetric> extra;
    for (std::size_t c = 0; c < kMorph25; ++c)
        extra.push_back({std::string(columns[c]) + ".meanMBps",
                         bench::mean(series[c]), "MB/s"});
    bench::writeBenchJson("fig03", "nvmeMeanBandwidth",
                          bench::mean(series[kNvme25]), "MB/s",
                          /*higher_is_better=*/true, extra);
}

void
powerEnergy(const Sweep &s)
{
    section("Figure 9: normalized power and energy during "
            "deserialization",
            "-7% power (mean), up to -17%; -42% energy");
    std::printf("%-12s %10s %10s %10s %10s %10s %10s\n", "app",
                "P.base(W)", "P.morph(W)", "P.norm", "E.base(J)",
                "E.morph(J)", "E.norm");
    std::vector<double> p_norm, e_norm;
    for (std::size_t i = 0; i < s[kNvme25].size(); ++i) {
        const auto &b = s[kNvme25][i].metrics;
        const auto &m = s[kMorph25][i].metrics;
        const double pn = m.deserPowerWatts / b.deserPowerWatts;
        const double en = m.deserEnergyJoules / b.deserEnergyJoules;
        p_norm.push_back(pn);
        e_norm.push_back(en);
        std::printf("%-12s %10.1f %10.1f %10.3f %10.4f %10.4f %10.3f\n",
                    s[kNvme25][i].app->name.c_str(), b.deserPowerWatts,
                    m.deserPowerWatts, pn, b.deserEnergyJoules,
                    m.deserEnergyJoules, en);
    }
    std::printf("%-12s %21s %10.3f %21s %10.3f\n", "mean", "",
                bench::mean(p_norm), "", bench::mean(e_norm));
    bench::writeBenchJson("fig09", "meanEnergyNorm", bench::mean(e_norm),
                          "ratio", /*higher_is_better=*/false,
                          {{"meanPowerNorm", bench::mean(p_norm),
                            "ratio"}});
}

void
contextSwitches(const Sweep &s)
{
    section("Figure 10: context switches during deserialization",
            "-98% frequency, -97% total switches");
    std::printf("%-12s %14s %14s %12s %12s\n", "app", "base(cs/s)",
                "morph(cs/s)", "base(count)", "morph(count)");
    std::vector<double> freq_red, count_red;
    for (std::size_t i = 0; i < s[kNvme25].size(); ++i) {
        const auto &b = s[kNvme25][i].metrics;
        const auto &m = s[kMorph25][i].metrics;
        std::printf("%-12s %14.0f %14.0f %12llu %12llu\n",
                    s[kNvme25][i].app->name.c_str(),
                    b.contextSwitchesPerSec, m.contextSwitchesPerSec,
                    static_cast<unsigned long long>(
                        b.contextSwitchesDeser),
                    static_cast<unsigned long long>(
                        m.contextSwitchesDeser));
        freq_red.push_back(1.0 - m.contextSwitchesPerSec /
                                     b.contextSwitchesPerSec);
        count_red.push_back(
            1.0 - static_cast<double>(m.contextSwitchesDeser) /
                      static_cast<double>(b.contextSwitchesDeser));
    }
    std::printf("\nmean frequency reduction %.1f%%, mean count "
                "reduction %.1f%%\n",
                bench::mean(freq_red) * 100,
                bench::mean(count_red) * 100);
    bench::writeBenchJson("fig10", "meanFreqReduction",
                          bench::mean(freq_red), "fraction",
                          /*higher_is_better=*/true,
                          {{"meanCountReduction", bench::mean(count_red),
                            "fraction"}});
}

/** Print one host clock's per-app speedups; @return their mean. */
double
meanSpeedup(const char *clock, const std::vector<bench::SuiteRow> &b,
            const std::vector<bench::SuiteRow> &m)
{
    std::vector<double> speedups;
    std::printf("%-12s", clock);
    for (std::size_t i = 0; i < b.size(); ++i) {
        const double x = static_cast<double>(b[i].metrics.totalTime) /
                         static_cast<double>(m[i].metrics.totalTime);
        speedups.push_back(x);
        std::printf(" %7.2fx", x);
    }
    const double mu = bench::mean(speedups);
    std::printf(" | mean %.2fx\n", mu);
    return mu;
}

/** Fig 12 / §VII-B: the speedups at both host clocks, and the gate
 *  that the gain grows on the slower host. */
void
slowServer(const Sweep &s, bench::Gates &gate)
{
    section("Section VII-B: Morpheus end-to-end speedup on a slower "
            "server (1.2 GHz host)",
            "gain grows when the host CPU is slower");
    std::printf("%-12s", "host clock");
    for (const auto &row : s[kNvme25])
        std::printf(" %8s", row.app->name.substr(0, 8).c_str());
    std::printf("\n");
    const double fast = meanSpeedup("2.5GHz", s[kNvme25], s[kMorph25]);
    const double slow = meanSpeedup("1.2GHz", s[kNvme12], s[kMorph12]);
    std::printf("\nmean end-to-end speedup: %.2fx at 2.5 GHz -> %.2fx "
                "at 1.2 GHz\n",
                fast, slow);
    bench::writeBenchJson("fig12", "meanSpeedup1.2GHz", slow, "x",
                          /*higher_is_better=*/true,
                          {{"meanSpeedup2.5GHz", fast, "x"}});
    gate(slow > fast, "the 1.2 GHz mean speedup exceeds the 2.5 GHz one");
}

/** §VII-A: the traffic table, then the host CPU load table. */
void
sec7a(const Sweep &s)
{
    section("Section VII-A: interconnect traffic during "
            "deserialization",
            "-22% PCIe traffic, -58% CPU-memory-bus traffic");
    std::printf("%-12s %12s %12s %8s %12s %12s %8s\n", "app",
                "pcie.b(MB)", "pcie.m(MB)", "saved", "mbus.b(MB)",
                "mbus.m(MB)", "saved");
    std::vector<double> pcie_saved, mbus_saved;
    for (std::size_t i = 0; i < s[kNvme25].size(); ++i) {
        const auto &b = s[kNvme25][i].metrics;
        const auto &m = s[kMorph25][i].metrics;
        const double ps = 1.0 - static_cast<double>(m.pcieBytesDeser) /
                                    static_cast<double>(
                                        b.pcieBytesDeser);
        const double ms_ = 1.0 -
                           static_cast<double>(m.membusBytesDeser) /
                               static_cast<double>(b.membusBytesDeser);
        pcie_saved.push_back(ps);
        mbus_saved.push_back(ms_);
        std::printf("%-12s %12.1f %12.1f %7.0f%% %12.1f %12.1f %7.0f%%\n",
                    s[kNvme25][i].app->name.c_str(),
                    b.pcieBytesDeser / 1e6, m.pcieBytesDeser / 1e6,
                    ps * 100, b.membusBytesDeser / 1e6,
                    m.membusBytesDeser / 1e6, ms_ * 100);
    }
    std::printf("\nmean PCIe traffic saved %.1f%%, mean memory-bus "
                "traffic saved %.1f%%\n",
                bench::mean(pcie_saved) * 100,
                bench::mean(mbus_saved) * 100);

    section("Section VII-A: host CPU load during "
            "deserialization",
            "Morpheus frees the host cores (they sleep while "
            "the SSD parses)");
    std::printf("%-12s %16s %16s\n", "app", "base(busy cores)",
                "morph(busy cores)");
    std::vector<double> load_saved;
    for (std::size_t i = 0; i < s[kNvme25].size(); ++i) {
        const auto &b = s[kNvme25][i].metrics;
        const auto &m = s[kMorph25][i].metrics;
        std::printf("%-12s %16.2f %16.3f\n",
                    s[kNvme25][i].app->name.c_str(), b.cpuBusyCoresDeser,
                    m.cpuBusyCoresDeser);
        load_saved.push_back(1.0 - m.cpuBusyCoresDeser /
                                       b.cpuBusyCoresDeser);
    }
    std::printf("\nmean host-CPU load reduction during "
                "deserialization: %.1f%%\n",
                bench::mean(load_saved) * 100);

    bench::writeBenchJson(
        "sec7a", "mean_membus_saved", bench::mean(mbus_saved), "fraction",
        /*higher_is_better=*/true,
        {{"mean_pcie_saved", bench::mean(pcie_saved), "fraction"},
         {"mean_membus_saved", bench::mean(mbus_saved), "fraction"},
         {"mean_cpu_load_reduction", bench::mean(load_saved),
          "fraction"}});
}

const char *
parallelName(wk::ParallelModel p)
{
    switch (p) {
      case wk::ParallelModel::kMpi:
        return "MPI";
      case wk::ParallelModel::kCuda:
        return "CUDA";
      case wk::ParallelModel::kSerial:
        return "N/A";
    }
    return "?";
}

const char *
objectName(wk::ObjectKind k)
{
    switch (k) {
      case wk::ObjectKind::kEdgeList:
        return "edge list";
      case wk::ObjectKind::kEdgeListWeighted:
        return "weighted edge list";
      case wk::ObjectKind::kMatrix:
        return "dense matrix";
      case wk::ObjectKind::kIntArray:
        return "integer array";
      case wk::ObjectKind::kPointSet:
        return "point set";
      case wk::ObjectKind::kCooMatrix:
        return "sparse COO matrix";
      case wk::ObjectKind::kCsvTable:
        return "CSV table";
      case wk::ObjectKind::kJsonRecords:
        return "JSON records";
    }
    return "?";
}

/** Table I; the scaled input is the text the NVMe baseline read. */
void
tableOne(const Sweep &s)
{
    section("Table I: applications and input sizes",
            "10 apps from BigDataBench / Rodinia / standalone, text "
            "inputs up to 3.6 GB");
    std::printf("%-12s %-14s %-6s %-19s %12s %14s %9s\n", "app",
                "suite", "model", "object", "paper input",
                "scaled input", "float%");
    for (const auto &row : s[kNvme25]) {
        const wk::AppSpec &app = *row.app;
        std::printf("%-12s %-14s %-6s %-19s %9.2f GB %11.2f MB %8.0f%%\n",
                    app.name.c_str(), app.suite.c_str(),
                    parallelName(app.parallel), objectName(app.object),
                    static_cast<double>(app.paperInputBytes) / 1e9,
                    static_cast<double>(row.metrics.rawTextBytes) / 1e6,
                    app.floatFraction * 100.0);
    }
}

}  // namespace

int
main()
{
    bench::EnvTrace trace;
    bench::Gates gate;

    wk::RunOptions opts[kNumCells];
    const wk::BackendKind backends[] = {wk::BackendKind::kNvme,
                                        wk::BackendKind::kRamDrive,
                                        wk::BackendKind::kHdd};
    for (std::size_t c = kNvme25; c <= kHdd12; ++c)
        opts[c].backend = backends[c % 3];
    for (const Cell c : {kNvme12, kRam12, kHdd12, kMorph12})
        opts[c].cpuFreqHz = 1.2e9;
    opts[kMorph25].mode = wk::ExecutionMode::kMorpheus;
    opts[kMorph12].mode = wk::ExecutionMode::kMorpheus;
    opts[kP2p25].mode = wk::ExecutionMode::kMorpheusP2p;
    const Sweep s = bench::runSuite(opts);

    endToEnd(s);
    breakdown(s);
    bandwidth(s);
    powerEnergy(s);
    contextSwitches(s);
    slowServer(s, gate);
    sec7a(s);
    tableOne(s);
    return gate.exitStatus();
}
