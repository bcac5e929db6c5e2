/**
 * @file
 * Figure 3: effective deserialization bandwidth per I/O thread for
 * {HDD, NVMe SSD, RAM drive} x {2.5 GHz, 1.2 GHz} host clocks,
 * conventional model.
 *
 * Paper shape: at 2.5 GHz the NVMe SSD beats the HDD (~1.5x) but the
 * RAM drive is no better than the NVMe SSD (CPU bound); at 1.2 GHz
 * everything degrades and the devices converge.
 */

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

int
main()
{
    bench::banner(
        "Figure 3: effective deserialization bandwidth (MB/s per I/O "
        "thread)",
        "CPU-bound: RAM drive ~= NVMe SSD; all devices converge at "
        "1.2 GHz");

    const struct
    {
        const char *name;
        wk::BackendKind kind;
    } devices[] = {
        {"nvme-2.5GHz", wk::BackendKind::kNvme},
        {"ram-2.5GHz", wk::BackendKind::kRamDrive},
        {"hdd-2.5GHz", wk::BackendKind::kHdd},
        {"nvme-1.2GHz", wk::BackendKind::kNvme},
        {"ram-1.2GHz", wk::BackendKind::kRamDrive},
        {"hdd-1.2GHz", wk::BackendKind::kHdd},
    };

    wk::RunOptions opts[6];
    for (std::size_t i = 0; i < 6; ++i) {
        opts[i].mode = wk::ExecutionMode::kBaseline;
        opts[i].backend = devices[i].kind;
        opts[i].cpuFreqHz = i < 3 ? 2.5e9 : 1.2e9;
    }
    const auto rows = bench::runSuite(opts);
    std::vector<std::vector<double>> series(6);
    for (std::size_t i = 0; i < 6; ++i) {
        for (const auto &row : rows[i])
            series[i].push_back(row.metrics.effectiveBandwidthMBps);
    }

    std::printf("%-12s", "app");
    for (const auto &d : devices)
        std::printf(" %12s", d.name);
    std::printf("\n");
    const auto &suite = wk::standardSuite();
    for (std::size_t a = 0; a < suite.size(); ++a) {
        std::printf("%-12s", suite[a].name.c_str());
        for (int i = 0; i < 6; ++i)
            std::printf(" %12.1f", series[static_cast<std::size_t>(i)][a]);
        std::printf("\n");
    }
    std::printf("%-12s", "mean");
    for (int i = 0; i < 6; ++i)
        std::printf(" %12.1f",
                    bench::mean(series[static_cast<std::size_t>(i)]));
    std::printf("\n");

    // Headline: the paper's main operating point (NVMe at 2.5 GHz).
    std::vector<bench::BenchMetric> extra;
    for (int i = 0; i < 6; ++i)
        extra.push_back({std::string(devices[i].name) + ".meanMBps",
                         bench::mean(series[static_cast<std::size_t>(i)]),
                         "MB/s"});
    bench::writeBenchJson("fig03", "nvmeMeanBandwidth",
                          bench::mean(series[0]), "MB/s",
                          /*higher_is_better=*/true, extra,
                          bench::BenchConfig{});
    return 0;
}
