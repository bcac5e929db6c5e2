/**
 * @file
 * Figure 2: normalized execution-time breakdown of the conventional
 * baseline — other CPU computation, deserialization, GPU/CPU data
 * copy, GPU kernels.
 *
 * Paper shape: deserialization averages 64% of total execution time.
 */

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

int
main()
{
    bench::banner("Figure 2: baseline execution-time breakdown",
                  "deserialization is ~64% of execution on average");

    // MORPHEUS_TRACE=<file.json> records the whole sweep as a Chrome
    // trace (the per-command spans are the simulated counterpart of the
    // paper's Fig. 2 time-attribution methodology).
    bench::EnvTrace trace;

    wk::RunOptions base;
    base.mode = wk::ExecutionMode::kBaseline;
    const auto [rows] = bench::runSuite({base});

    std::printf("%-12s %8s %8s %8s %8s (fractions of total)\n", "app",
                "deser", "kernel", "copy", "other");
    std::vector<double> deser_fracs;
    for (const auto &row : rows) {
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
    return 0;
}
