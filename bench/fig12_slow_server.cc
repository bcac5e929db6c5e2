/**
 * @file
 * §VII-B "slower servers": end-to-end Morpheus speedup with the host
 * underclocked to 1.2 GHz.
 *
 * Paper shape: the gain grows on slower hosts (the CPU-side
 * deserialization gets worse; the SSD-side cost is unchanged).
 */

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

/** Print one host clock's per-app speedups; @return their mean. */
double
meanSpeedup(const char *clock, const std::vector<bench::SuiteRow> &b,
            const std::vector<bench::SuiteRow> &m)
{
    std::vector<double> speedups;
    std::printf("%-12s", clock);
    for (std::size_t i = 0; i < b.size(); ++i) {
        const double s =
            static_cast<double>(b[i].metrics.totalTime) /
            static_cast<double>(m[i].metrics.totalTime);
        speedups.push_back(s);
        std::printf(" %7.2fx", s);
    }
    const double mu = bench::mean(speedups);
    std::printf(" | mean %.2fx\n", mu);
    return mu;
}

}  // namespace

int
main()
{
    bench::banner("Section VII-B: Morpheus end-to-end speedup on a "
                  "slower server (1.2 GHz host)",
                  "gain grows when the host CPU is slower");

    std::printf("%-12s", "host clock");
    for (const auto &app : wk::standardSuite())
        std::printf(" %8s", app.name.substr(0, 8).c_str());
    std::printf("\n");

    wk::RunOptions opts[4];
    for (int i = 0; i < 4; ++i) {
        opts[i].mode = i % 2 == 0 ? wk::ExecutionMode::kBaseline
                                  : wk::ExecutionMode::kMorpheus;
        opts[i].cpuFreqHz = i < 2 ? 2.5e9 : 1.2e9;
    }
    const auto rows = bench::runSuite(opts);
    const double fast = meanSpeedup("2.5GHz", rows[0], rows[1]);
    const double slow = meanSpeedup("1.2GHz", rows[2], rows[3]);
    std::printf("\nmean end-to-end speedup: %.2fx at 2.5 GHz -> %.2fx "
                "at 1.2 GHz\n",
                fast, slow);
    return slow > fast ? 0 : 1;
}
