/**
 * @file
 * §VII-B / end-to-end results: total execution time under the three
 * execution paths — baseline, Morpheus, Morpheus + NVMe-P2P (the P2P
 * column only differs for the CUDA apps; the others fall back to
 * plain Morpheus).
 *
 * Paper shape: Morpheus ~1.32x end-to-end on average; with NVMe-P2P
 * ~1.39x on the heterogeneous (GPU) platform.
 */

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

int
main()
{
    bench::banner("Section VII-B: end-to-end execution time",
                  "Morpheus 1.32x, Morpheus+NVMe-P2P 1.39x");

    wk::RunOptions base;
    base.mode = wk::ExecutionMode::kBaseline;
    wk::RunOptions morph;
    morph.mode = wk::ExecutionMode::kMorpheus;
    wk::RunOptions p2p;
    p2p.mode = wk::ExecutionMode::kMorpheusP2p;
    const auto [b, m, p] = bench::runSuite({base, morph, p2p});

    std::printf("%-12s %12s %12s %12s %9s %9s\n", "app", "base(ms)",
                "morph(ms)", "p2p(ms)", "morph", "p2p");
    std::vector<double> s_morph, s_p2p;
    for (std::size_t i = 0; i < b.size(); ++i) {
        const double tb = sim::ticksToSeconds(b[i].metrics.totalTime);
        const double tm = sim::ticksToSeconds(m[i].metrics.totalTime);
        const double tp = sim::ticksToSeconds(p[i].metrics.totalTime);
        s_morph.push_back(tb / tm);
        s_p2p.push_back(tb / tp);
        std::printf("%-12s %12.2f %12.2f %12.2f %8.2fx %8.2fx\n",
                    b[i].app->name.c_str(), tb * 1e3, tm * 1e3,
                    tp * 1e3, tb / tm, tb / tp);
    }
    std::printf("%-12s %38s %8.2fx %8.2fx\n", "mean", "",
                bench::mean(s_morph), bench::mean(s_p2p));
    return 0;
}
