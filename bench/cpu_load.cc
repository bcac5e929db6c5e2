/**
 * @file
 * §III/§VII claim: "The Morpheus model improves resource utilization
 * in the CPU ... allowing the CPU to devote its resources to other,
 * higher-IPC processes" — the host cores go (nearly) idle during
 * deserialization.
 */

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

int
main()
{
    bench::banner("Section VII-A: host CPU load during "
                  "deserialization",
                  "Morpheus frees the host cores (they sleep while "
                  "the SSD parses)");

    wk::RunOptions base;
    base.mode = wk::ExecutionMode::kBaseline;
    wk::RunOptions morph;
    morph.mode = wk::ExecutionMode::kMorpheus;
    const auto [b, m] = bench::runSuite({base, morph});

    std::printf("%-12s %16s %16s\n", "app", "base(busy cores)",
                "morph(busy cores)");
    std::vector<double> saved;
    for (std::size_t i = 0; i < b.size(); ++i) {
        std::printf("%-12s %16.2f %16.3f\n", b[i].app->name.c_str(),
                    b[i].metrics.cpuBusyCoresDeser,
                    m[i].metrics.cpuBusyCoresDeser);
        saved.push_back(1.0 - m[i].metrics.cpuBusyCoresDeser /
                                  b[i].metrics.cpuBusyCoresDeser);
    }
    std::printf("\nmean host-CPU load reduction during "
                "deserialization: %.1f%%\n",
                bench::mean(saved) * 100);
    return 0;
}
