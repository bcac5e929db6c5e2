/**
 * @file
 * Figure 10: context-switch frequency during deserialization,
 * baseline vs Morpheus-SSD.
 *
 * Paper shape: Morpheus lowers context-switch frequency by ~98% and
 * total switches by ~97%.
 */

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

int
main()
{
    bench::banner("Figure 10: context switches during deserialization",
                  "-98% frequency, -97% total switches");

    wk::RunOptions base;
    base.mode = wk::ExecutionMode::kBaseline;
    wk::RunOptions morph;
    morph.mode = wk::ExecutionMode::kMorpheus;
    const auto [base_rows, morph_rows] = bench::runSuite({base, morph});

    std::printf("%-12s %14s %14s %12s %12s\n", "app", "base(cs/s)",
                "morph(cs/s)", "base(count)", "morph(count)");
    std::vector<double> freq_red, count_red;
    for (std::size_t i = 0; i < base_rows.size(); ++i) {
        const auto &b = base_rows[i].metrics;
        const auto &m = morph_rows[i].metrics;
        std::printf("%-12s %14.0f %14.0f %12llu %12llu\n",
                    base_rows[i].app->name.c_str(),
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
    return 0;
}
