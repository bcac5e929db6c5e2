/**
 * @file
 * Figure 9: normalized total-system power and energy during object
 * deserialization, Morpheus-SSD vs baseline.
 *
 * Paper shape: power down ~7% on average (max ~17%); energy down ~42%
 * (power saving compounds with the shorter phase).
 */

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

int
main()
{
    bench::banner("Figure 9: normalized power and energy during "
                  "deserialization",
                  "-7% power (mean), up to -17%; -42% energy");

    wk::RunOptions base;
    base.mode = wk::ExecutionMode::kBaseline;
    wk::RunOptions morph;
    morph.mode = wk::ExecutionMode::kMorpheus;
    const auto [base_rows, morph_rows] = bench::runSuite({base, morph});

    std::printf("%-12s %10s %10s %10s %10s %10s %10s\n", "app",
                "P.base(W)", "P.morph(W)", "P.norm", "E.base(J)",
                "E.morph(J)", "E.norm");
    std::vector<double> p_norm, e_norm;
    for (std::size_t i = 0; i < base_rows.size(); ++i) {
        const auto &b = base_rows[i].metrics;
        const auto &m = morph_rows[i].metrics;
        const double pn = m.deserPowerWatts / b.deserPowerWatts;
        const double en = m.deserEnergyJoules / b.deserEnergyJoules;
        p_norm.push_back(pn);
        e_norm.push_back(en);
        std::printf("%-12s %10.1f %10.1f %10.3f %10.4f %10.4f %10.3f\n",
                    base_rows[i].app->name.c_str(), b.deserPowerWatts,
                    m.deserPowerWatts, pn, b.deserEnergyJoules,
                    m.deserEnergyJoules, en);
    }
    std::printf("%-12s %21s %10.3f %21s %10.3f\n", "mean", "",
                bench::mean(p_norm), "", bench::mean(e_norm));
    return 0;
}
