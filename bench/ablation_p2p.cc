/**
 * @file
 * Ablation: NVMe-P2P benefit vs object size. P2P removes the host
 * DRAM bounce of the H2D copy; the saving grows with the object. The
 * sweep spans 0.2x to 4x the bench scale (0.05 to 1.0 at the default
 * 0.25).
 */

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

int
main()
{
    bench::banner("Ablation: NVMe-P2P vs bounce-through-host, by "
                  "object size",
                  "P2P saving grows with the object (design choice "
                  "#4)");

    const wk::AppSpec &app = wk::findApp("bfs");
    std::printf("%-10s %12s %12s %12s %10s\n", "scale", "obj(MB)",
                "morph(ms)", "p2p(ms)", "gain");
    for (const double factor : {0.2, 0.4, 1.0, 2.0, 4.0}) {
        const double scale = factor * bench::benchScale();
        wk::RunOptions o;
        o.mode = wk::ExecutionMode::kMorpheus;
        o.scale = scale;
        const auto m = wk::runWorkload(app, o);
        wk::RunOptions o2 = o;
        o2.mode = wk::ExecutionMode::kMorpheusP2p;
        const auto p = wk::runWorkload(app, o2);
        std::printf("%-10.2f %12.1f %12.2f %12.2f %9.2fx\n", scale,
                    m.objectBytesProduced / 1e6,
                    sim::ticksToSeconds(m.totalTime) * 1e3,
                    sim::ticksToSeconds(p.totalTime) * 1e3,
                    static_cast<double>(m.totalTime) /
                        static_cast<double>(p.totalTime));
    }
    return 0;
}
