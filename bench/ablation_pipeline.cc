/**
 * @file
 * Ablation: the streaming chunk pipeline (flash readahead +
 * double-buffered parse + coalesced flush DMA, DESIGN.md §11).
 *
 * With the pipeline off, an MREAD chunk is one sub-buffer: its parse
 * waits for the last flash page and its flush DMA for the parse, so
 * flash, the embedded core, and PCIe each idle while the other two
 * work. The pipeline overlaps the three stages without changing
 * functional results or ParseCost totals. The
 * overlap is fully exposed at queue depth 1 — deeper queues already
 * overlap across commands via the shared timelines — so the ablation
 * pins queueEntries = 2 (one command in flight).
 *
 * Self-checking (the exit status is the CTest gate):
 *  - pipeline-on improves end-to-end MREAD stream latency by >= 20%
 *    on a flash-bound mix (integer app on a 2-channel, 1-die array)
 *    and >= 10% on a parse-bound mix (soft-float app on the default
 *    8-channel array);
 *  - pipeline-off is bit-deterministic (two runs, identical ticks) —
 *    the off path is the single-sub-buffer schedule every figure uses;
 *  - checksums match between pipeline-on and pipeline-off runs.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace morpheus;
namespace wk = morpheus::workloads;

namespace {

struct Mix
{
    const char *name;
    const char *app;
    double minImprovement;
    bool shrinkFlash;  ///< 2 channels x 1 die: flash-bound.
};

wk::RunOptions
mixOptions(const Mix &mix, bool pipeline_on)
{
    wk::RunOptions o;
    o.mode = wk::ExecutionMode::kMorpheus;
    o.scale = bench::benchScale();
    o.sys.queueEntries = 2;  // depth 1: serial schedule exposed
    if (mix.shrinkFlash) {
        o.sys.ssd.flash.channels = 2;
        o.sys.ssd.flash.diesPerChannel = 1;
    }
    o.sys.ssd.pipeline.enabled = pipeline_on;
    return o;
}

}  // namespace

int
main()
{
    bench::banner(
        "Ablation: streaming chunk pipeline (readahead + "
        "double-buffered parse + coalesced flush DMA)",
        "ms_stream overlap: the firmware parses while flash pages are "
        "still arriving (paper SVI-A)");

    const std::vector<Mix> mixes = {
        // Integer graph parse (~0.55 cyc/B) against a 2-channel,
        // 1-die array: flash dominates, readahead hides it.
        {"flash-bound", "bfs", 0.20, true},
        // Soft-float parse (12 cyc/float op) against the full array:
        // the core dominates, sub-buffer overlap hides fetch + flush.
        {"parse-bound", "nn", 0.10, false},
    };

    int failures = 0;
    std::vector<bench::BenchMetric> extra;
    double headline = 0.0;

    std::printf("%-12s %-6s %14s %14s %12s %8s\n", "mix", "app",
                "serial(ms)", "pipeline(ms)", "improvement", "gate");
    for (const Mix &mix : mixes) {
        const wk::AppSpec &app = wk::findApp(mix.app);

        const wk::RunMetrics off =
            wk::runWorkload(app, mixOptions(mix, false));
        const wk::RunMetrics off2 =
            wk::runWorkload(app, mixOptions(mix, false));
        const wk::RunMetrics on =
            wk::runWorkload(app, mixOptions(mix, true));

        if (!off.validated || !on.validated) {
            std::fprintf(stderr, "FAIL(%s): validation failed\n",
                         mix.name);
            ++failures;
        }
        if (off.deserTime != off2.deserTime ||
            off.totalTime != off2.totalTime ||
            off.kernelChecksum != off2.kernelChecksum) {
            std::fprintf(stderr,
                         "FAIL(%s): pipeline-off run is not "
                         "bit-deterministic\n",
                         mix.name);
            ++failures;
        }
        if (on.kernelChecksum != off.kernelChecksum) {
            std::fprintf(stderr,
                         "FAIL(%s): pipeline changed the functional "
                         "result\n",
                         mix.name);
            ++failures;
        }

        const double serial_ms =
            sim::ticksToSeconds(off.deserTime) * 1e3;
        const double pipe_ms = sim::ticksToSeconds(on.deserTime) * 1e3;
        const double improvement =
            serial_ms > 0.0 ? (serial_ms - pipe_ms) / serial_ms : 0.0;
        const bool ok = improvement >= mix.minImprovement;
        if (!ok) {
            std::fprintf(stderr,
                         "FAIL(%s): improvement %.1f%% below the "
                         "%.0f%% gate\n",
                         mix.name, improvement * 1e2,
                         mix.minImprovement * 1e2);
            ++failures;
        }
        std::printf("%-12s %-6s %14.3f %14.3f %11.1f%% %8s\n",
                    mix.name, mix.app, serial_ms, pipe_ms,
                    improvement * 1e2, ok ? "pass" : "FAIL");

        extra.push_back({std::string(mix.name) + ".serialMs",
                         serial_ms, "ms"});
        extra.push_back({std::string(mix.name) + ".pipelineMs",
                         pipe_ms, "ms"});
        extra.push_back({std::string(mix.name) + ".improvement",
                         improvement, "fraction"});
        headline += improvement / static_cast<double>(mixes.size());
    }

    bench::BenchConfig cfg;
    cfg.pipeline = true;
    bench::writeBenchJson("ablation_pipeline", "meanImprovement",
                          headline, "fraction",
                          /*higher_is_better=*/true, extra, cfg);
    if (failures) {
        std::fprintf(stderr, "\n%d gate(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall pipeline gates passed\n");
    return 0;
}
