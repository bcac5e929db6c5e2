/**
 * @file
 * Per-request critical-path attribution.
 *
 * Walks the spans recorded for one request and attributes every
 * end-to-end microsecond to exactly one pipeline stage (queue wait,
 * admission, dispatch, flash fetch, parse, flush DMA, cache hit,
 * retry backoff, or residual host time). The decomposition mirrors
 * Morpheus's Fig. 2 methodology — the object-creation breakdown that
 * motivates offloading — but per request, so a serving report can say
 * "this tenant's p99 is 62% parse, 21% admission wait".
 *
 * Attribution is a pure function of already-recorded spans: it never
 * touches the simulator, so enabling it cannot perturb timing.
 */

#ifndef MORPHEUS_OBS_CRITICAL_PATH_HH
#define MORPHEUS_OBS_CRITICAL_PATH_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.hh"
#include "sim/types.hh"

namespace morpheus::obs {

/**
 * Pipeline stages a request's wall-clock time decomposes into.
 * Ordered roughly by position in the pipeline; kHost is the residual
 * (submission software, completion plumbing, inter-command gaps).
 */
enum class Stage : std::uint8_t {
    kHost = 0,   ///< Residual host-side time not covered by any span.
    kQueue,      ///< SQ residency before the controller dispatches.
    kAdmission,  ///< Scheduler admission wait.
    kDispatch,   ///< Controller frontend decode + exec bookkeeping.
    kFetch,      ///< Flash reads into controller DRAM (incl. readahead).
    kParse,      ///< Embedded-core app execution (parse/serialize/...).
    kFlush,      ///< DMA flush / data movement to the host.
    kCacheHit,   ///< Deserialized-object cache hit service.
    kRetry,      ///< Host-side backoff between bounce and re-submit.
    kHostExec,   ///< Host-path execution (fallback/overload/split).
};

/** Number of Stage values (array extent for per-stage aggregates). */
constexpr std::size_t kNumStages = 10;

/** Short stable name for a stage ("parse", "admission", ...). */
const char *stageName(Stage s);

/**
 * Per-request stage decomposition: ticks attributed to each stage.
 * attributeSpans() guarantees ticks sum exactly to the analyzed
 * window, so percentages are well defined.
 */
struct Attribution
{
    std::array<sim::Tick, kNumStages> ticks{};

    sim::Tick
    total() const
    {
        sim::Tick sum = 0;
        for (const sim::Tick t : ticks)
            sum += t;
        return sum;
    }

    sim::Tick &operator[](Stage s) { return ticks[static_cast<std::size_t>(s)]; }
    sim::Tick operator[](Stage s) const
    {
        return ticks[static_cast<std::size_t>(s)];
    }

    Attribution &
    operator+=(const Attribution &o)
    {
        for (std::size_t i = 0; i < kNumStages; ++i)
            ticks[i] += o.ticks[i];
        return *this;
    }
};

/**
 * Classify one span into the stage it evidences, with a priority for
 * breaking concurrent-coverage ties (higher wins; deeper pipeline
 * stages outrank their umbrellas, so "parse" beats the MREAD exec
 * umbrella it nests under). Returns false for spans that carry no
 * stage evidence (instants, unknown labels).
 */
bool classifySpan(const Span &span, Stage *stage, int *priority);

/**
 * Attribute every tick of [lo, hi) to exactly one stage. Interval
 * spans are clipped to the window; at each instant the highest-
 * priority covering stage owns the time, and uncovered gaps fall to
 * Stage::kHost. By construction the result's total() == hi - lo.
 */
Attribution attributeSpans(const std::vector<Span> &spans, sim::Tick lo,
                           sim::Tick hi);

}  // namespace morpheus::obs

#endif  // MORPHEUS_OBS_CRITICAL_PATH_HH
