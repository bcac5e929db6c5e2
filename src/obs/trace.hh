/**
 * @file
 * Cross-layer command tracing.
 *
 * Every NVMe command is stamped with a trace id at submission
 * (nvme::Command::traceId, visible to every layer that sees the
 * command).
 * Instrumented components record Spans — begin/end ticks on a named
 * track, attributed to a trace id / tenant / instance — into a
 * process-global TraceSink.
 *
 * Tracing is zero-cost when disabled: call sites record through
 * traceSpan()/traceInstant(), whose only disabled-path work is the
 * `obs::traceSink()` null check; track names travel as unjoined parts
 * (Track), so no strings are built and no containers touched unless a
 * sink is attached. Benches verify this stays true (the simulated
 * timing must be bit-identical with and without a sink — tracing
 * observes virtual time, it never perturbs it).
 *
 * InMemoryTraceSink buffers the spans: writeChromeTrace() serializes
 * them to the Chrome trace-event JSON format (loadable in Perfetto /
 * chrome://tracing; one track per core/queue/link, sim ticks converted
 * to microseconds), and its queries let tests assert facts ("this
 * MREAD was never preempted", "that media error pinned the stream").
 */

#ifndef MORPHEUS_OBS_TRACE_HH
#define MORPHEUS_OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace morpheus::obs {

/** Command trace id (0 = unattributed). */
using TraceId = std::uint32_t;

/** Span field sentinel: no core attribution. */
constexpr std::uint32_t kNoCore = 0xFFFFFFFFu;

/** One recorded interval (or instant) on a named track. */
struct Span
{
    /** Track (Perfetto thread) the span renders on, e.g. "ssd.core[0]",
     *  "host.queue[1]", "pcie.ssd->host". */
    std::string track;
    /** Span label, e.g. "parse", "admission_wait", "flush_dma". */
    std::string name;
    /** Coarse layer tag: "nvme", "sched", "ssd", "pcie", "host". */
    const char *category = "";
    sim::Tick begin = 0;
    sim::Tick end = 0;
    /** Point event (rendered as an instant marker, not a slice). */
    bool instant = false;

    TraceId trace = 0;
    std::uint32_t tenant = 0;
    std::uint32_t instance = 0;
    std::uint32_t core = kNoCore;
    std::uint64_t bytes = 0;
    /** NVMe status word when relevant (0 = success/not applicable). */
    std::uint32_t status = 0;

    sim::Tick duration() const { return end - begin; }
};

/** Common span attribution passed through instrumented components. */
struct SpanCtx
{
    TraceId trace = 0;
    std::uint32_t tenant = 0;
    std::uint32_t instance = 0;
    std::uint64_t bytes = 0;
    std::uint32_t core = kNoCore;
    std::uint32_t status = 0;
};

/**
 * A span's track name, kept as parts and concatenated only when a
 * span is actually recorded: up to four string parts, then "[index]"
 * when an index is given ("dev1." + "host.queue" + "[3]").
 */
class Track
{
  public:
    Track(std::string_view a, std::string_view b = {},
          std::string_view c = {}, std::string_view d = {})
        : _parts{a, b, c, d}
    {}
    Track(const char *name) : Track(std::string_view(name)) {}
    Track(const std::string &name) : Track(std::string_view(name)) {}
    Track(std::string_view prefix, std::string_view base,
          std::uint32_t index)
        : _parts{prefix, base, {}, {}}, _index(index), _indexed(true)
    {}

    std::string str() const;

  private:
    std::string_view _parts[4];
    std::uint32_t _index = 0;
    bool _indexed = false;
};

/** Receiver of recorded spans. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const Span &span) = 0;
};

namespace detail {
/** The process-global sink pointer; null = tracing disabled. */
extern TraceSink *g_sink;
}  // namespace detail

/** The attached sink, or nullptr. The hot-path guard. */
inline TraceSink *
traceSink()
{
    return detail::g_sink;
}

/** Build one span from its parts and hand it to @p sink. */
void recordSpan(TraceSink &sink, const Track &track, std::string_view name,
                const char *category, sim::Tick begin, sim::Tick end,
                const SpanCtx &ctx = {}, bool instant = false);

/**
 * Record [@p begin, @p end) on @p track into the attached sink. With
 * no sink this is one null check: no string is built.
 */
inline void
traceSpan(const Track &track, std::string_view name, const char *category,
          sim::Tick begin, sim::Tick end, const SpanCtx &ctx = {})
{
    if (auto *sink = traceSink())
        recordSpan(*sink, track, name, category, begin, end, ctx);
}

/** traceSpan() for a point event at @p at. */
inline void
traceInstant(const Track &track, std::string_view name,
             const char *category, sim::Tick at, const SpanCtx &ctx = {})
{
    if (auto *sink = traceSink())
        recordSpan(*sink, track, name, category, at, at, ctx, true);
}

/** Attach (or with nullptr, detach) the process-global sink. */
void setTraceSink(TraceSink *sink);

/** RAII attach/detach, for benches and tests. */
class ScopedTraceSink
{
  public:
    explicit ScopedTraceSink(TraceSink &sink) : _previous(traceSink())
    {
        setTraceSink(&sink);
    }
    ~ScopedTraceSink() { setTraceSink(_previous); }
    ScopedTraceSink(const ScopedTraceSink &) = delete;
    ScopedTraceSink &operator=(const ScopedTraceSink &) = delete;

  private:
    TraceSink *_previous;
};

/** Buffering sink: write its spans() with writeChromeTrace(), or
 *  query them in tests. */
class InMemoryTraceSink : public TraceSink
{
  public:
    void record(const Span &span) override { _spans.push_back(span); }

    const std::vector<Span> &spans() const { return _spans; }
    std::size_t size() const { return _spans.size(); }
    void clear() { _spans.clear(); }

    /** All spans with the given label. */
    std::vector<Span> named(const std::string &name) const;

    /** All spans on the given track. */
    std::vector<Span> onTrack(const std::string &track) const;

    /** All spans attributed to the given trace id. */
    std::vector<Span> forTrace(TraceId id) const;

    /** Number of spans with the given label. */
    std::size_t count(const std::string &name) const;

    /**
     * True when some span on @p track, NOT attributed to @p id,
     * overlaps [begin, end) — i.e. the traced work shared its resource
     * with someone else ("was it preempted?").
     */
    bool overlapsOther(const std::string &track, sim::Tick begin,
                       sim::Tick end, TraceId id) const;

  private:
    std::vector<Span> _spans;
};

/**
 * Serialize @p spans as one Chrome trace-event JSON document: "M"
 * thread_name metadata labels one track per first-seen Span::track,
 * "X" complete events carry ts/dur in microseconds (sim ticks are
 * picoseconds, rendered as exact decimal microseconds — never rounded
 * or truncated), and instants become "i" events. An empty span list
 * produces the valid empty document {"traceEvents":[]}. Loadable in
 * Perfetto and chrome://tracing. Writes an InMemoryTraceSink's full
 * trace and the FlightRecorder's slow-trace export.
 */
void writeChromeTrace(std::ostream &os, const std::vector<Span> &spans);

}  // namespace morpheus::obs

#endif  // MORPHEUS_OBS_TRACE_HH
