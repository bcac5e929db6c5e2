/**
 * @file
 * Always-on tail-based flight recorder.
 *
 * Full tracing of every request is too expensive to leave on, but the
 * requests worth tracing — the slowest, the failed, the circuit-broken
 * — are only identifiable after the fact. The FlightRecorder squares
 * that: it is a TraceSink holding a bounded span ring buffer (recent
 * history only, old spans overwritten), plus a tail-sampling policy
 * that promotes full traces to a retained set when a request turns out
 * to be slowest-K or failed. Retained traces export as Chrome/Perfetto
 * JSON via writeChromeJson() (the --slow-traces flag).
 *
 * The recorder can tee every span to a downstream sink (e.g. an
 * InMemoryTraceSink holding the full trace when --trace is also
 * given), so attaching it never hides spans from other consumers.
 *
 * Like all obs sinks it only observes: record() never touches the
 * simulator, so sim results stay bit-identical with it attached.
 */

#ifndef MORPHEUS_OBS_FLIGHT_RECORDER_HH
#define MORPHEUS_OBS_FLIGHT_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "obs/trace.hh"
#include "sim/types.hh"

namespace morpheus::obs {

struct FlightRecorderConfig
{
    /** Span ring capacity; bounds recorder memory regardless of run
     *  length. Old spans are overwritten FIFO. */
    std::size_t ringCapacity = std::size_t{1} << 15;
    /** Retain full traces for the K slowest completed requests. */
    std::size_t slowestK = 8;
    /** Retain at most this many failed/broken request traces. */
    std::size_t maxFailed = 32;
    /** Optional tee: every recorded span is forwarded here first. */
    TraceSink *downstream = nullptr;
};

/** Identity and outcome of one request offered for retention. */
struct RequestMeta
{
    std::uint64_t requestId = 0;
    std::uint32_t tenant = 0;
    sim::Tick begin = 0;
    sim::Tick end = 0;
    /** Rejected / lost / circuit-broken — retained unconditionally
     *  (up to maxFailed). */
    bool failed = false;

    sim::Tick latency() const { return end - begin; }
};

/** One retained request: its meta plus the full span set. */
struct RetainedTrace
{
    RequestMeta meta;
    std::vector<Span> spans;
};

class FlightRecorder : public TraceSink
{
  public:
    explicit FlightRecorder(const FlightRecorderConfig &cfg = {});

    /** Tee to downstream, then store in the ring (overwriting the
     *  oldest span once full). */
    void record(const Span &span) override;

    /**
     * All ring-resident spans attributed to any of @p ids, in a
     * deterministic order (sorted by begin/end/track/name). Spans
     * already overwritten by ring wrap are gone — callers collect
     * promptly at request completion.
     */
    std::vector<Span> collect(const std::vector<TraceId> &ids) const;

    /**
     * Offer a finished request for retention. Failed requests are kept
     * unconditionally up to maxFailed (first-come, deterministic);
     * completed requests compete for the slowest-K set by latency.
     * @p spans is moved into the retained set when kept.
     */
    void offer(const RequestMeta &meta, std::vector<Span> spans);

    /** Retained traces: failed first (offer order), then slowest-K
     *  sorted by descending latency (requestId breaks ties). */
    std::vector<RetainedTrace> retained() const;

    /**
     * Export every retained trace as one Chrome JSON document. Each
     * request gets a synthetic navigation span ("req <id> tenant<t>")
     * on a "recorder.requests" track above its merged spans, so the
     * slowest-K stand out when the file opens in Perfetto.
     */
    void writeChromeJson(std::ostream &os) const;

    std::size_t ringSize() const { return _ring.size(); }
    std::uint64_t spansRecorded() const { return _head; }
    std::uint64_t spansOverwritten() const
    {
        return _head > _cfg.ringCapacity ? _head - _cfg.ringCapacity : 0;
    }

  private:
    FlightRecorderConfig _cfg;
    /** Ring storage: grows to ringCapacity then wraps via _head. */
    std::vector<Span> _ring;
    /** Monotone count of spans ever recorded; slot = _head % cap. */
    std::uint64_t _head = 0;
    /** trace id -> occupied ring slots (only ids != 0 are indexed),
     *  so collect() is O(request spans), not O(ring). */
    std::unordered_map<TraceId, std::vector<std::uint32_t>> _index;

    std::vector<RetainedTrace> _failed;
    std::vector<RetainedTrace> _slowest;

    void unindexSlot(std::uint32_t slot);
};

}  // namespace morpheus::obs

#endif  // MORPHEUS_OBS_FLIGHT_RECORDER_HH
