#include "obs/trace.hh"

#include <cstdio>
#include <map>

namespace morpheus::obs {

namespace detail {
TraceSink *g_sink = nullptr;
}  // namespace detail

void
setTraceSink(TraceSink *sink)
{
    detail::g_sink = sink;
}

std::string
Track::str() const
{
    std::string out;
    for (const std::string_view part : _parts)
        out += part;
    if (_indexed) {
        out += '[';
        out += std::to_string(_index);
        out += ']';
    }
    return out;
}

void
recordSpan(TraceSink &sink, const Track &track, std::string_view name,
           const char *category, sim::Tick begin, sim::Tick end,
           const SpanCtx &ctx, bool instant)
{
    Span s;
    s.track = track.str();
    s.name = name;
    s.category = category;
    s.begin = begin;
    s.end = end;
    s.instant = instant;
    s.trace = ctx.trace;
    s.tenant = ctx.tenant;
    s.instance = ctx.instance;
    s.core = ctx.core;
    s.bytes = ctx.bytes;
    s.status = ctx.status;
    sink.record(s);
}

std::vector<Span>
InMemoryTraceSink::named(const std::string &name) const
{
    std::vector<Span> out;
    for (const Span &s : _spans) {
        if (s.name == name)
            out.push_back(s);
    }
    return out;
}

std::vector<Span>
InMemoryTraceSink::onTrack(const std::string &track) const
{
    std::vector<Span> out;
    for (const Span &s : _spans) {
        if (s.track == track)
            out.push_back(s);
    }
    return out;
}

std::vector<Span>
InMemoryTraceSink::forTrace(TraceId id) const
{
    std::vector<Span> out;
    for (const Span &s : _spans) {
        if (s.trace == id)
            out.push_back(s);
    }
    return out;
}

std::size_t
InMemoryTraceSink::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &s : _spans) {
        if (s.name == name)
            ++n;
    }
    return n;
}

bool
InMemoryTraceSink::overlapsOther(const std::string &track, sim::Tick begin,
                                 sim::Tick end, TraceId id) const
{
    for (const Span &s : _spans) {
        if (s.track != track || s.trace == id || s.instant)
            continue;
        if (s.begin < end && begin < s.end)
            return true;
    }
    return false;
}

namespace {

/** Minimal JSON string escape (our names are plain ASCII). */
std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

/**
 * Render sim ticks (picoseconds) as exact decimal trace-event
 * microseconds. One tick is 10^-6 µs, so "<t/1e6>.<t%1e6:06>" is the
 * exact value — unlike %.6f on a double, which rounds once the whole
 * part grows past 2^53 femto-precision and used to drop sub-µs digits.
 */
std::string
ticksToTraceUs(sim::Tick t)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(t / 1'000'000),
                  static_cast<unsigned long long>(t % 1'000'000));
    return buf;
}

void
writeArgs(std::ostream &os, const Span &s)
{
    os << "\"args\":{";
    bool first = true;
    auto arg = [&](const char *key, std::uint64_t v) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << key << "\":" << v;
    };
    if (s.trace)
        arg("trace", s.trace);
    if (s.tenant)
        arg("tenant", s.tenant);
    if (s.instance)
        arg("instance", s.instance);
    if (s.core != kNoCore)
        arg("core", s.core);
    if (s.bytes)
        arg("bytes", s.bytes);
    if (s.status)
        arg("status", s.status);
    os << "}";
}

}  // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<Span> &spans)
{
    // An empty trace is still a valid, loadable document.
    if (spans.empty()) {
        os << "{\"traceEvents\":[]}\n";
        return;
    }

    // Tracks become "threads" of one process; tids are assigned in
    // first-seen order so the output is deterministic in record order.
    std::map<std::string, int> tids;
    std::vector<const std::string *> track_order;
    for (const Span &s : spans) {
        if (tids.emplace(s.track, static_cast<int>(tids.size()) + 1)
                .second) {
            track_order.push_back(&s.track);
        }
    }

    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"morpheus-sim\"}}";
    for (const std::string *track : track_order) {
        sep();
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tids[*track]
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << jsonEscape(*track) << "\"}}";
    }

    for (const Span &s : spans) {
        sep();
        const int tid = tids[s.track];
        os << "{\"ph\":\"" << (s.instant ? "i" : "X") << "\",\"pid\":1,"
           << "\"tid\":" << tid << ",\"name\":\"" << jsonEscape(s.name)
           << "\",\"cat\":\""
           << (s.category && *s.category ? s.category : "sim")
           << "\",\"ts\":" << ticksToTraceUs(s.begin);
        if (s.instant) {
            os << ",\"s\":\"t\"";
        } else {
            os << ",\"dur\":" << ticksToTraceUs(s.duration());
        }
        os << ",";
        writeArgs(os, s);
        os << "}";
    }
    os << "\n]}\n";
}

void
ChromeTraceSink::write(std::ostream &os) const
{
    writeChromeTrace(os, _spans);
}

}  // namespace morpheus::obs
