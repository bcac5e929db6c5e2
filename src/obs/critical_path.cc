#include "obs/critical_path.hh"

#include <algorithm>
#include <cstring>
#include <string>

namespace morpheus::obs {

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::kHost:
        return "host";
      case Stage::kQueue:
        return "queue";
      case Stage::kAdmission:
        return "admission";
      case Stage::kDispatch:
        return "dispatch";
      case Stage::kFetch:
        return "fetch";
      case Stage::kParse:
        return "parse";
      case Stage::kFlush:
        return "flush";
      case Stage::kCacheHit:
        return "cache_hit";
      case Stage::kRetry:
        return "retry";
      case Stage::kHostExec:
        return "host_exec";
    }
    return "?";
}

namespace {

bool
isOpcodeUmbrella(const std::string &name)
{
    return name == "MINIT" || name == "MREAD" || name == "MWRITE" ||
           name == "MDEINIT";
}

}  // namespace

bool
classifySpan(const Span &span, Stage *stage, int *priority)
{
    // Instants mark events, not time; they never own microseconds.
    if (span.instant)
        return false;

    const std::string &n = span.name;

    // Deep pipeline work outranks the umbrellas it nests under, so a
    // "parse" slice inside an MREAD exec umbrella claims its ticks.
    // "scan" is the columnar applet's predicate/projection evaluation —
    // same core occupancy, distinct name so scan vs. emit (flush_dma)
    // attribution is visible in stage breakdowns.
    if (n == "parse" || n == "scan" || n == "serialize" ||
        n == "install" || n == "crash") {
        *stage = Stage::kParse;
        *priority = 90;
        return true;
    }
    if (n == "cache_hit") {
        *stage = Stage::kCacheHit;
        *priority = 85;
        return true;
    }
    if (n == "flush_dma" || n == "dma" || n == "p2p_dma") {
        *stage = Stage::kFlush;
        *priority = 80;
        return true;
    }
    if (n == "fetch" || n == "fetch_readahead" || n == "readahead") {
        *stage = Stage::kFetch;
        *priority = 70;
        return true;
    }
    if (n == "dispatch") {
        *stage = Stage::kDispatch;
        *priority = 60;
        return true;
    }
    if (n == "admission_wait") {
        *stage = Stage::kAdmission;
        *priority = 50;
        return true;
    }
    if (n == "retry_wait") {
        *stage = Stage::kRetry;
        *priority = 45;
        return true;
    }
    if (n == "host_exec") {
        // The host-execution engine's read()+convert window (breaker
        // fallback, overload spill, or the host half of a split). Sits
        // below the device pipeline stages so a split request's
        // concurrent device work keeps its attribution, and the host
        // leg owns only the time nothing device-side covers.
        *stage = Stage::kHostExec;
        *priority = 40;
        return true;
    }
    if (isOpcodeUmbrella(n)) {
        // Controller-side exec umbrella: everything inside it not
        // claimed by a deeper span is dispatch/bookkeeping overhead.
        // Host-side queue umbrella: the residual is SQ residency.
        // Priorities sit below admission_wait so scheduler wait time
        // is never misattributed as dispatch.
        if (span.track.find("nvme.exec") != std::string::npos) {
            *stage = Stage::kDispatch;
            *priority = 30;
            return true;
        }
        if (span.track.find("host.queue[") != std::string::npos) {
            *stage = Stage::kQueue;
            *priority = 20;
            return true;
        }
    }
    return false;
}

Attribution
attributeSpans(const std::vector<Span> &spans, sim::Tick lo, sim::Tick hi)
{
    Attribution out;
    if (hi <= lo)
        return out;

    struct Clipped
    {
        sim::Tick begin;
        sim::Tick end;
        Stage stage;
        int priority;
    };
    std::vector<Clipped> active;
    active.reserve(spans.size());

    // Elementary-segment sweep: clip the classified spans to the
    // window, then cut the window at every distinct span boundary so
    // each segment has a constant covering set. The highest-priority
    // cover owns the segment; uncovered segments are residual host
    // time. Segments partition [lo, hi), so the stage ticks sum to
    // hi - lo by construction — no gaps, no double counting.
    std::vector<sim::Tick> cuts;
    cuts.push_back(lo);
    cuts.push_back(hi);
    for (const Span &s : spans) {
        Stage stage;
        int priority;
        if (!classifySpan(s, &stage, &priority))
            continue;
        const sim::Tick b = std::max(s.begin, lo);
        const sim::Tick e = std::min(s.end, hi);
        if (e <= b)
            continue;
        active.push_back({b, e, stage, priority});
        cuts.push_back(b);
        cuts.push_back(e);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const sim::Tick seg_lo = cuts[i];
        const sim::Tick seg_hi = cuts[i + 1];
        Stage winner = Stage::kHost;
        int best = -1;
        for (const Clipped &c : active) {
            if (c.begin <= seg_lo && c.end >= seg_hi &&
                c.priority > best) {
                best = c.priority;
                winner = c.stage;
            }
        }
        out[winner] += seg_hi - seg_lo;
    }
    return out;
}

}  // namespace morpheus::obs
