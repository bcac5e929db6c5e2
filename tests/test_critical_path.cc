/**
 * @file
 * Unit tests for the observability primitives behind the serving
 * report's stage breakdown: span classification, the exact-sum
 * attribution sweep, the tail-based flight recorder, and the
 * time-series timeline.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/critical_path.hh"
#include "obs/flight_recorder.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"

namespace ob = morpheus::obs;
using morpheus::sim::Tick;

namespace {

ob::Span
span(const char *track, const char *name, Tick begin, Tick end,
     ob::TraceId trace = 0)
{
    ob::Span s;
    s.track = track;
    s.name = name;
    s.begin = begin;
    s.end = end;
    s.trace = trace;
    return s;
}

}  // namespace

// -------------------------------------------------- span classification

TEST(ClassifySpan, MapsPipelineNamesToStagesWithPriorities)
{
    struct Case
    {
        const char *track;
        const char *name;
        ob::Stage stage;
    };
    const Case cases[] = {
        {"ssd.core[2]", "parse", ob::Stage::kParse},
        {"ssd.core[0]", "install", ob::Stage::kParse},
        {"ssd.core[1]", "crash", ob::Stage::kParse},
        {"ssd.dma", "cache_hit", ob::Stage::kCacheHit},
        {"ssd.dma", "flush_dma", ob::Stage::kFlush},
        {"ssd.dram", "fetch", ob::Stage::kFetch},
        {"ssd.dram", "fetch_readahead", ob::Stage::kFetch},
        {"nvme.frontend", "dispatch", ob::Stage::kDispatch},
        {"sched.tenant[1]", "admission_wait", ob::Stage::kAdmission},
        {"host.serving", "retry_wait", ob::Stage::kRetry},
    };
    for (const Case &c : cases) {
        ob::Stage stage;
        int priority = 0;
        ASSERT_TRUE(
            ob::classifySpan(span(c.track, c.name, 0, 1), &stage,
                             &priority))
            << c.name;
        EXPECT_EQ(stage, c.stage) << c.name;
        EXPECT_GT(priority, 0) << c.name;
    }
}

TEST(ClassifySpan, OpcodeUmbrellasClassifyByTrack)
{
    ob::Stage stage;
    int prio_exec = 0, prio_queue = 0, prio_parse = 0, prio_adm = 0;

    ASSERT_TRUE(ob::classifySpan(span("nvme.exec[1]", "MREAD", 0, 1),
                                 &stage, &prio_exec));
    EXPECT_EQ(stage, ob::Stage::kDispatch);
    ASSERT_TRUE(ob::classifySpan(span("host.queue[1]", "MREAD", 0, 1),
                                 &stage, &prio_queue));
    EXPECT_EQ(stage, ob::Stage::kQueue);
    // Fleet track prefixes classify the same way.
    ASSERT_TRUE(ob::classifySpan(
        span("dev2.host.queue[1]", "MINIT", 0, 1), &stage, &prio_queue));
    EXPECT_EQ(stage, ob::Stage::kQueue);

    // Priority ladder: parse > admission > exec umbrella > queue
    // umbrella — so nested spans claim time from their umbrellas and
    // scheduler wait is never misread as controller execution.
    ASSERT_TRUE(ob::classifySpan(span("ssd.core[0]", "parse", 0, 1),
                                 &stage, &prio_parse));
    ASSERT_TRUE(ob::classifySpan(
        span("sched.tenant[0]", "admission_wait", 0, 1), &stage,
        &prio_adm));
    EXPECT_GT(prio_parse, prio_adm);
    EXPECT_GT(prio_adm, prio_exec);
    EXPECT_GT(prio_exec, prio_queue);
}

TEST(ClassifySpan, IgnoresInstantsAndUnknownNames)
{
    ob::Stage stage;
    int priority;
    ob::Span i = span("sched.tenant[0]", "admission_reject", 5, 5);
    i.instant = true;
    EXPECT_FALSE(ob::classifySpan(i, &stage, &priority));
    EXPECT_FALSE(ob::classifySpan(
        span("ssd.core[0]", "mystery_work", 0, 1), &stage, &priority));
}

// ------------------------------------------------------- attribution

TEST(AttributeSpans, EmptyWindowIsAllHostResidual)
{
    const ob::Attribution attr = ob::attributeSpans({}, 100, 600);
    EXPECT_EQ(attr.total(), 500u);
    EXPECT_EQ(attr[ob::Stage::kHost], 500u);
}

TEST(AttributeSpans, ClipsSpansToTheWindow)
{
    // A parse span half outside the window only claims the inside part.
    const std::vector<ob::Span> spans = {
        span("ssd.core[0]", "parse", 0, 150),
        span("ssd.core[0]", "parse", 550, 900),
    };
    const ob::Attribution attr = ob::attributeSpans(spans, 100, 600);
    EXPECT_EQ(attr.total(), 500u);
    EXPECT_EQ(attr[ob::Stage::kParse], 100u);  // [100,150) + [550,600)
    EXPECT_EQ(attr[ob::Stage::kHost], 400u);
}

TEST(AttributeSpans, HighestPriorityCoverOwnsEachSegment)
{
    // queue umbrella [0,1000), exec umbrella [100,900),
    // parse [200,400), flush [400,500): every tick goes to the deepest
    // covering stage, and the total is exact.
    const std::vector<ob::Span> spans = {
        span("host.queue[1]", "MREAD", 0, 1000),
        span("nvme.exec[1]", "MREAD", 100, 900),
        span("ssd.core[3]", "parse", 200, 400),
        span("ssd.dma", "flush_dma", 400, 500),
    };
    const ob::Attribution attr = ob::attributeSpans(spans, 0, 1000);
    EXPECT_EQ(attr.total(), 1000u);
    EXPECT_EQ(attr[ob::Stage::kParse], 200u);
    EXPECT_EQ(attr[ob::Stage::kFlush], 100u);
    EXPECT_EQ(attr[ob::Stage::kDispatch], 500u);  // exec minus nested
    EXPECT_EQ(attr[ob::Stage::kQueue], 200u);     // [0,100) + [900,1000)
    EXPECT_EQ(attr[ob::Stage::kHost], 0u);
}

TEST(AttributeSpans, OverlappingSameStageSpansCountOnce)
{
    // Two overlapping parse spans (e.g. two cores of one fan-out):
    // wall-clock attribution counts the union, not the sum.
    const std::vector<ob::Span> spans = {
        span("ssd.core[0]", "parse", 100, 400),
        span("ssd.core[1]", "parse", 300, 600),
    };
    const ob::Attribution attr = ob::attributeSpans(spans, 0, 1000);
    EXPECT_EQ(attr.total(), 1000u);
    EXPECT_EQ(attr[ob::Stage::kParse], 500u);  // union [100,600)
    EXPECT_EQ(attr[ob::Stage::kHost], 500u);
}

TEST(AttributeSpans, InstantsClaimNoTime)
{
    std::vector<ob::Span> spans = {
        span("sched.tenant[0]", "admission_reject", 50, 50)};
    spans[0].instant = true;
    const ob::Attribution attr = ob::attributeSpans(spans, 0, 100);
    EXPECT_EQ(attr[ob::Stage::kHost], 100u);
}

TEST(ClassifySpan, HostExecSitsBetweenRetryAndExecUmbrella)
{
    ob::Stage stage;
    int prio_host = 0, prio_exec = 0, prio_retry = 0;
    ASSERT_TRUE(ob::classifySpan(span("host.exec", "host_exec", 0, 1),
                                 &stage, &prio_host));
    EXPECT_EQ(stage, ob::Stage::kHostExec);
    ASSERT_TRUE(ob::classifySpan(span("nvme.exec[0]", "MREAD", 0, 1),
                                 &stage, &prio_exec));
    ASSERT_TRUE(ob::classifySpan(
        span("host.serving", "retry_wait", 0, 1), &stage,
        &prio_retry));
    // Below retry_wait (a backoff that overlaps the rescue start is
    // still backoff) and above the exec umbrella (a split's host half
    // must not swallow the device prefix's attribution).
    EXPECT_GT(prio_retry, prio_host);
    EXPECT_GT(prio_host, prio_exec);
}

TEST(AttributeSpans, BreakerRescuedRequestSumsExactlyToItsWindow)
{
    // A breaker-rescued request's life: a device attempt (exec
    // umbrella), the backoff wait, then the host-path rescue — with
    // uncovered gaps at both ends and an overlap between the wait and
    // the rescue.
    const std::vector<ob::Span> spans{
        span("nvme.exec[0]", "MREAD", 100, 300),
        span("host.serving", "retry_wait", 300, 500),
        span("host.exec", "host_exec", 450, 900),
    };
    const ob::Attribution a = ob::attributeSpans(spans, 0, 1000);
    EXPECT_EQ(a.total(), 1000u);  // exact: no double count, no gap
    EXPECT_EQ(a[ob::Stage::kDispatch], 200u);
    EXPECT_EQ(a[ob::Stage::kRetry], 200u);  // owns the 450-500 overlap
    EXPECT_EQ(a[ob::Stage::kHostExec], 400u);
    EXPECT_EQ(a[ob::Stage::kHost], 200u);   // 0-100 and 900-1000
}

// --------------------------------------------------- flight recorder

namespace {

ob::RequestMeta
meta(std::uint64_t id, Tick begin, Tick end, bool failed = false)
{
    ob::RequestMeta m;
    m.requestId = id;
    m.tenant = 1;
    m.begin = begin;
    m.end = end;
    m.failed = failed;
    return m;
}

}  // namespace

TEST(FlightRecorder, RingWrapsAndUnindexesOverwrittenSpans)
{
    ob::FlightRecorderConfig cfg;
    cfg.ringCapacity = 4;
    ob::FlightRecorder rec(cfg);
    for (Tick t = 0; t < 6; ++t)
        rec.record(span("ssd.core[0]", "parse", t * 10, t * 10 + 5,
                        static_cast<ob::TraceId>(t + 1)));

    EXPECT_EQ(rec.ringSize(), 4u);
    EXPECT_EQ(rec.spansRecorded(), 6u);
    EXPECT_EQ(rec.spansOverwritten(), 2u);

    // Traces 1 and 2 were overwritten; 3..6 are collectable.
    EXPECT_TRUE(rec.collect({1, 2}).empty());
    const auto got = rec.collect({3, 4, 5, 6});
    ASSERT_EQ(got.size(), 4u);
    // Deterministic order: sorted by begin.
    for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_LT(got[i - 1].begin, got[i].begin);
}

TEST(FlightRecorder, CollectGathersOnlyRequestedTraces)
{
    ob::FlightRecorder rec;
    rec.record(span("ssd.core[0]", "parse", 0, 10, 7));
    rec.record(span("ssd.core[1]", "parse", 5, 15, 8));
    rec.record(span("ssd.dma", "flush_dma", 10, 20, 7));
    ob::Span untraced = span("ssd.dram", "fetch", 0, 3, 0);
    rec.record(untraced);  // trace 0 is never indexed

    const auto got = rec.collect({7});
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].name, "parse");
    EXPECT_EQ(got[1].name, "flush_dma");
    EXPECT_TRUE(rec.collect({0}).empty());
}

TEST(FlightRecorder, SlowestKEvictsTheFastestRetained)
{
    ob::FlightRecorderConfig cfg;
    cfg.slowestK = 2;
    ob::FlightRecorder rec(cfg);
    rec.offer(meta(1, 0, 100), {span("a", "parse", 0, 100, 1)});
    rec.offer(meta(2, 0, 300), {span("a", "parse", 0, 300, 2)});
    // Latency 200 evicts the 100; a later 50 is refused.
    rec.offer(meta(3, 0, 200), {span("a", "parse", 0, 200, 3)});
    rec.offer(meta(4, 0, 50), {span("a", "parse", 0, 50, 4)});

    const auto kept = rec.retained();
    ASSERT_EQ(kept.size(), 2u);
    // Sorted by descending latency.
    EXPECT_EQ(kept[0].meta.requestId, 2u);
    EXPECT_EQ(kept[1].meta.requestId, 3u);
}

TEST(FlightRecorder, FailedRequestsRetainUnconditionallyUpToCap)
{
    ob::FlightRecorderConfig cfg;
    cfg.slowestK = 1;
    cfg.maxFailed = 2;
    ob::FlightRecorder rec(cfg);
    rec.offer(meta(1, 0, 9000), {});                     // slow, ok
    rec.offer(meta(2, 0, 1, true), {});                  // failed, fast
    rec.offer(meta(3, 0, 2, true), {});
    rec.offer(meta(4, 0, 3, true), {});                  // over cap

    const auto kept = rec.retained();
    ASSERT_EQ(kept.size(), 3u);
    // Failed first, in offer order; then the slowest-K set.
    EXPECT_TRUE(kept[0].meta.failed);
    EXPECT_EQ(kept[0].meta.requestId, 2u);
    EXPECT_EQ(kept[1].meta.requestId, 3u);
    EXPECT_EQ(kept[2].meta.requestId, 1u);
}

TEST(FlightRecorder, TeesToDownstreamSink)
{
    ob::InMemoryTraceSink downstream;
    ob::FlightRecorderConfig cfg;
    cfg.downstream = &downstream;
    ob::FlightRecorder rec(cfg);
    rec.record(span("ssd.core[0]", "parse", 0, 10, 1));
    EXPECT_EQ(downstream.size(), 1u);
    EXPECT_EQ(rec.ringSize(), 1u);
}

TEST(FlightRecorder, WriteChromeJsonAddsRequestNavigationSpans)
{
    ob::FlightRecorder rec;
    rec.offer(meta(7, 100'000'000, 300'000'000),
              {span("ssd.core[0]", "parse", 150'000'000, 250'000'000,
                    9)});
    rec.offer(meta(8, 0, 50'000'000, true), {});

    std::ostringstream os;
    rec.writeChromeJson(os);
    const std::string out = os.str();
    EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(out.find("req 7 tenant1"), std::string::npos);
    EXPECT_NE(out.find("req 8 tenant1 FAILED"), std::string::npos);
    EXPECT_NE(out.find("recorder.requests"), std::string::npos);
    EXPECT_NE(out.find("\"parse\""), std::string::npos);

    // Nothing retained -> still a valid (empty) document.
    ob::FlightRecorder empty;
    std::ostringstream os2;
    empty.writeChromeJson(os2);
    EXPECT_EQ(os2.str(), "{\"traceEvents\":[]}\n");
}

// ----------------------------------------------------------- timeline

TEST(Timeline, SamplesAtExactIntervalBoundaries)
{
    ob::Timeline tl(1000);
    tl.setColumns({"a", "b"});
    EXPECT_FALSE(tl.due(5000));  // not started yet

    tl.start(2000);
    EXPECT_FALSE(tl.due(1999));
    EXPECT_TRUE(tl.due(2000));
    tl.record({1.0, 2.0});
    EXPECT_EQ(tl.nextSampleAt(), 3000u);
    EXPECT_FALSE(tl.due(2999));

    // An event far past several boundaries: the caller's due() loop
    // catches up one row per boundary, each stamped at its boundary.
    while (tl.due(5500))
        tl.record({3.0, 4.0});
    ASSERT_EQ(tl.rows().size(), 4u);
    EXPECT_EQ(tl.rows()[0].at, 2000u);
    EXPECT_EQ(tl.rows()[3].at, 5000u);
    EXPECT_EQ(tl.nextSampleAt(), 6000u);
}

TEST(Timeline, WritesJsonAndCsvConsistently)
{
    ob::Timeline tl(morpheus::sim::kPsPerUs);  // 1 us cadence
    tl.setColumns({"inflight", "bytes"});
    tl.start(0);
    tl.record({2.0, 4096.0});
    tl.record({3.5, 8192.0});

    std::ostringstream js;
    tl.writeJson(js);
    const std::string json = js.str();
    EXPECT_NE(json.find("\"intervalUs\":1"), std::string::npos);
    EXPECT_NE(json.find("\"columns\":[\"inflight\",\"bytes\"]"),
              std::string::npos);
    EXPECT_NE(json.find("{\"t_us\":0.000000,\"values\":[2,4096]}"),
              std::string::npos);
    EXPECT_NE(json.find("{\"t_us\":1.000000,\"values\":[3.5,8192]}"),
              std::string::npos);

    std::ostringstream cs;
    tl.writeCsv(cs);
    EXPECT_EQ(cs.str(),
              "t_us,inflight,bytes\n"
              "0.000000,2,4096\n"
              "1.000000,3.5,8192\n");
}

TEST(Timeline, EmptyTimelineWritesValidJson)
{
    ob::Timeline tl(1000);
    tl.setColumns({"x"});
    std::ostringstream os;
    tl.writeJson(os);
    EXPECT_NE(os.str().find("\"rows\":[]"), std::string::npos);
}
