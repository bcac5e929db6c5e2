/**
 * @file
 * Observability tests: the in-memory trace sink against real device
 * runs (span nesting and attribution for MREAD, a D-SRAM bounce), the
 * Chrome trace-event serialization, and the metrics registry
 * federation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "core/device_runtime.hh"
#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "host/host_system.hh"
#include "obs/critical_path.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serde/writer.hh"
#include "workloads/generators.hh"

namespace co = morpheus::core;
namespace ho = morpheus::host;
namespace nv = morpheus::nvme;
namespace ob = morpheus::obs;
namespace sd = morpheus::serde;
namespace st = morpheus::sim::stats;
namespace wk = morpheus::workloads;
using morpheus::sim::Tick;

namespace {

/** Minimal host+device rig, mirroring test_device_runtime. */
struct Rig
{
    ho::HostSystem sys;
    co::MorpheusDeviceRuntime device;
    co::StandardImages images = co::StandardImages::make();

    Rig() : device(sys.ssd()) {}
    explicit Rig(const ho::SystemConfig &cfg)
        : sys(cfg), device(sys.ssd())
    {
    }

    nv::Completion
    io(nv::Command cmd, Tick now = 0)
    {
        return sys.nvmeDriver().io(sys.ioQueue(), cmd, now);
    }

    nv::Completion
    minit(std::uint32_t instance, const co::StorageAppImage &image,
          std::uint32_t dsram = 0)
    {
        co::InstanceSetup setup;
        setup.image = &image;
        setup.target = co::DmaTarget{sys.allocHost(1 << 20), false};
        setup.dsramBytes = dsram;
        device.stageInstance(instance, setup);
        nv::Command c;
        c.opcode = nv::Opcode::kMInit;
        c.instanceId = instance;
        c.prp1 = sys.allocHost(image.textBytes);
        c.prp2 = dsram;
        c.cdw13 = image.textBytes;
        return io(c);
    }

    nv::Completion
    mread(std::uint32_t instance, const ho::FileExtent &extent,
          std::uint64_t off, std::uint64_t valid, Tick now)
    {
        nv::Command c;
        c.opcode = nv::Opcode::kMRead;
        c.instanceId = instance;
        c.slba = (extent.startByte + off) / nv::kBlockBytes;
        c.nlb = static_cast<std::uint16_t>(
            (valid + nv::kBlockBytes - 1) / nv::kBlockBytes - 1);
        c.cdw13 = static_cast<std::uint32_t>(valid);
        return io(c, now);
    }

    ho::FileExtent
    intFile(std::uint64_t seed, std::uint64_t count)
    {
        const auto a = wk::genIntArray(seed, count);
        sd::TextWriter w;
        a.serialize(w);
        return sys.createFile("ints", w.bytes());
    }
};

}  // namespace

// ---------------------------------------------------- sink primitives

TEST(InMemoryTraceSink, QueriesFilterByNameTrackAndTrace)
{
    ob::InMemoryTraceSink sink;
    ob::Span a;
    a.track = "t0";
    a.name = "work";
    a.begin = 10;
    a.end = 20;
    a.trace = 1;
    sink.record(a);
    ob::Span b = a;
    b.track = "t1";
    b.trace = 2;
    sink.record(b);
    ob::Span mark = a;
    mark.name = "mark";
    mark.instant = true;
    sink.record(mark);

    EXPECT_EQ(sink.size(), 3u);
    EXPECT_EQ(sink.count("work"), 2u);
    EXPECT_EQ(sink.named("mark").size(), 1u);
    EXPECT_EQ(sink.onTrack("t0").size(), 2u);
    EXPECT_EQ(sink.forTrace(2).size(), 1u);
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
}

TEST(InMemoryTraceSink, OverlapsOtherIgnoresSelfInstantsAndOtherTracks)
{
    ob::InMemoryTraceSink sink;
    ob::Span s;
    s.track = "core";
    s.name = "busy";
    s.begin = 100;
    s.end = 200;
    s.trace = 7;
    sink.record(s);

    // The span itself never counts as its own preemption.
    EXPECT_FALSE(sink.overlapsOther("core", 100, 200, 7));
    // A different trace id on the same track does.
    EXPECT_TRUE(sink.overlapsOther("core", 150, 250, 8));
    // Half-open intervals: touching at the edge is not an overlap.
    EXPECT_FALSE(sink.overlapsOther("core", 200, 300, 8));
    // Other tracks never conflict.
    EXPECT_FALSE(sink.overlapsOther("dram", 100, 200, 8));

    ob::Span i = s;
    i.instant = true;
    i.trace = 9;
    sink.record(i);
    // Instants are markers, not occupancy.
    EXPECT_FALSE(sink.overlapsOther("core", 100, 200, 7));
}

// ------------------------------------------------- end-to-end tracing

TEST(Tracing, MReadSpansNestUnderHostSpanWithAttribution)
{
    Rig rig;
    const auto extent = rig.intFile(31, 5000);
    ASSERT_TRUE(rig.minit(1, rig.images.intArray).ok());

    ob::InMemoryTraceSink sink;
    const std::uint64_t valid = 16 * 1024;
    {
        const ob::ScopedTraceSink attach(sink);
        ASSERT_TRUE(rig.mread(1, extent, 0, valid, 0).ok());
    }

    // The host-side umbrella span: doorbell ring -> CQE posted. (The
    // controller's firmware-exec span shares the opcode name but lives
    // on the nvme.exec track.)
    std::vector<ob::Span> hosts;
    for (const ob::Span &s : sink.named("MREAD")) {
        if (s.track.rfind("host.queue[", 0) == 0)
            hosts.push_back(s);
    }
    ASSERT_EQ(hosts.size(), 1u);
    const ob::Span &host = hosts.front();
    EXPECT_GT(host.trace, 0u);
    EXPECT_EQ(host.status, 0u);
    EXPECT_EQ(host.bytes, valid);
    EXPECT_LT(host.begin, host.end);

    // The device-side parse span: same trace id, attributed to the
    // instance and its core (static placement: 1 % 4 = core 1), fully
    // nested inside the host span.
    const auto parses = sink.named("parse");
    ASSERT_EQ(parses.size(), 1u);
    const ob::Span &parse = parses.front();
    EXPECT_EQ(parse.trace, host.trace);
    EXPECT_EQ(parse.instance, 1u);
    EXPECT_EQ(parse.core, 1u);
    EXPECT_EQ(parse.track, "ssd.core[1]");
    EXPECT_EQ(parse.bytes, valid);
    EXPECT_GE(parse.begin, host.begin);
    EXPECT_LE(parse.end, host.end);

    // Single tenant, single command: the chunk was never preempted on
    // its core.
    EXPECT_FALSE(sink.overlapsOther(parse.track, parse.begin, parse.end,
                                    parse.trace));

    // Every span of this command carries its trace id: host umbrella,
    // controller dispatch, exec window, and the parse itself.
    EXPECT_GE(sink.forTrace(host.trace).size(), 4u);
    EXPECT_EQ(sink.count("dispatch"), 1u);
}

TEST(Tracing, DsramBounceEmitsInstantAndFailedHostSpan)
{
    ho::SystemConfig cfg;
    cfg.ssd.sched.dsramPartitioning = true;
    Rig rig(cfg);
    const std::uint32_t dsram = cfg.ssd.core.dsramBytes;

    ob::InMemoryTraceSink sink;
    const ob::ScopedTraceSink attach(sink);

    // Instance 1 takes the whole scratchpad of core 1; instance 5 maps
    // to the same core (static placement) and must bounce.
    ASSERT_TRUE(rig.minit(1, rig.images.intArray, dsram).ok());
    EXPECT_EQ(rig.minit(5, rig.images.intArray, 1024).status,
              nv::Status::kDsramExhausted);

    const auto bounces = sink.named("dsram_bounce");
    ASSERT_EQ(bounces.size(), 1u);
    const ob::Span &bounce = bounces.front();
    EXPECT_TRUE(bounce.instant);
    EXPECT_EQ(bounce.instance, 5u);
    EXPECT_EQ(bounce.track, "sched.tenant[0]");

    // The host saw the same command fail with the same status, under
    // the same trace id as the scheduler's bounce marker.
    bool found = false;
    for (const ob::Span &s : sink.named("MINIT")) {
        if (s.trace != bounce.trace)
            continue;
        found = true;
        EXPECT_EQ(s.status,
                  static_cast<std::uint32_t>(
                      nv::Status::kDsramExhausted));
    }
    EXPECT_TRUE(found);
}

TEST(Tracing, NoSinkLeavesResultsIdentical)
{
    // The trace id is stamped either way (it is part of the wire
    // format); everything else about the run must match.
    auto run = [](ob::TraceSink *sink) {
        Rig rig;
        const auto extent = rig.intFile(44, 4000);
        ob::ScopedTraceSink *attach =
            sink ? new ob::ScopedTraceSink(*sink) : nullptr;
        EXPECT_TRUE(rig.minit(1, rig.images.intArray).ok());
        const auto cqe = rig.mread(
            1, extent, 0, std::min<std::uint64_t>(extent.sizeBytes,
                                                  16 * 1024),
            0);
        delete attach;
        EXPECT_TRUE(cqe.ok());
        return cqe.postedAt;
    };
    ob::InMemoryTraceSink sink;
    EXPECT_EQ(run(nullptr), run(&sink));
    EXPECT_GT(sink.size(), 0u);
    EXPECT_EQ(ob::traceSink(), nullptr);
}

// ------------------------------------------------ Chrome serialization

TEST(ChromeTraceSink, EmitsWellFormedTraceEvents)
{
    ob::ChromeTraceSink sink;
    ob::Span s;
    s.track = "ssd.core[0]";
    s.name = "parse";
    s.category = "ssd";
    s.begin = 1;  // 1 ps: exercises the full %.6f resolution
    s.end = 2'000'000;
    s.trace = 7;
    s.bytes = 4096;
    sink.record(s);
    ob::Span i;
    i.track = "sched.tenant[1]";
    i.name = "dsram_bounce";
    i.category = "sched";
    i.begin = i.end = 5'000'000;
    i.instant = true;
    i.tenant = 1;
    sink.record(i);

    std::ostringstream os;
    sink.write(os);
    const std::string out = os.str();

    // Document shell and the process/track metadata.
    EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(out.find("\"name\":\"process_name\""), std::string::npos);
    EXPECT_NE(out.find("{\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                       "\"name\":\"thread_name\","
                       "\"args\":{\"name\":\"ssd.core[0]\"}}"),
              std::string::npos);

    // The complete event: ts in microseconds at picosecond resolution.
    EXPECT_NE(out.find("\"ts\":0.000001,\"dur\":1.999999"),
              std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"trace\":7,\"bytes\":4096}"),
              std::string::npos);

    // The instant event carries the mandatory scope field.
    EXPECT_NE(out.find("{\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"tenant\":1}"), std::string::npos);

    // Balanced document, closed list.
    EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
}

TEST(ChromeTraceSink, EmptySinkEmitsValidEmptyDocument)
{
    ob::ChromeTraceSink sink;
    std::ostringstream os;
    sink.write(os);
    EXPECT_EQ(os.str(), "{\"traceEvents\":[]}\n");

    // The free function agrees on the degenerate case.
    std::ostringstream os2;
    ob::writeChromeTrace(os2, {});
    EXPECT_EQ(os2.str(), "{\"traceEvents\":[]}\n");
}

TEST(ChromeTraceSink, SubMicrosecondSpanKeepsExactDecimals)
{
    // A span entirely inside the first microsecond: ts and dur must
    // render the picosecond digits exactly, never rounding to 0 or
    // collapsing to scientific notation.
    ob::ChromeTraceSink sink;
    ob::Span s;
    s.track = "ssd.dma";
    s.name = "flush_dma";
    s.category = "ssd";
    s.begin = 250;      // 0.000250 us
    s.end = 999'750;    // 0.999750 us
    sink.record(s);

    std::ostringstream os;
    sink.write(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"ts\":0.000250,\"dur\":0.999500"),
              std::string::npos);
    EXPECT_EQ(out.find("e-"), std::string::npos);
}

TEST(ChromeTraceSink, DuplicateTraceIdsAcrossDevicesKeepTheirTracks)
{
    // Fleet runs partition trace ids by device, but an untrusted or
    // legacy trace can repeat an id on two devices' tracks. The
    // serialization must keep both spans under their own thread_name
    // metadata rather than merging them.
    ob::ChromeTraceSink sink;
    ob::Span a;
    a.track = "host.queue[1]";
    a.name = "MREAD";
    a.category = "nvme";
    a.begin = 1'000'000;
    a.end = 3'000'000;
    a.trace = 42;
    sink.record(a);
    ob::Span b = a;
    b.track = "dev1.host.queue[1]";
    sink.record(b);

    std::ostringstream os;
    sink.write(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"args\":{\"name\":\"host.queue[1]\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"name\":\"dev1.host.queue[1]\"}"),
              std::string::npos);
    // Two X events survived, on distinct tids.
    std::size_t xs = 0;
    for (std::size_t pos = out.find("\"ph\":\"X\"");
         pos != std::string::npos;
         pos = out.find("\"ph\":\"X\"", pos + 1))
        ++xs;
    EXPECT_EQ(xs, 2u);
}

// ------------------------------------- critical-path attribution shapes
//
// The invariant under test: for ANY request shape, attributeSpans over
// the request's end-to-end window accounts every tick to exactly one
// stage — the stage ticks sum to the window, no gaps, no double
// counting.

namespace {

/** Full host-runtime rig (sessions, DMA targets, fleet-capable). */
struct RuntimeRig
{
    ho::HostSystem sys;
    co::MorpheusDeviceRuntime device;
    co::NvmeP2p p2p;
    co::MorpheusRuntime runtime;
    co::StandardImages images = co::StandardImages::make();

    explicit RuntimeRig(const ho::SystemConfig &cfg = {})
        : sys(cfg), device(sys.ssd()), p2p(sys),
          runtime(sys, device, p2p)
    {
    }

    ho::FileExtent
    intFile(std::uint64_t seed, std::uint64_t count)
    {
        const auto a = wk::genIntArray(seed, count);
        sd::TextWriter w;
        a.serialize(w);
        return sys.createFile("ints", w.bytes());
    }
};

/** Spans belonging to any of the given trace ids. */
std::vector<ob::Span>
spansOf(const ob::InMemoryTraceSink &sink,
        const std::vector<ob::TraceId> &ids)
{
    const std::unordered_set<ob::TraceId> set(ids.begin(), ids.end());
    std::vector<ob::Span> out;
    for (const ob::Span &s : sink.spans()) {
        if (set.count(s.trace))
            out.push_back(s);
    }
    return out;
}

}  // namespace

TEST(CriticalPath, PlainInvokeAttributionCoversWindowExactly)
{
    RuntimeRig rig;
    const auto file = rig.intFile(91, 8000);
    ob::InMemoryTraceSink sink;
    const ob::ScopedTraceSink attach(sink);

    const auto stream = rig.runtime.streamCreate(file, file.readyAt);
    const auto target = rig.runtime.hostTarget(1 << 20);
    const auto res = rig.runtime.invoke(rig.images.intArray, stream,
                                        target, stream.readyAt);

    const ob::Attribution attr =
        ob::attributeSpans(sink.spans(), res.start, res.done);
    EXPECT_EQ(attr.total(), res.done - res.start);
    EXPECT_GT(attr[ob::Stage::kParse], 0u);
    EXPECT_EQ(attr[ob::Stage::kCacheHit], 0u);
    EXPECT_EQ(attr[ob::Stage::kRetry], 0u);
}

TEST(CriticalPath, CacheHitShapeSwapsParseForCacheHit)
{
    ho::SystemConfig cfg;
    cfg.ssd.cache.enabled = true;
    RuntimeRig rig(cfg);
    const auto file = rig.intFile(92, 8000);
    ob::InMemoryTraceSink sink;
    const ob::ScopedTraceSink attach(sink);

    const auto stream = rig.runtime.streamCreate(file, file.readyAt);
    const auto t1 = rig.runtime.hostTarget(1 << 20);
    const auto r1 = rig.runtime.invoke(rig.images.intArray, stream, t1,
                                       stream.readyAt);
    ASSERT_FALSE(r1.servedFromCache);
    const auto t2 = rig.runtime.hostTarget(1 << 20);
    const auto r2 = rig.runtime.invoke(rig.images.intArray, stream, t2,
                                       r1.done);
    ASSERT_TRUE(r2.servedFromCache);

    const ob::Attribution a1 =
        ob::attributeSpans(sink.spans(), r1.start, r1.done);
    const ob::Attribution a2 =
        ob::attributeSpans(sink.spans(), r2.start, r2.done);
    EXPECT_EQ(a1.total(), r1.done - r1.start);
    EXPECT_EQ(a2.total(), r2.done - r2.start);

    // The replay shows up as cache-hit time and no deserialization
    // ever ran in its window (the only parse-family span is the MINIT
    // image install).
    EXPECT_EQ(a1[ob::Stage::kCacheHit], 0u);
    EXPECT_GT(a2[ob::Stage::kCacheHit], 0u);
    for (const ob::Span &s : sink.spans()) {
        if (s.name == "parse") {
            EXPECT_LE(s.end, r1.done);
        }
    }
}

TEST(CriticalPath, RetryBackoffShapeChargesRetryWait)
{
    ho::SystemConfig cfg;
    cfg.ssd.sched.maxInflightTotal = 1;  // second MINIT must bounce
    RuntimeRig rig(cfg);
    const auto file = rig.intFile(93, 6000);
    ob::InMemoryTraceSink sink;
    const ob::ScopedTraceSink attach(sink);

    const auto stream = rig.runtime.streamCreate(file, file.readyAt);
    const auto t1 = rig.runtime.hostTarget(1 << 20);
    const auto t2 = rig.runtime.hostTarget(1 << 20);

    auto s1 = rig.runtime.beginInvoke(rig.images.intArray, stream, t1,
                                      stream.readyAt);
    ASSERT_TRUE(s1.accepted);
    auto s2 = rig.runtime.beginInvoke(rig.images.intArray, stream, t2,
                                      stream.readyAt);
    ASSERT_FALSE(s2.accepted);
    ASSERT_FALSE(s2.failed);
    ASSERT_FALSE(s2.traceIds.empty());
    const Tick window_begin = s2.result.start;
    const Tick bounced = s2.result.done;
    std::vector<ob::TraceId> ids = s2.traceIds;

    // Drain the winner; its completion is the loser's resume point.
    while (!s1.streamDone())
        rig.runtime.stepInvoke(s1);
    const auto r1 = rig.runtime.finishInvoke(s1);

    // What the serving driver records for the backoff window.
    ob::Span wait;
    wait.track = "host.serving";
    wait.name = "retry_wait";
    wait.category = "host";
    wait.begin = bounced;
    wait.end = r1.done;
    wait.trace = ids.back();
    sink.record(wait);

    auto s2b = rig.runtime.beginInvoke(rig.images.intArray, stream, t2,
                                       r1.done);
    ASSERT_TRUE(s2b.accepted);
    while (!s2b.streamDone())
        rig.runtime.stepInvoke(s2b);
    const auto r2 = rig.runtime.finishInvoke(s2b);
    ids.insert(ids.end(), s2b.traceIds.begin(), s2b.traceIds.end());

    const ob::Attribution attr = ob::attributeSpans(
        spansOf(sink, ids), window_begin, r2.done);
    EXPECT_EQ(attr.total(), r2.done - window_begin);
    EXPECT_EQ(attr[ob::Stage::kRetry], r1.done - bounced);
    EXPECT_GT(attr[ob::Stage::kParse], 0u);
}

// ------------------------------------------------------------ metrics

TEST(MetricsRegistry, AbsorbSnapshotsStatSetValues)
{
    st::Counter reads;
    std::uint64_t level = 7;
    reads += 42;

    ob::MetricsRegistry reg;
    {
        st::StatSet set;
        set.registerCounter("reads", &reads);
        set.registerGauge("resident", [&level] { return level; });
        reg.absorb(set, "ssd.");
    }
    // The StatSet (and in real use the whole system) is gone; the
    // snapshot survives, the gauge as the value it read at absorb.
    level = 9;
    EXPECT_EQ(reg.counter("ssd.reads"), 42u);
    EXPECT_EQ(reg.counter("ssd.resident"), 7u);
    EXPECT_EQ(reg.counter("ssd.missing"), 0u);
    EXPECT_DOUBLE_EQ(reg.scalar("ssd.missing"), 0.0);
    EXPECT_EQ(reg.size(), 2u);

    // Later values overwrite (a second collection refreshes, not
    // duplicates).
    reg.setCounter("ssd.reads", 50);
    EXPECT_EQ(reg.counter("ssd.reads"), 50u);
    reg.clear();
    EXPECT_TRUE(reg.empty());
}

TEST(MetricsRegistry, ReportInterleavesKindsSorted)
{
    ob::MetricsRegistry reg;
    reg.setScalar("b.mean", 1.5);
    reg.setCounter("c", 3);
    reg.setCounter("a", 1);
    std::ostringstream os;
    reg.report(os);
    EXPECT_EQ(os.str(), "a 1\nb.mean 1.5\nc 3\n");
}

TEST(MetricsRegistry, WriteJsonNestsPathsWithSelfForInteriorLeaves)
{
    ob::MetricsRegistry reg;
    reg.setCounter("a", 1);
    reg.setCounter("a.b", 2);  // both a leaf and an interior node
    reg.setCounter("a.b.c", 3);
    reg.setScalar("d", 2.5);
    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"a\": {\n"
              "    \"self\": 1,\n"
              "    \"b\": {\n"
              "      \"self\": 2,\n"
              "      \"c\": 3\n"
              "    }\n"
              "  },\n"
              "  \"d\": 2.5\n"
              "}\n");
}
