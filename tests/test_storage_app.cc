/**
 * @file
 * MsChunkContext + standard StorageApp tests: the device library and
 * the per-chunk state machines, exercised without the full SSD (chunks
 * fed directly), including the chunk-size invariance property.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/standard_apps.hh"
#include "serde/writer.hh"
#include "workloads/generators.hh"
#include "sim/rng.hh"
#include "workloads/objects.hh"

namespace co = morpheus::core;
namespace sd = morpheus::serde;
namespace wk = morpheus::workloads;

namespace {

/** Feed a text buffer to an app in fixed-size chunks; return output. */
std::vector<std::uint8_t>
runApp(co::StorageApp &app, const std::vector<std::uint8_t> &text,
       std::size_t chunk_size, std::uint32_t flush_threshold = 16384)
{
    co::MsChunkContext ctx(256 * 1024, flush_threshold, 0);
    std::vector<std::uint8_t> out;
    auto drain = [&] {
        for (auto &seg : ctx.takeFlushes())
            out.insert(out.end(), seg.begin(), seg.end());
    };
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t take =
            std::min(chunk_size, text.size() - pos);
        ctx.feedChunk(std::vector<std::uint8_t>(
            text.begin() + pos, text.begin() + pos + take));
        pos += take;
        app.processChunk(ctx);
        drain();
    }
    ctx.signalEndOfStream();
    app.processChunk(ctx);
    app.finish(ctx);
    ctx.flushResidual();
    drain();
    return out;
}

/** What an app hands the engine after each processChunk() call. */
struct AppTrace
{
    std::vector<std::vector<std::vector<std::uint8_t>>> flushes;
    std::vector<sd::ParseCost> costs;
    std::uint32_t returnValue = 0;
};

/**
 * runApp(), recording the flush segments and cost per call. D-SRAM is
 * the threshold plus @p width - 1: what staging reaches when a
 * @p width-byte value crosses the threshold, so an app that staged
 * more before flushing would trip the D-SRAM assert.
 */
AppTrace
traceApp(co::StorageApp &app, const std::vector<std::uint8_t> &text,
         std::size_t chunk_size, std::uint32_t flush_threshold,
         std::uint32_t width)
{
    co::MsChunkContext ctx(flush_threshold + width - 1, flush_threshold, 0);
    AppTrace trace;
    auto record = [&] {
        trace.flushes.push_back(ctx.takeFlushes());
        trace.costs.push_back(ctx.takeCostDelta());
    };
    for (std::size_t pos = 0; pos < text.size(); pos += chunk_size) {
        const std::size_t take = std::min(chunk_size, text.size() - pos);
        ctx.feedChunk(std::vector<std::uint8_t>(
            text.begin() + static_cast<std::ptrdiff_t>(pos),
            text.begin() + static_cast<std::ptrdiff_t>(pos + take)));
        app.processChunk(ctx);
        record();
    }
    ctx.signalEndOfStream();
    app.processChunk(ctx);
    ctx.flushResidual();
    record();
    trace.returnValue = app.returnValue();
    return trace;
}

void
expectSameTrace(const AppTrace &got, const AppTrace &want)
{
    ASSERT_EQ(got.flushes.size(), want.flushes.size());
    for (std::size_t i = 0; i < want.flushes.size(); ++i) {
        ASSERT_EQ(got.flushes[i], want.flushes[i]) << "call " << i;
        EXPECT_EQ(got.costs[i].bytes, want.costs[i].bytes) << "call " << i;
        EXPECT_EQ(got.costs[i].intValues, want.costs[i].intValues)
            << "call " << i;
    }
    EXPECT_EQ(got.returnValue, want.returnValue);
}

/** IntArrayApp as one ms_scanf and one ms_memcpy per value. */
class PerValueIntArrayApp : public co::StorageApp
{
  public:
    void
    processChunk(co::MsChunkContext &ctx) override
    {
        std::int64_t v = 0;
        for (;;) {
            if (!_haveCount) {
                if (!ctx.msScanfInt(&v))
                    return;
                _count = static_cast<std::uint32_t>(v);
                ctx.msEmitValue<std::uint32_t>(_count);
                _haveCount = true;
                continue;
            }
            if (_valuesDone >= _count || !ctx.msScanfInt(&v))
                return;
            ctx.msEmitValue<std::int64_t>(v);
            ++_valuesDone;
        }
    }
    std::uint32_t returnValue() const override { return _valuesDone; }

  private:
    bool _haveCount = false;
    std::uint32_t _count = 0;
    std::uint32_t _valuesDone = 0;
};

/** EdgeListApp as one ms_scanf and one ms_memcpy per value. */
class PerValueEdgeListApp : public co::StorageApp
{
  public:
    explicit PerValueEdgeListApp(bool weighted) : _weighted(weighted) {}

    void
    processChunk(co::MsChunkContext &ctx) override
    {
        std::int64_t v = 0;
        for (;;) {
            if (_header < 2) {
                if (!ctx.msScanfInt(&v))
                    return;
                if (_header++ == 1)
                    _edges = static_cast<std::uint32_t>(v);
                ctx.msEmitValue<std::uint32_t>(
                    static_cast<std::uint32_t>(v));
                continue;
            }
            if (_field == 0 && _edgesDone >= _edges)
                return;
            if (!ctx.msScanfInt(&v))
                return;
            if (_field == 2)
                ctx.msEmitValue<std::int32_t>(static_cast<std::int32_t>(v));
            else
                ctx.msEmitValue<std::uint32_t>(
                    static_cast<std::uint32_t>(v));
            if (++_field == (_weighted ? 3 : 2)) {
                _field = 0;
                ++_edgesDone;
            }
        }
    }
    std::uint32_t returnValue() const override { return _edgesDone; }

  private:
    bool _weighted;
    int _header = 0;
    int _field = 0;
    std::uint32_t _edges = 0;
    std::uint32_t _edgesDone = 0;
};

}  // namespace

TEST(MsChunkContext, EmitStagesAndFlushesAtThreshold)
{
    co::MsChunkContext ctx(1024, 16, 0);
    const std::uint8_t block[10] = {};
    ctx.msEmit(block, 10);
    EXPECT_TRUE(ctx.takeFlushes().empty());  // below threshold
    ctx.msEmit(block, 10);                   // crosses 16
    const auto flushes = ctx.takeFlushes();
    ASSERT_EQ(flushes.size(), 1u);
    EXPECT_EQ(flushes[0].size(), 16u);
    ctx.flushResidual();
    const auto rest = ctx.takeFlushes();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].size(), 4u);
    EXPECT_EQ(ctx.bytesEmitted(), 20u);
}

TEST(MsChunkContextDeath, EmitPastDsramPanics)
{
    // Filling D-SRAM exactly is fine; one byte more is not.
    co::MsChunkContext ctx(64, 64, 0);
    const std::uint8_t block[65] = {};
    ctx.msEmit(block, 64);
    EXPECT_EQ(ctx.takeFlushes().size(), 1u);
    EXPECT_DEATH(ctx.msEmit(block, 65), "exceeds D-SRAM");
}

TEST(MsChunkContext, CostDeltaResetsBetweenChunks)
{
    co::MsChunkContext ctx(1024, 512, 0);
    ctx.feedChunk({'4', '2', ' ', '7', ' '});
    std::int64_t v = 0;
    EXPECT_TRUE(ctx.msScanfInt(&v));
    EXPECT_TRUE(ctx.msScanfInt(&v));
    EXPECT_FALSE(ctx.msScanfInt(&v));
    const auto d1 = ctx.takeCostDelta();
    EXPECT_EQ(d1.intValues, 2u);
    const auto d2 = ctx.takeCostDelta();
    EXPECT_EQ(d2.intValues, 0u);
}

TEST(MsChunkContext, RawReadsForWritePath)
{
    co::MsChunkContext ctx(1024, 512, 0);
    std::vector<std::uint8_t> chunk(16);
    const std::int64_t a = 0x1122334455667788;
    const std::int64_t b = -42;
    std::memcpy(chunk.data(), &a, 8);
    std::memcpy(chunk.data() + 8, &b, 8);
    ctx.feedChunk(std::move(chunk));
    std::int64_t v = 0;
    ASSERT_TRUE(ctx.msReadValue(&v));
    EXPECT_EQ(v, a);
    ASSERT_TRUE(ctx.msReadValue(&v));
    EXPECT_EQ(v, b);
    EXPECT_FALSE(ctx.msReadValue(&v));
}

TEST(StandardApps, EdgeListAppEmitsExactBinaryLayout)
{
    const auto g = wk::genEdgeList(21, 64, 512, false);
    sd::TextWriter w;
    g.serialize(w);
    co::EdgeListApp app(0);
    const auto out = runApp(app, w.bytes(), 1000);
    EXPECT_EQ(out, g.toBinary());
    EXPECT_EQ(app.returnValue(), g.numEdges());
}

TEST(StandardApps, WeightedEdgeListApp)
{
    const auto g = wk::genEdgeList(22, 64, 512, true);
    sd::TextWriter w;
    g.serialize(w);
    co::EdgeListApp app(1);  // arg bit0 = weighted
    const auto out = runApp(app, w.bytes(), 777);
    EXPECT_EQ(out, g.toBinary());
}

TEST(StandardApps, MatrixApp)
{
    const auto m = wk::genMatrix(23, 24, 0.3);
    sd::TextWriter w;
    m.serialize(w);
    co::MatrixApp app(0);
    const auto out = runApp(app, w.bytes(), 333);
    // Compare against a host parse of the same text (float rounding is
    // identical because both run the same parse code).
    sd::TextScanner s(w.bytes().data(), w.bytes().size());
    sd::MatrixObject host;
    ASSERT_TRUE(host.parse(s));
    EXPECT_EQ(out, host.toBinary());
}

TEST(StandardApps, IntArrayApp)
{
    const auto a = wk::genIntArray(24, 3000);
    sd::TextWriter w;
    a.serialize(w);
    co::IntArrayApp app(0);
    EXPECT_EQ(runApp(app, w.bytes(), 512), a.toBinary());
}

TEST(StandardApps, PointSetApp)
{
    const auto p = wk::genPointSet(25, 200, 6, 0.4);
    sd::TextWriter w;
    p.serialize(w);
    co::PointSetApp app(0);
    sd::TextScanner s(w.bytes().data(), w.bytes().size());
    sd::PointSetObject host;
    ASSERT_TRUE(host.parse(s));
    EXPECT_EQ(runApp(app, w.bytes(), 450), host.toBinary());
}

TEST(StandardApps, CooMatrixApp)
{
    const auto c = wk::genCooMatrix(26, 50, 50, 600, 0.33);
    sd::TextWriter w;
    c.serialize(w);
    co::CooMatrixApp app(0);
    sd::TextScanner s(w.bytes().data(), w.bytes().size());
    sd::CooMatrixObject host;
    ASSERT_TRUE(host.parse(s));
    EXPECT_EQ(runApp(app, w.bytes(), 701), host.toBinary());
}

/** Property: app output is invariant under MREAD chunk size. */
class AppChunkProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(AppChunkProperty, EdgeListOutputInvariant)
{
    const auto g = wk::genEdgeList(27, 32, 200, false);
    sd::TextWriter w;
    g.serialize(w);
    co::EdgeListApp app(0);
    EXPECT_EQ(runApp(app, w.bytes(), GetParam()), g.toBinary());
}

TEST_P(AppChunkProperty, RunsMatchPerValueApps)
{
    // Flush thresholds off the 8- and 4-byte value widths, so segments
    // split values; trailing tokens past the counts are ignored.
    const auto ints = wk::genIntArray(29, 10000);
    const auto edges = wk::genEdgeList(30, 500, 8200, false);
    const auto weighted = wk::genEdgeList(31, 500, 6000, true);
    auto text = [](const auto &obj) {
        sd::TextWriter w;
        obj.serialize(w);
        w.appendLiteral("\n12 abc 34\n");
        return w.bytes();
    };
    for (const std::uint32_t threshold : {13u, 60u * 1024 + 3}) {
        SCOPED_TRACE(threshold);
        {
            co::IntArrayApp app(0);
            PerValueIntArrayApp ref;
            expectSameTrace(
                traceApp(app, text(ints), GetParam(), threshold, 8),
                traceApp(ref, text(ints), GetParam(), threshold, 8));
        }
        for (const bool w : {false, true}) {
            const auto &g = w ? weighted : edges;
            co::EdgeListApp app(w ? 1 : 0);
            PerValueEdgeListApp ref(w);
            const AppTrace got =
                traceApp(app, text(g), GetParam(), threshold, 4);
            expectSameTrace(got,
                            traceApp(ref, text(g), GetParam(), threshold, 4));
            EXPECT_EQ(got.returnValue, g.numEdges());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, AppChunkProperty,
                         ::testing::Values(1, 3, 17, 100, 512, 4096,
                                           1 << 20));

TEST(StandardApps, Int64SerializerRoundTrips)
{
    // binary -> device text -> host parse == original values.
    const auto a = wk::genIntArray(28, 500);
    std::vector<std::uint8_t> bin;
    for (const auto v : a.values) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        bin.insert(bin.end(), p, p + 8);
    }
    co::Int64TextSerializerApp app(0);
    co::MsChunkContext ctx(256 * 1024, 64 * 1024, 0);
    ctx.feedChunk(bin);
    ASSERT_TRUE(app.processWriteChunk(ctx));
    ctx.flushResidual();
    std::vector<std::uint8_t> text;
    for (auto &seg : ctx.takeFlushes())
        text.insert(text.end(), seg.begin(), seg.end());

    sd::TextScanner s(text.data(), text.size());
    std::vector<std::int64_t> back;
    std::int64_t v = 0;
    while (s.nextInt64(&v))
        back.push_back(v);
    EXPECT_EQ(back, a.values);
}

TEST(Compiler, ImageSizesAreDeterministicAndBounded)
{
    const auto img1 = co::MorpheusCompiler::compile(
        "foo", [](std::uint32_t) {
            return std::make_unique<co::IntArrayApp>(0);
        });
    const auto img2 = co::MorpheusCompiler::compile(
        "foo", [](std::uint32_t) {
            return std::make_unique<co::IntArrayApp>(0);
        });
    EXPECT_EQ(img1.textBytes, img2.textBytes);
    EXPECT_GE(img1.textBytes, 8u * 1024);
    EXPECT_LT(img1.textBytes, 24u * 1024);
    const auto img3 = co::MorpheusCompiler::compile(
        "bar",
        [](std::uint32_t) {
            return std::make_unique<co::IntArrayApp>(0);
        },
        12345);
    EXPECT_EQ(img3.textBytes, 12345u);
}

TEST(StandardApps, EndianSwapConvertsBigEndianBinaryInput)
{
    // Paper §III: the model also applies to binary input formats.
    morpheus::sim::Rng rng(31337);
    std::vector<std::uint32_t> words(5000);
    for (auto &w : words)
        w = static_cast<std::uint32_t>(rng.next());

    // Build the big-endian input file: count then words.
    std::vector<std::uint8_t> input;
    auto put_be = [&input](std::uint32_t v) {
        input.push_back(static_cast<std::uint8_t>(v >> 24));
        input.push_back(static_cast<std::uint8_t>(v >> 16));
        input.push_back(static_cast<std::uint8_t>(v >> 8));
        input.push_back(static_cast<std::uint8_t>(v));
    };
    put_be(static_cast<std::uint32_t>(words.size()));
    for (const auto w : words)
        put_be(w);

    co::EndianSwapApp app(0);
    co::MsChunkContext ctx(256 * 1024, 16 * 1024, 0);
    std::vector<std::uint8_t> out;
    std::size_t pos = 0;
    while (pos < input.size()) {
        // 4-byte-aligned chunks (the runtime keeps binary streams
        // word aligned).
        const std::size_t take =
            std::min<std::size_t>(4096, input.size() - pos);
        ctx.feedChunk(std::vector<std::uint8_t>(
            input.begin() + pos, input.begin() + pos + take));
        pos += take;
        app.processChunk(ctx);
        for (auto &seg : ctx.takeFlushes())
            out.insert(out.end(), seg.begin(), seg.end());
    }
    ctx.flushResidual();
    for (auto &seg : ctx.takeFlushes())
        out.insert(out.end(), seg.begin(), seg.end());

    ASSERT_EQ(out.size(), 4u * (words.size() + 1));
    std::uint32_t count;
    std::memcpy(&count, out.data(), 4);
    EXPECT_EQ(count, words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
        std::uint32_t v;
        std::memcpy(&v, out.data() + 4 * (i + 1), 4);
        ASSERT_EQ(v, words[i]) << i;
    }
    EXPECT_EQ(app.returnValue(), words.size());
}
