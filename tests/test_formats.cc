/**
 * @file
 * Object-format tests: text round trips, binary codecs, and the
 * text/binary equivalence invariants the Morpheus path relies on.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <variant>

#include "serde/formats.hh"
#include "sim/digest.hh"
#include "workloads/app_spec.hh"
#include "workloads/generators.hh"

namespace ms = morpheus::sim;
namespace sd = morpheus::serde;
namespace wk = morpheus::workloads;

namespace {

template <typename T, typename Parse>
T
roundTripText(const T &obj, Parse parse)
{
    sd::TextWriter w;
    obj.serialize(w);
    const auto text = w.take();
    sd::TextScanner s(text.data(), text.size());
    T out;
    EXPECT_TRUE(parse(out, s));
    return out;
}

}  // namespace

TEST(Formats, EdgeListTextRoundTrip)
{
    const auto g = wk::genEdgeList(1, 100, 500, false);
    const auto back = roundTripText(
        g, [](sd::EdgeListObject &o, sd::TextScanner &s) {
            return o.parse(s, false);
        });
    EXPECT_EQ(g, back);
}

TEST(Formats, WeightedEdgeListTextRoundTrip)
{
    const auto g = wk::genEdgeList(2, 50, 300, true);
    const auto back = roundTripText(
        g, [](sd::EdgeListObject &o, sd::TextScanner &s) {
            return o.parse(s, true);
        });
    EXPECT_EQ(g, back);
}

TEST(Formats, IntArrayTextRoundTrip)
{
    const auto a = wk::genIntArray(3, 1000);
    const auto back = roundTripText(
        a, [](sd::IntArrayObject &o, sd::TextScanner &s) {
            return o.parse(s);
        });
    EXPECT_EQ(a, back);
}

TEST(Formats, MatrixTextRoundTripIntegerValues)
{
    // Integer-valued matrices round-trip exactly.
    const auto m = wk::genMatrix(4, 20, 0.0);
    const auto back =
        roundTripText(m, [](sd::MatrixObject &o, sd::TextScanner &s) {
            return o.parse(s);
        });
    EXPECT_EQ(m.rows, back.rows);
    EXPECT_EQ(m.cols, back.cols);
    for (std::size_t i = 0; i < m.values.size(); ++i)
        EXPECT_DOUBLE_EQ(m.values[i], back.values[i]);
}

TEST(Formats, CooTextRoundTripWithFloats)
{
    const auto m = wk::genCooMatrix(5, 100, 100, 500, 0.5);
    sd::TextWriter w;
    m.serialize(w);
    const auto text = w.take();
    sd::TextScanner s(text.data(), text.size());
    sd::CooMatrixObject back;
    ASSERT_TRUE(back.parse(s));
    ASSERT_EQ(back.nnz(), m.nnz());
    EXPECT_EQ(back.rowIdx, m.rowIdx);
    EXPECT_EQ(back.colIdx, m.colIdx);
    EXPECT_EQ(back, m);  // float values read back bit for bit
}

TEST(Formats, PointSetTextRoundTrip)
{
    const auto p = wk::genPointSet(6, 200, 5, 0.3);
    sd::TextWriter w;
    p.serialize(w);
    const auto text = w.take();
    sd::TextScanner s(text.data(), text.size());
    sd::PointSetObject back;
    ASSERT_TRUE(back.parse(s));
    EXPECT_EQ(back, p);
}

TEST(Formats, EveryAppTextRoundTripsExactly)
{
    // runWorkload validates every mode against the generator's object,
    // so the text the generator's object serializes to must parse back
    // to that object exactly, floats included.
    std::vector<const wk::AppSpec *> apps;
    for (const auto &app : wk::standardSuite())
        apps.push_back(&app);
    for (const auto &app : wk::extensionSuite())
        apps.push_back(&app);
    for (const wk::AppSpec *app : apps) {
        for (const std::uint64_t seed : {42, 7}) {
            const wk::AnyObject truth = app->generate(seed, 0.05);
            const auto text = wk::serializeObject(truth);
            sd::ParseCost cost;
            const wk::AnyObject back = wk::parseObject(
                app->object, text.data(), text.size(), &cost);
            EXPECT_TRUE(back == truth) << app->name << " seed " << seed;
        }
    }
}

TEST(Formats, EveryAppBinaryRoundTripsExactly)
{
    // runWorkload validates by digest of the binary encoding, which is
    // sound only if an object's encoding decodes back to the object
    // exactly, and if the digest the encoder feeds is the digest of
    // the bytes it would emit.
    std::vector<const wk::AppSpec *> apps;
    for (const auto &app : wk::standardSuite())
        apps.push_back(&app);
    for (const auto &app : wk::extensionSuite())
        apps.push_back(&app);
    for (const wk::AppSpec *app : apps) {
        for (const std::uint64_t seed : {42, 7}) {
            const wk::AnyObject truth = app->generate(seed, 0.05);
            const auto bin = std::visit(
                [](const auto &o) { return o.toBinary(); }, truth);
            EXPECT_EQ(bin.size(), wk::objectBytes(truth)) << app->name;
            const wk::AnyObject back = std::visit(
                [&bin](const auto &o) -> wk::AnyObject {
                    using T = std::decay_t<decltype(o)>;
                    if constexpr (std::is_same_v<T, sd::EdgeListObject>)
                        return T::fromBinary(bin, o.weighted);
                    else
                        return T::fromBinary(bin);
                },
                truth);
            EXPECT_TRUE(back == truth) << app->name << " seed " << seed;
            ms::Digester d;
            d.append(bin.data(), bin.size());
            EXPECT_EQ(wk::objectDigest(truth), d.finish())
                << app->name << " seed " << seed;
        }
    }
}

TEST(Formats, BinaryCodecsRoundTripExactly)
{
    const auto g = wk::genEdgeList(7, 64, 256, true);
    EXPECT_EQ(sd::EdgeListObject::fromBinary(g.toBinary(), true), g);

    const auto m = wk::genMatrix(8, 16, 0.4);
    EXPECT_EQ(sd::MatrixObject::fromBinary(m.toBinary()), m);

    const auto a = wk::genIntArray(9, 128);
    EXPECT_EQ(sd::IntArrayObject::fromBinary(a.toBinary()), a);

    const auto p = wk::genPointSet(10, 64, 3, 0.7);
    EXPECT_EQ(sd::PointSetObject::fromBinary(p.toBinary()), p);

    const auto c = wk::genCooMatrix(11, 32, 32, 99, 0.5);
    EXPECT_EQ(sd::CooMatrixObject::fromBinary(c.toBinary()), c);
}

TEST(Formats, ObjectBytesMatchesBinarySize)
{
    const auto g = wk::genEdgeList(12, 64, 256, false);
    EXPECT_EQ(g.objectBytes(), g.toBinary().size());
    const auto gw = wk::genEdgeList(12, 64, 256, true);
    EXPECT_EQ(gw.objectBytes(), gw.toBinary().size());
    const auto m = wk::genMatrix(13, 10, 0.0);
    EXPECT_EQ(m.objectBytes(), m.toBinary().size());
    const auto a = wk::genIntArray(14, 77);
    EXPECT_EQ(a.objectBytes(), a.toBinary().size());
    const auto p = wk::genPointSet(15, 20, 4, 0.0);
    EXPECT_EQ(p.objectBytes(), p.toBinary().size());
    const auto c = wk::genCooMatrix(16, 10, 10, 30, 0.0);
    EXPECT_EQ(c.objectBytes(), c.toBinary().size());
}

TEST(Formats, TextIsBiggerThanBinaryForTypicalInputs)
{
    // The paper's PCIe-traffic argument: objects are denser than text
    // for typical numeric data.
    const auto a = wk::genIntArray(17, 5000);
    sd::TextWriter w;
    a.serialize(w);
    EXPECT_GT(w.size(), a.objectBytes() / 2);  // sanity floor
}

TEST(Formats, EmptyObjectsRoundTrip)
{
    sd::IntArrayObject empty;
    sd::TextWriter w;
    empty.serialize(w);
    const auto text = w.take();
    sd::TextScanner s(text.data(), text.size());
    sd::IntArrayObject back;
    ASSERT_TRUE(back.parse(s));
    EXPECT_EQ(back, empty);
    EXPECT_EQ(sd::IntArrayObject::fromBinary(empty.toBinary()), empty);
}

TEST(Formats, StreamingParseEqualsContiguousParse)
{
    // The invariant the MREAD chunking depends on.
    const auto g = wk::genEdgeList(18, 128, 1024, false);
    sd::TextWriter w;
    g.serialize(w);
    const auto text = w.take();

    std::size_t pos = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take =
                std::min<std::size_t>({cap, 37, text.size() - pos});
            std::copy(text.begin() + pos, text.begin() + pos + take,
                      dst);
            pos += take;
            return take;
        },
        64);
    sd::EdgeListObject back;
    ASSERT_TRUE(back.parse(s, false));
    EXPECT_EQ(back, g);
}
