/**
 * @file
 * JSON record-array tests: the incremental parser's event stream, its
 * chunk-size invariance, binary/text round trips, error handling,
 * seeded mutation fuzzing of the whole-buffer and chunked parses, and
 * the end-to-end device path (JsonRecordsApp == host parse).
 */

#include <gtest/gtest.h>

#include <string>

#include "core/host_runtime.hh"
#include "core/standard_apps.hh"
#include "serde/json.hh"
#include "sim/rng.hh"
#include "text_mutants.hh"

namespace co = morpheus::core;
namespace ho = morpheus::host;
namespace sd = morpheus::serde;

namespace {

/** Build a deterministic random record array. */
sd::JsonRecordsObject
genRecords(std::uint64_t seed, std::uint32_t records)
{
    morpheus::sim::Rng rng(seed);
    sd::JsonRecordsObject o;
    for (std::uint32_t r = 0; r < records; ++r) {
        const auto n = 1 + rng.nextBelow(12);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (rng.nextBool(0.3)) {
                o.values.push_back(
                    static_cast<double>(rng.nextInRange(-9999, 9999)) /
                    100.0);
            } else {
                o.values.push_back(static_cast<double>(
                    rng.nextInRange(-100000, 100000)));
            }
        }
        o.recordOffsets.push_back(
            static_cast<std::uint32_t>(o.values.size()));
    }
    return o;
}

std::vector<std::uint8_t>
jsonText(const sd::JsonRecordsObject &o)
{
    sd::TextWriter w;
    o.serialize(w);
    return w.take();
}

}  // namespace

TEST(JsonParser, SimpleDocumentEventStream)
{
    const std::string doc = "[[1, 2.5], [3]]";
    sd::JsonRowParser p;
    p.feed(reinterpret_cast<const std::uint8_t *>(doc.data()),
           doc.size());
    p.finish();
    using E = sd::JsonRowParser::Event;
    EXPECT_EQ(p.next(), E::kBeginRecord);
    ASSERT_EQ(p.next(), E::kNumber);
    EXPECT_DOUBLE_EQ(p.value(), 1.0);
    ASSERT_EQ(p.next(), E::kNumber);
    EXPECT_DOUBLE_EQ(p.value(), 2.5);
    EXPECT_EQ(p.next(), E::kEndRecord);
    EXPECT_EQ(p.next(), E::kBeginRecord);
    ASSERT_EQ(p.next(), E::kNumber);
    EXPECT_DOUBLE_EQ(p.value(), 3.0);
    EXPECT_EQ(p.next(), E::kEndRecord);
    EXPECT_EQ(p.next(), E::kEndDocument);
    EXPECT_EQ(p.next(), E::kEndDocument);  // idempotent
}

TEST(JsonParser, EmptyDocumentAndEmptyRecords)
{
    const std::string doc = " [ ] ";
    sd::JsonRecordsObject o;
    ASSERT_TRUE(sd::parseJsonRecords(
        reinterpret_cast<const std::uint8_t *>(doc.data()), doc.size(),
        &o, nullptr));
    EXPECT_EQ(o.numRecords(), 0u);

    const std::string doc2 = "[[],[1],[]]";
    ASSERT_TRUE(sd::parseJsonRecords(
        reinterpret_cast<const std::uint8_t *>(doc2.data()),
        doc2.size(), &o, nullptr));
    EXPECT_EQ(o.numRecords(), 3u);
    EXPECT_EQ(o.values.size(), 1u);
}

TEST(JsonParser, MalformedDocumentsReportErrors)
{
    const char *bad[] = {"", "[", "[[1,]]", "[1]", "[[1] [2]]",
                         "{\"a\":1}", "[[1,2],"};
    for (const auto *doc : bad) {
        sd::JsonRecordsObject o;
        EXPECT_FALSE(sd::parseJsonRecords(
            reinterpret_cast<const std::uint8_t *>(doc),
            std::strlen(doc), &o, nullptr))
            << doc;
    }
}

TEST(JsonParser, NeedMoreDataUntilFinished)
{
    sd::JsonRowParser p;
    const std::string part1 = "[[12";
    p.feed(reinterpret_cast<const std::uint8_t *>(part1.data()),
           part1.size());
    using E = sd::JsonRowParser::Event;
    EXPECT_EQ(p.next(), E::kBeginRecord);
    EXPECT_EQ(p.next(), E::kNeedMoreData);  // "12" may continue
    const std::string part2 = "34]]";
    p.feed(reinterpret_cast<const std::uint8_t *>(part2.data()),
           part2.size());
    p.finish();
    ASSERT_EQ(p.next(), E::kNumber);
    EXPECT_DOUBLE_EQ(p.value(), 1234.0);  // number reassembled
    EXPECT_EQ(p.next(), E::kEndRecord);
    EXPECT_EQ(p.next(), E::kEndDocument);
}

TEST(JsonRecords, TextRoundTrip)
{
    const auto o = genRecords(1, 200);
    const auto text = jsonText(o);
    sd::JsonRecordsObject back;
    ASSERT_TRUE(sd::parseJsonRecords(text.data(), text.size(), &back,
                                     nullptr));
    ASSERT_EQ(back.recordOffsets, o.recordOffsets);
    ASSERT_EQ(back.values.size(), o.values.size());
    for (std::size_t i = 0; i < o.values.size(); ++i)
        EXPECT_NEAR(back.values[i], o.values[i], 1e-9);
}

TEST(JsonRecords, BinaryRoundTrip)
{
    const auto o = genRecords(2, 100);
    const auto bin = o.toBinary();
    EXPECT_EQ(bin.size(), o.objectBytes());
    EXPECT_EQ(sd::JsonRecordsObject::fromBinary(bin), o);
}

class JsonChunkProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(JsonChunkProperty, EventStreamInvariantUnderChunking)
{
    const auto o = genRecords(3, 150);
    const auto text = jsonText(o);

    // Reference: whole-buffer parse.
    sd::JsonRecordsObject ref;
    ASSERT_TRUE(sd::parseJsonRecords(text.data(), text.size(), &ref,
                                     nullptr));

    // Chunked parse.
    sd::JsonRowParser p;
    sd::JsonRecordsObject got;
    std::size_t pos = 0;
    bool done = false;
    while (!done) {
        using E = sd::JsonRowParser::Event;
        switch (p.next()) {
          case E::kBeginRecord:
            break;
          case E::kNumber:
            got.values.push_back(p.value());
            break;
          case E::kEndRecord:
            got.recordOffsets.push_back(
                static_cast<std::uint32_t>(got.values.size()));
            break;
          case E::kEndDocument:
            done = true;
            break;
          case E::kNeedMoreData: {
            ASSERT_LE(pos, text.size());
            const std::size_t take =
                std::min(GetParam(), text.size() - pos);
            if (take == 0) {
                p.finish();
            } else {
                p.feed(text.data() + pos, take);
                pos += take;
            }
            break;
          }
          case E::kError:
            FAIL() << p.message();
        }
    }
    EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(Chunks, JsonChunkProperty,
                         ::testing::Values(1, 2, 7, 64, 1000, 65536));

namespace {

/** Chunked parse of @p text by parseJsonRecords' rules, in random-size
 *  pieces; false where the parse fails. */
bool
parseJsonPieces(const std::vector<std::uint8_t> &text,
                morpheus::sim::Rng &rng, sd::JsonRecordsObject *out)
{
    morpheus::test::PieceFeeder feeder(text, rng);
    sd::JsonRowParser p;
    sd::JsonRecordsObject o;
    for (;;) {
        using E = sd::JsonRowParser::Event;
        switch (p.next()) {
          case E::kBeginRecord:
            break;
          case E::kNumber:
            o.values.push_back(p.value());
            break;
          case E::kEndRecord:
            o.recordOffsets.push_back(
                static_cast<std::uint32_t>(o.values.size()));
            break;
          case E::kEndDocument:
            *out = std::move(o);
            return true;
          case E::kNeedMoreData:
            if (!feeder.feed(p))
                return false;
            break;
          case E::kError:
            return false;
        }
    }
}

}  // namespace

TEST(JsonFuzz, TextMutantsFailOrParseAlikeInPieces)
{
    // Flip bits of, overwrite bytes of, insert quotes and separators
    // into, and truncate the text of generated record arrays.
    // parseJsonRecords and a JsonRowParser fed random-size pieces must
    // both fail, or both yield the same records.
    const std::vector<std::uint8_t> docs[] = {
        jsonText(genRecords(5, 30)),
        jsonText(genRecords(6, 8)),
        jsonText(genRecords(7, 90)),
    };
    morpheus::sim::Rng rng(35);
    unsigned parsed = 0;
    unsigned failed = 0;
    for (int round = 0; round < 3000; ++round) {
        std::vector<std::uint8_t> text = docs[rng.nextBelow(std::size(docs))];
        morpheus::test::mutateText(text, rng, "\",:[]{} \n");
        sd::JsonRecordsObject whole;
        const bool whole_ok = sd::parseJsonRecords(text.data(), text.size(),
                                                   &whole, nullptr);
        sd::JsonRecordsObject pieces;
        ASSERT_EQ(parseJsonPieces(text, rng, &pieces), whole_ok) << round;
        if (!whole_ok) {
            ++failed;
            continue;
        }
        ++parsed;
        EXPECT_EQ(pieces.recordOffsets, whole.recordOffsets) << round;
        EXPECT_TRUE(morpheus::test::sameBits(pieces.values, whole.values))
            << round;
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(failed, 0u);
}

TEST(JsonRecords, CostAccountsEveryByteOnce)
{
    const auto o = genRecords(4, 50);
    const auto text = jsonText(o);
    sd::ParseCost cost;
    sd::JsonRecordsObject back;
    ASSERT_TRUE(sd::parseJsonRecords(text.data(), text.size(), &back,
                                     &cost));
    EXPECT_LE(cost.bytes, text.size());
    EXPECT_GE(cost.bytes, text.size() / 2);
    EXPECT_EQ(cost.floatValues, o.values.size());
}

TEST(JsonEndToEnd, DeviceAppMatchesHostParse)
{
    // Full Morpheus path: the JSON document lives on flash, the
    // JsonRecordsApp deserializes it on the embedded cores, and the
    // DMA buffer decodes to exactly the host-parsed object.
    ho::HostSystem sys;
    co::MorpheusDeviceRuntime device(sys.ssd());
    co::NvmeP2p p2p(sys);
    co::MorpheusRuntime runtime(sys, device, p2p);
    const auto images = co::StandardImages::make();

    const auto o = genRecords(5, 4000);
    const auto text = jsonText(o);
    const auto file = sys.createFile("data.json", text);

    sd::JsonRecordsObject host_parsed;
    ASSERT_TRUE(sd::parseJsonRecords(text.data(), text.size(),
                                     &host_parsed, nullptr));

    const auto stream = runtime.streamCreate(file, file.readyAt);
    const auto target =
        runtime.hostTarget(host_parsed.objectBytes());
    const auto res = runtime.invoke(images.jsonRecords, stream, target,
                                    file.readyAt);
    EXPECT_EQ(res.returnValue, host_parsed.numRecords());
    EXPECT_GT(res.elapsed(), 0u);

    const auto bin = sys.mem().store().readVec(
        target.addr,
        static_cast<std::size_t>(host_parsed.objectBytes()));
    EXPECT_EQ(sd::JsonRecordsObject::fromBinary(bin), host_parsed);
}

TEST(JsonEndToEnd, DeviceChargesParseWorkToTheCore)
{
    ho::HostSystem sys;
    co::MorpheusDeviceRuntime device(sys.ssd());
    co::NvmeP2p p2p(sys);
    co::MorpheusRuntime runtime(sys, device, p2p);
    const auto images = co::StandardImages::make();

    const auto o = genRecords(6, 3000);
    const auto text = jsonText(o);
    const auto file = sys.createFile("big.json", text);
    const auto stream = runtime.streamCreate(file, file.readyAt);
    const auto target = runtime.hostTarget(o.objectBytes() + 4096);
    runtime.invoke(images.jsonRecords, stream, target, file.readyAt);

    // The instance mapped to core 1 (first instance id); it must have
    // executed at least a cycle per input byte.
    EXPECT_GT(sys.ssd().core(1).cyclesExecuted(),
              text.size() / 2);
}

#include "workloads/runner.hh"

TEST(JsonWorkload, AllModesValidate)
{
    const auto &app = morpheus::workloads::findApp("jsonreduce");
    for (const auto mode :
         {morpheus::workloads::ExecutionMode::kBaseline,
          morpheus::workloads::ExecutionMode::kMorpheus}) {
        morpheus::workloads::RunOptions o;
        o.mode = mode;
        o.scale = 0.05;
        const auto m = morpheus::workloads::runWorkload(app, o);
        EXPECT_TRUE(m.validated) << static_cast<int>(mode);
    }
}

TEST(JsonWorkload, FpuDecidesWhetherJsonOffloadPays)
{
    // Every JSON cell converts through the floating-point path, so
    // the FPU-less cores lose (the SpMV effect writ large) while the
    // paper's predicted FPU-equipped next generation wins.
    const auto &app = morpheus::workloads::findApp("jsonreduce");
    morpheus::workloads::RunOptions b;
    b.mode = morpheus::workloads::ExecutionMode::kBaseline;
    b.scale = 0.1;
    auto m = b;
    m.mode = morpheus::workloads::ExecutionMode::kMorpheus;
    const auto rb = morpheus::workloads::runWorkload(app, b);
    const auto r_soft = morpheus::workloads::runWorkload(app, m);
    m.sys.ssd.core.hasFpu = true;
    const auto r_fpu = morpheus::workloads::runWorkload(app, m);
    EXPECT_GT(r_soft.deserTime, rb.deserTime);  // soft float loses
    EXPECT_LT(r_fpu.deserTime, rb.deserTime);   // hardware FP wins
}
