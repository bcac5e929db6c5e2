/**
 * @file
 * CSV substrate tests: header handling (quoted names), numeric rows,
 * chunk invariance, binary round trip, error handling, seeded mutation
 * fuzzing of the whole-buffer and chunked parses, and the end-to-end
 * device path (CsvTableApp == host parse).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/host_runtime.hh"
#include "core/standard_apps.hh"
#include "serde/csv.hh"
#include "sim/rng.hh"
#include "text_mutants.hh"

namespace co = morpheus::core;
namespace ho = morpheus::host;
namespace sd = morpheus::serde;

namespace {

sd::CsvTableObject
genTable(std::uint64_t seed, std::uint32_t rows, std::uint32_t cols)
{
    morpheus::sim::Rng rng(seed);
    sd::CsvTableObject t;
    for (std::uint32_t c = 0; c < cols; ++c)
        t.columns.push_back("col_" + std::to_string(c));
    for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
            if (rng.nextBool(0.25)) {
                t.values.push_back(
                    static_cast<double>(rng.nextInRange(-9999, 9999)) /
                    100.0);
            } else {
                t.values.push_back(static_cast<double>(
                    rng.nextInRange(-100000, 100000)));
            }
        }
    }
    return t;
}

std::vector<std::uint8_t>
csvText(const sd::CsvTableObject &t)
{
    sd::TextWriter w;
    t.serialize(w);
    return w.take();
}

bool
parseStr(const std::string &doc, sd::CsvTableObject *out)
{
    return sd::parseCsvTable(
        reinterpret_cast<const std::uint8_t *>(doc.data()), doc.size(),
        out, nullptr);
}

}  // namespace

TEST(Csv, BasicDocument)
{
    sd::CsvTableObject t;
    ASSERT_TRUE(parseStr("a,b,c\n1,2,3\n4,5.5,-6\n", &t));
    EXPECT_EQ(t.columns,
              (std::vector<std::string>{"a", "b", "c"}));
    ASSERT_EQ(t.numRows(), 2u);
    EXPECT_DOUBLE_EQ(t.cell(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(t.cell(1, 1), 5.5);
    EXPECT_DOUBLE_EQ(t.cell(1, 2), -6.0);
}

TEST(Csv, QuotedHeadersAndCrLf)
{
    sd::CsvTableObject t;
    ASSERT_TRUE(parseStr("\"lat, deg\",\"lon\"\r\n1,2\r\n", &t));
    EXPECT_EQ(t.columns[0], "lat, deg");  // comma inside quotes
    EXPECT_EQ(t.columns[1], "lon");
    EXPECT_EQ(t.numRows(), 1u);
}

TEST(Csv, HeaderOnlyAndBlankLines)
{
    sd::CsvTableObject t;
    ASSERT_TRUE(parseStr("x,y\n", &t));
    EXPECT_EQ(t.numRows(), 0u);
    ASSERT_TRUE(parseStr("x,y\n\n1,2\n\n", &t));
    EXPECT_EQ(t.numRows(), 1u);
}

TEST(Csv, MissingNewlineAtEof)
{
    sd::CsvTableObject t;
    ASSERT_TRUE(parseStr("x,y\n1,2", &t));
    EXPECT_EQ(t.numRows(), 1u);
    EXPECT_DOUBLE_EQ(t.cell(0, 1), 2.0);
}

TEST(Csv, MalformedDocumentsRejected)
{
    sd::CsvTableObject t;
    EXPECT_FALSE(parseStr("", &t));            // no header
    EXPECT_FALSE(parseStr("a,b\n1\n", &t));    // ragged row
    EXPECT_FALSE(parseStr("a,b\n1,2,3\n", &t));
    EXPECT_FALSE(parseStr("a,b\n1,zz\n", &t)); // non-numeric cell
    EXPECT_FALSE(parseStr("a,b\n1,,3\n", &t)); // empty cell
}

TEST(Csv, TextRoundTrip)
{
    const auto t = genTable(1, 300, 5);
    const auto text = csvText(t);
    sd::CsvTableObject back;
    ASSERT_TRUE(sd::parseCsvTable(text.data(), text.size(), &back,
                                  nullptr));
    EXPECT_EQ(back.columns, t.columns);
    ASSERT_EQ(back.values.size(), t.values.size());
    for (std::size_t i = 0; i < t.values.size(); ++i)
        EXPECT_NEAR(back.values[i], t.values[i], 1e-9);
}

TEST(Csv, BinaryRoundTrip)
{
    const auto t = genTable(2, 100, 7);
    const auto bin = t.toBinary();
    EXPECT_EQ(bin.size(), t.objectBytes());
    EXPECT_EQ(sd::CsvTableObject::fromBinary(bin), t);
}

class CsvChunkProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CsvChunkProperty, EventStreamInvariantUnderChunking)
{
    const auto t = genTable(3, 200, 4);
    const auto text = csvText(t);
    sd::CsvTableObject ref;
    ASSERT_TRUE(sd::parseCsvTable(text.data(), text.size(), &ref,
                                  nullptr));

    sd::CsvRowParser p;
    sd::CsvTableObject got;
    std::size_t pos = 0;
    bool done = false;
    while (!done) {
        using E = sd::CsvRowParser::Event;
        switch (p.next()) {
          case E::kColumnName:
            got.columns.push_back(p.name());
            break;
          case E::kHeaderDone:
          case E::kEndRow:
            break;
          case E::kNumber:
            got.values.push_back(p.value());
            break;
          case E::kEndDocument:
            done = true;
            break;
          case E::kNeedMoreData: {
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

INSTANTIATE_TEST_SUITE_P(Chunks, CsvChunkProperty,
                         ::testing::Values(1, 3, 17, 256, 8192));

namespace {

/** Chunked parse of @p text by parseCsvTable's rules, in random-size
 *  pieces; false where the parse fails. */
bool
parseCsvPieces(const std::vector<std::uint8_t> &text,
               morpheus::sim::Rng &rng, sd::CsvTableObject *out)
{
    morpheus::test::PieceFeeder feeder(text, rng);
    sd::CsvRowParser p;
    sd::CsvTableObject t;
    std::size_t row_cells = 0;
    for (;;) {
        using E = sd::CsvRowParser::Event;
        switch (p.next()) {
          case E::kColumnName:
            t.columns.push_back(p.name());
            break;
          case E::kHeaderDone:
            break;
          case E::kNumber:
            t.values.push_back(p.value());
            ++row_cells;
            break;
          case E::kEndRow:
            if (row_cells != t.columns.size())
                return false;
            row_cells = 0;
            break;
          case E::kEndDocument:
            *out = std::move(t);
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

TEST(CsvFuzz, TextMutantsFailOrParseAlikeInPieces)
{
    // Flip bits of, overwrite bytes of, insert quotes and separators
    // into, and truncate the text of generated tables. parseCsvTable
    // and a CsvRowParser fed random-size pieces must both fail, or
    // both yield the same table.
    const std::vector<std::uint8_t> docs[] = {
        csvText(genTable(5, 40, 4)),
        csvText(genTable(6, 12, 9)),
        csvText(genTable(7, 80, 1)),
    };
    morpheus::sim::Rng rng(35);
    unsigned parsed = 0;
    unsigned failed = 0;
    for (int round = 0; round < 3000; ++round) {
        std::vector<std::uint8_t> text = docs[rng.nextBelow(std::size(docs))];
        morpheus::test::mutateText(text, rng, "\",\r\n");
        sd::CsvTableObject whole;
        const bool whole_ok =
            sd::parseCsvTable(text.data(), text.size(), &whole, nullptr);
        sd::CsvTableObject pieces;
        ASSERT_EQ(parseCsvPieces(text, rng, &pieces), whole_ok) << round;
        if (!whole_ok) {
            ++failed;
            continue;
        }
        ++parsed;
        EXPECT_EQ(pieces.columns, whole.columns) << round;
        EXPECT_TRUE(morpheus::test::sameBits(pieces.values, whole.values))
            << round;
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(failed, 0u);
}

TEST(CsvEndToEnd, DeviceAppMatchesHostParse)
{
    ho::HostSystem sys;
    co::MorpheusDeviceRuntime device(sys.ssd());
    co::NvmeP2p p2p(sys);
    co::MorpheusRuntime runtime(sys, device, p2p);
    const auto images = co::StandardImages::make();

    const auto t = genTable(4, 20000, 6);
    const auto text = csvText(t);
    const auto file = sys.createFile("table.csv", text);

    sd::CsvTableObject host_parsed;
    ASSERT_TRUE(sd::parseCsvTable(text.data(), text.size(),
                                  &host_parsed, nullptr));

    const auto stream = runtime.streamCreate(file, file.readyAt);
    const auto target =
        runtime.hostTarget(host_parsed.objectBytes());
    const auto res = runtime.invoke(images.csvTable, stream, target,
                                    file.readyAt);
    EXPECT_EQ(res.returnValue, host_parsed.numRows());

    const auto bin = sys.mem().store().readVec(
        target.addr,
        static_cast<std::size_t>(host_parsed.objectBytes()));
    EXPECT_EQ(sd::CsvTableObject::fromBinary(bin), host_parsed);
}

#include "workloads/runner.hh"

TEST(CsvWorkload, AllModesValidate)
{
    const auto &app = morpheus::workloads::findApp("csvstats");
    for (const auto mode :
         {morpheus::workloads::ExecutionMode::kBaseline,
          morpheus::workloads::ExecutionMode::kMorpheus}) {
        morpheus::workloads::RunOptions o;
        o.mode = mode;
        o.scale = 0.05;
        const auto m = morpheus::workloads::runWorkload(app, o);
        EXPECT_TRUE(m.validated) << static_cast<int>(mode);
        EXPECT_GT(m.deserTime, 0u);
    }
}
