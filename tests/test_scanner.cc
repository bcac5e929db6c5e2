/**
 * @file
 * Scanner tests, including the chunk-boundary property that makes
 * StorageApps correct: a StreamingScanner fed arbitrary chunk sizes
 * must produce exactly the same token stream as one contiguous scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "serde/scanner.hh"
#include "serde/writer.hh"
#include "sim/rng.hh"

namespace sd = morpheus::serde;

namespace {

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/** Collect all ints via TextScanner. */
std::vector<std::int64_t>
scanAll(const std::vector<std::uint8_t> &data)
{
    sd::TextScanner s(data.data(), data.size());
    std::vector<std::int64_t> out;
    std::int64_t v = 0;
    while (s.nextInt64(&v))
        out.push_back(v);
    return out;
}

/** A refill serving @p data in pieces of at most @p piece bytes. */
sd::StreamingScanner::Refill
chunked(const std::vector<std::uint8_t> &data, std::size_t piece)
{
    return [&data, piece, pos = std::size_t(0)](
               std::uint8_t *dst, std::size_t cap) mutable {
        const std::size_t take = std::min({cap, piece, data.size() - pos});
        std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos),
                  data.begin() + static_cast<std::ptrdiff_t>(pos + take),
                  dst);
        pos += take;
        return take;
    };
}

/** Drain @p s with nextInt64s() runs of at most @p max tokens. */
std::vector<std::int64_t>
drainRuns(sd::StreamingScanner &s, std::size_t max)
{
    std::vector<std::int64_t> out;
    std::vector<std::int64_t> run(max);
    for (;;) {
        const std::size_t n = s.nextInt64s(run.data(), max);
        out.insert(out.end(), run.begin(),
                   run.begin() + static_cast<std::ptrdiff_t>(n));
        if (n < max)
            return out;
    }
}

void
expectSameCost(const sd::ParseCost &a, const sd::ParseCost &b)
{
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.intValues, b.intValues);
    EXPECT_EQ(a.floatValues, b.floatValues);
    EXPECT_EQ(a.floatOps, b.floatOps);
}

/**
 * Ints with every separator, malformed tokens (letters, bare signs,
 * trailing junk, values outside int64_t) and long digit runs that
 * split across small chunks.
 */
std::vector<std::uint8_t>
mixedTokens()
{
    morpheus::sim::Rng rng(5);
    static const char *const kJunk[] = {
        "abc", "-", "+", "12x", "x9", "99999999999999999999",
        "-9223372036854775809", "9223372036854775808",
        "000000000000000000000000042", "-0"};
    std::string text;
    for (int i = 0; i < 400; ++i) {
        if (rng.nextBool(0.2))
            text += kJunk[rng.nextBelow(std::size(kJunk))];
        else
            text += std::to_string(rng.nextInRange(-1000000000, 1000000000));
        static const char *const kSep[] = {" ", "\n", ", ", "\t", "\r\n"};
        text += kSep[rng.nextBelow(std::size(kSep))];
    }
    return bytes(text);
}

}  // namespace

TEST(TextScanner, ReadsSequence)
{
    const auto data = bytes("1 2 3\n-4,5");
    EXPECT_EQ(scanAll(data),
              (std::vector<std::int64_t>{1, 2, 3, -4, 5}));
}

TEST(TextScanner, SkipsMalformedTokens)
{
    const auto data = bytes("1 abc 2 x9x 3");
    // "abc" skipped; "x9x" starts with non-digit so it is skipped too.
    EXPECT_EQ(scanAll(data), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(TextScanner, AtEndConsumesTrailingSeparators)
{
    const auto data = bytes("7   \n\n ");
    sd::TextScanner s(data.data(), data.size());
    std::int64_t v = 0;
    EXPECT_TRUE(s.nextInt64(&v));
    EXPECT_TRUE(s.atEnd());
}

TEST(TextScanner, MixedNumbers)
{
    const auto data = bytes("1 2.5 -3 4e1");
    sd::TextScanner s(data.data(), data.size());
    double v = 0.0;
    bool is_float = false;
    ASSERT_TRUE(s.nextNumber(&v, &is_float));
    EXPECT_FALSE(is_float);
    EXPECT_DOUBLE_EQ(v, 1.0);
    ASSERT_TRUE(s.nextNumber(&v, &is_float));
    EXPECT_TRUE(is_float);
    EXPECT_DOUBLE_EQ(v, 2.5);
    ASSERT_TRUE(s.nextNumber(&v, &is_float));
    EXPECT_FALSE(is_float);
    EXPECT_DOUBLE_EQ(v, -3.0);
    ASSERT_TRUE(s.nextNumber(&v, &is_float));
    EXPECT_TRUE(is_float);
    EXPECT_DOUBLE_EQ(v, 40.0);
    EXPECT_FALSE(s.nextNumber(&v, &is_float));
}

TEST(StreamingScanner, MatchesContiguousScan)
{
    const auto data = bytes("10 20 30 40 50 60 70 80 90 100");
    std::size_t pos = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take =
                std::min(cap, data.size() - pos);
            std::copy(data.begin() + pos, data.begin() + pos + take,
                      dst);
            pos += take;
            return take;
        },
        7);  // tiny chunks to force token splits
    std::vector<std::int64_t> out;
    std::int64_t v = 0;
    while (s.nextInt64(&v))
        out.push_back(v);
    EXPECT_EQ(out, scanAll(data));
}

/** Property: every chunk size yields the identical token stream. */
class ChunkSizeProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ChunkSizeProperty, TokenStreamInvariantUnderChunking)
{
    // Deterministic pseudo-random mix of separators and signed ints.
    morpheus::sim::Rng rng(99);
    std::string text;
    std::vector<std::int64_t> expected;
    for (int i = 0; i < 500; ++i) {
        const std::int64_t v = rng.nextInRange(-1000000, 1000000);
        expected.push_back(v);
        text += std::to_string(v);
        switch (rng.nextBelow(4)) {
          case 0: text += ' '; break;
          case 1: text += '\n'; break;
          case 2: text += ", "; break;
          default: text += "\t"; break;
        }
    }
    const auto data = bytes(text);

    std::size_t pos = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take =
                std::min({cap, GetParam(), data.size() - pos});
            std::copy(data.begin() + pos, data.begin() + pos + take,
                      dst);
            pos += take;
            return take;
        },
        GetParam());
    std::vector<std::int64_t> out;
    std::int64_t v = 0;
    while (s.nextInt64(&v))
        out.push_back(v);
    EXPECT_EQ(out, expected);
}

TEST_P(ChunkSizeProperty, OutOfRangeTokensAreSkipped)
{
    const auto data = bytes("1 99999999999999999999 2\n"
                            "-9223372036854775809 3 9223372036854775808,4 "
                            "123456789012345678901234567890");
    sd::StreamingScanner s(chunked(data, GetParam()), GetParam());
    std::vector<std::int64_t> out;
    std::int64_t v = 0;
    while (s.nextInt64(&v))
        out.push_back(v);
    EXPECT_EQ(out, (std::vector<std::int64_t>{1, 2, 3, 4}));
    EXPECT_EQ(out, scanAll(data));
    sd::TextScanner ref(data.data(), data.size());
    while (ref.nextInt64(&v)) {
    }
    expectSameCost(s.cost(), ref.cost());
}

TEST_P(ChunkSizeProperty, RunsMatchSingleTokens)
{
    const auto data = mixedTokens();
    sd::StreamingScanner single(chunked(data, GetParam()), GetParam());
    std::vector<std::int64_t> want;
    std::int64_t v = 0;
    while (single.nextInt64(&v))
        want.push_back(v);
    for (const std::size_t max : {1, 2, 3, 7, 64, 1000}) {
        sd::StreamingScanner runs(chunked(data, GetParam()), GetParam());
        EXPECT_EQ(drainRuns(runs, max), want) << "max " << max;
        expectSameCost(runs.cost(), single.cost());
        EXPECT_EQ(runs.refills(), single.refills()) << "max " << max;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChunkSizeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 64, 511,
                                           4096));

TEST(StreamingScanner, IncrementalCarriesSplitTokens)
{
    // Feed "123" then "45 6": the first token is 12345, not 123.
    std::vector<std::vector<std::uint8_t>> chunks = {bytes("123"),
                                                     bytes("45 6")};
    std::size_t which = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) -> std::size_t {
            if (which >= chunks.size())
                return 0;
            const auto &c = chunks[which];
            EXPECT_LE(c.size(), cap);
            std::copy(c.begin(), c.end(), dst);
            ++which;
            return c.size();
        },
        16, /*incremental=*/true);

    std::int64_t v = 0;
    // First call: chunk "123" arrives; the token may continue, so no
    // token is reported yet...
    // (both chunks get pulled by the scanner's internal loop, so the
    // value is complete.)
    ASSERT_TRUE(s.nextInt64(&v));
    EXPECT_EQ(v, 12345);
    // "6" is the trailing token; the stream is still open so it is not
    // parseable yet.
    EXPECT_FALSE(s.nextInt64(&v));
    s.setEndOfStream();
    ASSERT_TRUE(s.nextInt64(&v));
    EXPECT_EQ(v, 6);
    EXPECT_TRUE(s.atEnd());
}

TEST(StreamingScanner, IncrementalResumesAfterDryRefill)
{
    std::vector<std::uint8_t> pending;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take = std::min(cap, pending.size());
            std::copy(pending.begin(), pending.begin() + take, dst);
            pending.erase(pending.begin(), pending.begin() + take);
            return take;
        },
        16, /*incremental=*/true);

    std::int64_t v = 0;
    EXPECT_FALSE(s.nextInt64(&v));  // nothing yet
    pending = bytes("42 ");
    ASSERT_TRUE(s.nextInt64(&v));   // resumes after data arrives
    EXPECT_EQ(v, 42);
}

TEST(StreamingScanner, Int64ExtremesRoundTrip)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    sd::TextWriter w;
    for (const std::int64_t v : {kMin, kMax, kMin + 1, std::int64_t(0)}) {
        w.appendInt64(v);
        w.appendLiteral(" ");
    }
    const std::vector<std::int64_t> want = {kMin, kMax, kMin + 1, 0};
    EXPECT_EQ(scanAll(w.bytes()), want);
    for (const std::size_t piece : {1, 5, 4096}) {
        sd::StreamingScanner s(chunked(w.bytes(), piece), piece);
        std::vector<std::int64_t> got;
        std::int64_t v = 0;
        while (s.nextInt64(&v))
            got.push_back(v);
        EXPECT_EQ(got, want) << "piece " << piece;
    }
}

TEST(StreamingScanner, IncrementalRunsMatchSingleTokens)
{
    // Deliver the text in uneven pieces, with the source running dry
    // between them; read runs until one comes up short, then deliver
    // more. Tokens split at a piece boundary wait for the next piece.
    const auto data = mixedTokens();
    struct Side
    {
        std::vector<std::uint8_t> pending;
        std::unique_ptr<sd::StreamingScanner> s;
        std::vector<std::int64_t> got;
    };
    for (const std::size_t max : {1, 2, 5, 64}) {
        Side single, runs;
        for (Side *side : {&single, &runs}) {
            side->s = std::make_unique<sd::StreamingScanner>(
                [side](std::uint8_t *dst, std::size_t cap) {
                    const std::size_t take =
                        std::min(cap, side->pending.size());
                    std::copy(side->pending.begin(),
                              side->pending.begin() +
                                  static_cast<std::ptrdiff_t>(take),
                              dst);
                    side->pending.erase(
                        side->pending.begin(),
                        side->pending.begin() +
                            static_cast<std::ptrdiff_t>(take));
                    return take;
                },
                16, /*incremental=*/true);
        }
        morpheus::sim::Rng rng(max);
        std::size_t pos = 0;
        bool ended = false;
        while (!ended) {
            const std::size_t take =
                std::min<std::size_t>(1 + rng.nextBelow(40),
                                      data.size() - pos);
            for (Side *side : {&single, &runs})
                side->pending.insert(
                    side->pending.end(),
                    data.begin() + static_cast<std::ptrdiff_t>(pos),
                    data.begin() + static_cast<std::ptrdiff_t>(pos + take));
            pos += take;
            if (pos == data.size()) {
                single.s->setEndOfStream();
                runs.s->setEndOfStream();
                ended = true;
            }
            std::int64_t v = 0;
            while (single.s->nextInt64(&v))
                single.got.push_back(v);
            const auto run = drainRuns(*runs.s, max);
            runs.got.insert(runs.got.end(), run.begin(), run.end());
            ASSERT_EQ(runs.got, single.got) << "max " << max;
            expectSameCost(runs.s->cost(), single.s->cost());
            ASSERT_EQ(runs.s->refills(), single.s->refills());
        }
        EXPECT_EQ(single.got, scanAll(data));
    }
}

TEST(StreamingScanner, CostMatchesContiguous)
{
    const auto data = bytes("11 22 33 44");
    sd::TextScanner ref(data.data(), data.size());
    std::int64_t v = 0;
    while (ref.nextInt64(&v)) {
    }
    ref.atEnd();

    std::size_t pos = 0;
    sd::StreamingScanner s(
        [&](std::uint8_t *dst, std::size_t cap) {
            const std::size_t take = std::min(cap, data.size() - pos);
            std::copy(data.begin() + pos, data.begin() + pos + take,
                      dst);
            pos += take;
            return take;
        },
        3);
    while (s.nextInt64(&v)) {
    }
    EXPECT_EQ(s.cost().bytes, ref.cost().bytes);
    EXPECT_EQ(s.cost().intValues, ref.cost().intValues);
}

TEST(ScannerFuzz, RandomBytesNeverCrashAndCostIsBounded)
{
    // Arbitrary byte soup: the scanner must terminate, never read out
    // of bounds, and account every byte at most once.
    morpheus::sim::Rng rng(12345);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::uint8_t> junk(rng.nextBelow(2000) + 1);
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.nextBelow(256));
        sd::TextScanner s(junk.data(), junk.size());
        std::int64_t v = 0;
        std::size_t parsed = 0;
        while (s.nextInt64(&v))
            ++parsed;
        EXPECT_LE(s.cost().bytes, junk.size());
        EXPECT_LE(parsed, junk.size());
    }
}

TEST(ScannerFuzz, StreamingMatchesContiguousOnRandomBytes)
{
    morpheus::sim::Rng rng(777);
    for (int round = 0; round < 20; ++round) {
        std::vector<std::uint8_t> junk(rng.nextBelow(3000) + 10);
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.nextBelow(96) + 32);
        std::vector<std::int64_t> ref;
        {
            sd::TextScanner s(junk.data(), junk.size());
            std::int64_t v = 0;
            while (s.nextInt64(&v))
                ref.push_back(v);
        }
        std::size_t pos = 0;
        const std::size_t chunk = rng.nextBelow(64) + 1;
        sd::StreamingScanner s(
            [&](std::uint8_t *dst, std::size_t cap) {
                const std::size_t take =
                    std::min({cap, chunk, junk.size() - pos});
                std::copy(junk.begin() + pos,
                          junk.begin() + pos + take, dst);
                pos += take;
                return take;
            },
            128);
        std::vector<std::int64_t> got;
        std::int64_t v = 0;
        while (s.nextInt64(&v))
            got.push_back(v);
        EXPECT_EQ(got, ref) << "round " << round;

        // The same stream read in runs of a random length.
        const std::size_t max = rng.nextBelow(16) + 1;
        sd::StreamingScanner runs(chunked(junk, chunk), 128);
        EXPECT_EQ(drainRuns(runs, max), ref) << "round " << round;
        expectSameCost(runs.cost(), s.cost());
    }
}
