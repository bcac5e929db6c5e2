/**
 * @file
 * TextWriter unit tests (serialization half of serde).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "serde/writer.hh"

namespace sd = morpheus::serde;

namespace {

std::string
asString(const sd::TextWriter &w)
{
    return std::string(w.bytes().begin(), w.bytes().end());
}

}  // namespace

TEST(TextWriter, Integers)
{
    sd::TextWriter w;
    w.appendInt64(0);
    w.space();
    w.appendInt64(-1);
    w.space();
    w.appendInt64(123456789);
    EXPECT_EQ(asString(w), "0 -1 123456789");
}

TEST(TextWriter, Int64Extremes)
{
    sd::TextWriter w;
    w.appendInt64(std::numeric_limits<std::int64_t>::max());
    w.space();
    w.appendInt64(std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(asString(w),
              "9223372036854775807 -9223372036854775808");
}

TEST(TextWriter, Doubles)
{
    sd::TextWriter w;
    w.appendDouble(3.25, 2);
    w.space();
    w.appendDouble(-0.5, 1);
    EXPECT_EQ(asString(w), "3.25 -0.5");
}

TEST(TextWriter, LiteralAndLayoutHelpers)
{
    sd::TextWriter w;
    w.appendLiteral("x=");
    w.appendInt64(7);
    w.newline();
    EXPECT_EQ(asString(w), "x=7\n");
    EXPECT_EQ(w.size(), 4u);
}

TEST(TextWriter, TakeMovesBufferOut)
{
    sd::TextWriter w;
    w.appendInt64(42);
    const auto taken = w.take();
    EXPECT_EQ(taken.size(), 2u);
    EXPECT_EQ(w.size(), 0u);
}

TEST(TextWriter, MatchesPrintfByteForByte)
{
    // The text inputs must not change with the formatter: appendDouble
    // prints what printf("%.*f") prints and appendInt64 what
    // printf("%" PRId64) prints, for random bit patterns (every
    // exponent, NaN payloads), workload-like magnitudes, and the
    // edges, at every supported precision.
    using lim = std::numeric_limits<double>;
    std::vector<double> doubles = {
        0.0, -0.0, lim::infinity(), -lim::infinity(), lim::quiet_NaN(),
        -lim::quiet_NaN(), 5e-324, -5e-324, lim::min(), lim::max(),
        -lim::max(), 1e300, -1e300, 0.5, 1.5, 2.5, -2.5, 0.125, 0.05,
        1e-7, 123456789.987654321, 9007199254740993.0};
    const std::size_t edges = doubles.size();
    std::mt19937_64 rng(2016);
    std::uniform_real_distribution<double> workload(-1e6, 1e6);
    constexpr int kRandom = 2'000'000;
    for (int i = 0; i < kRandom; ++i) {
        const std::uint64_t bits = rng();
        double v;
        if (i % 2 == 0) {
            std::memcpy(&v, &bits, sizeof v);
        } else {
            // Round to a few decimals so ties at the cut are common.
            v = std::round(workload(rng) * 1000.0) /
                std::pow(10.0, static_cast<double>(bits % 7));
        }
        doubles.push_back(v);
    }

    std::vector<char> expect(512);
    std::size_t mismatches = 0;
    const auto check = [&](const sd::TextWriter &w, int n,
                           const char *what) {
        ASSERT_GT(n, 0);
        const std::string got = asString(w);
        if (got == std::string(expect.data(), static_cast<std::size_t>(n)))
            return;
        if (mismatches++ < 5) {
            ADD_FAILURE() << what << ": got '" << got << "', printf '"
                          << expect.data() << "'";
        }
    };
    for (std::size_t i = 0; i < doubles.size(); ++i) {
        // Edge values at every precision, the random ones at one each.
        const bool edge = i < edges;
        for (int p = edge ? 0 : static_cast<int>(i % 18);
             p <= (edge ? 17 : static_cast<int>(i % 18)); ++p) {
            sd::TextWriter w;
            w.appendDouble(doubles[i], p);
            check(w,
                  std::snprintf(expect.data(), expect.size(), "%.*f", p,
                                doubles[i]),
                  "double");
        }
    }

    std::vector<std::int64_t> ints = {
        0, -1, 1, std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()};
    for (int i = 0; i < 100'000; ++i) {
        const std::uint64_t bits = rng();
        // Every magnitude: shift the random word down 0..63 bits.
        ints.push_back(static_cast<std::int64_t>(bits) >> (bits % 64));
    }
    for (const std::int64_t v : ints) {
        sd::TextWriter w;
        w.appendInt64(v);
        check(w,
              std::snprintf(expect.data(), expect.size(), "%" PRId64, v),
              "int64");
    }
    EXPECT_EQ(mismatches, 0u);
}
