/**
 * @file
 * Unit tests for low-level ASCII number parsing and cost accounting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serde/parse.hh"

namespace sd = morpheus::serde;

namespace {

const std::uint8_t *
bytes(const std::string &s)
{
    return reinterpret_cast<const std::uint8_t *>(s.data());
}

}  // namespace

TEST(Parse, SeparatorClassification)
{
    EXPECT_TRUE(sd::isSeparator(' '));
    EXPECT_TRUE(sd::isSeparator('\t'));
    EXPECT_TRUE(sd::isSeparator('\n'));
    EXPECT_TRUE(sd::isSeparator('\r'));
    EXPECT_TRUE(sd::isSeparator(','));
    EXPECT_TRUE(sd::isSeparator('\0'));  // NVMe block padding
    EXPECT_FALSE(sd::isSeparator('0'));
    EXPECT_FALSE(sd::isSeparator('-'));
    EXPECT_FALSE(sd::isSeparator('.'));
}

TEST(Parse, SkipSeparatorsCountsBytes)
{
    const std::string s = "  \t\n,42";
    sd::ParseCost cost;
    const auto *p = sd::skipSeparators(bytes(s), bytes(s) + s.size(),
                                       cost);
    EXPECT_EQ(*p, '4');
    EXPECT_EQ(cost.bytes, 5u);
}

TEST(Parse, Int64Basic)
{
    const std::string s = "12345 ";
    sd::ParseCost cost;
    std::int64_t v = 0;
    const auto *p =
        sd::parseInt64(bytes(s), bytes(s) + s.size(), &v, cost);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(v, 12345);
    EXPECT_EQ(cost.intValues, 1u);
    EXPECT_EQ(cost.bytes, 5u);
    EXPECT_EQ(*p, ' ');
}

TEST(Parse, Int64Signs)
{
    sd::ParseCost cost;
    std::int64_t v = 0;
    const std::string neg = "-987";
    ASSERT_NE(sd::parseInt64(bytes(neg), bytes(neg) + neg.size(), &v,
                             cost),
              nullptr);
    EXPECT_EQ(v, -987);
    const std::string pos = "+55";
    ASSERT_NE(sd::parseInt64(bytes(pos), bytes(pos) + pos.size(), &v,
                             cost),
              nullptr);
    EXPECT_EQ(v, 55);
}

TEST(Parse, Int64RejectsNonNumbers)
{
    sd::ParseCost cost;
    std::int64_t v = 0;
    const std::string junk = "abc";
    EXPECT_EQ(sd::parseInt64(bytes(junk), bytes(junk) + junk.size(), &v,
                             cost),
              nullptr);
    const std::string lone = "-";
    EXPECT_EQ(sd::parseInt64(bytes(lone), bytes(lone) + lone.size(), &v,
                             cost),
              nullptr);
    const std::string empty;
    EXPECT_EQ(sd::parseInt64(bytes(empty), bytes(empty), &v, cost),
              nullptr);
}

TEST(Parse, DoubleForms)
{
    sd::ParseCost cost;
    double v = 0.0;
    const std::string cases[] = {"3.5", "-0.25", "10", "2.5e2",
                                 "1e-3", "+.5"};
    const double expected[] = {3.5, -0.25, 10.0, 250.0, 0.001, 0.5};
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const auto &s = cases[i];
        ASSERT_NE(sd::parseDouble(bytes(s), bytes(s) + s.size(), &v,
                                  cost),
                  nullptr)
            << s;
        EXPECT_NEAR(v, expected[i], 1e-12) << s;
    }
    EXPECT_EQ(cost.floatValues, std::size(cases));
}

TEST(Parse, DoubleTrailingExponentLetterNotConsumed)
{
    // "2e" is the number 2 followed by a stray 'e'.
    sd::ParseCost cost;
    double v = 0.0;
    const std::string s = "2e x";
    const auto *p =
        sd::parseDouble(bytes(s), bytes(s) + s.size(), &v, cost);
    ASSERT_NE(p, nullptr);
    EXPECT_DOUBLE_EQ(v, 2.0);
    EXPECT_EQ(*p, 'e');
}

TEST(Parse, DoubleIsCorrectlyRounded)
{
    // Generator-style values (k/100 printed with 2, 4 or 6 decimals)
    // must read back as the double strtod gives, not a few ulps off.
    for (const char *fmt : {"%.2f", "%.4f", "%.6f"}) {
        for (int k = -20000; k <= 20000; k += 7) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), fmt, k / 100.0);
            const std::string s = buf;
            sd::ParseCost cost;
            double v = 0.0;
            ASSERT_EQ(sd::parseDouble(bytes(s), bytes(s) + s.size(), &v,
                                      cost),
                      bytes(s) + s.size())
                << s;
            EXPECT_EQ(v, std::strtod(buf, nullptr)) << s;
        }
    }
}

TEST(Parse, DoubleEdgeTokens)
{
    sd::ParseCost cost;
    double v = 0.0;
    const auto parse = [&](const std::string &s) {
        return sd::parseDouble(bytes(s), bytes(s) + s.size(), &v, cost);
    };
    // A mantissa needs at least one digit.
    EXPECT_EQ(parse("."), nullptr);
    EXPECT_EQ(parse("-."), nullptr);
    EXPECT_EQ(parse("+."), nullptr);
    // A leading '+' and a missing integer part are accepted.
    const std::string half = "+.5";
    EXPECT_EQ(parse(half), bytes(half) + half.size());
    EXPECT_EQ(v, 0.5);
    // An 'e' without exponent digits ends the number before it.
    const std::string two = "2e";
    EXPECT_EQ(parse(two), bytes(two) + 1);
    EXPECT_EQ(v, 2.0);
    // Values outside double's range are malformed tokens, as values
    // outside int64_t are for parseInt64.
    EXPECT_EQ(parse("1e400"), nullptr);
    EXPECT_EQ(parse("-1e400"), nullptr);
    EXPECT_EQ(parse("1e-400"), nullptr);
    // A long mantissa rounds once, as strtod does.
    const std::string longest = "1234567890.12345678901234567890123";
    EXPECT_EQ(parse(longest), bytes(longest) + longest.size());
    EXPECT_EQ(v, std::strtod(longest.c_str(), nullptr));
    // The rejected tokens charged nothing.
    EXPECT_EQ(cost.floatValues, 3u);
}

TEST(Parse, FloatOpsCountedOnlyForDoubles)
{
    sd::ParseCost cost;
    std::int64_t i = 0;
    const std::string si = "123456";
    sd::parseInt64(bytes(si), bytes(si) + si.size(), &i, cost);
    EXPECT_EQ(cost.floatOps, 0u);

    double d = 0.0;
    const std::string sf = "123.456";
    sd::parseDouble(bytes(sf), bytes(sf) + sf.size(), &d, cost);
    EXPECT_GT(cost.floatOps, 0u);
}

TEST(Parse, TokenLooksFloat)
{
    const std::string f1 = "3.5 ", f2 = "1e5 ", i1 = "42 ", i2 = "-7\n";
    EXPECT_TRUE(sd::tokenLooksFloat(bytes(f1), bytes(f1) + f1.size()));
    EXPECT_TRUE(sd::tokenLooksFloat(bytes(f2), bytes(f2) + f2.size()));
    EXPECT_FALSE(sd::tokenLooksFloat(bytes(i1), bytes(i1) + i1.size()));
    EXPECT_FALSE(sd::tokenLooksFloat(bytes(i2), bytes(i2) + i2.size()));
}

TEST(Parse, CostAdds)
{
    sd::ParseCost a, b;
    a.bytes = 10;
    a.intValues = 2;
    b.bytes = 5;
    b.floatValues = 1;
    b.floatOps = 7;
    a += b;
    EXPECT_EQ(a.bytes, 15u);
    EXPECT_EQ(a.intValues, 2u);
    EXPECT_EQ(a.floatValues, 1u);
    EXPECT_EQ(a.floatOps, 7u);
}
