/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace st = morpheus::sim::stats;

TEST(Counter, AccumulatesAndResets)
{
    st::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatSet, VisitIsSortedAndComplete)
{
    st::StatSet set;
    st::Counter b, a;
    ++a;
    b += 2;
    set.registerCounter("zeta", &b);
    set.registerCounter("alpha", &a);
    std::ostringstream os;
    set.visit([&](const std::string &name, std::uint64_t v) {
        os << name << " " << v << "\n";
    });
    EXPECT_EQ(os.str(), "alpha 1\nzeta 2\n");
    EXPECT_EQ(set.counterValue("zeta"), 2u);
    EXPECT_EQ(set.counterValue("missing"), 0u);
}

TEST(StatSet, VisitReadsLiveCountersAndGauges)
{
    st::StatSet set;
    st::Counter reads;
    std::uint64_t level = 5;
    reads += 7;
    set.registerCounter("reads", &reads);
    set.registerGauge("level", [&level] { return level; });

    // Counters and gauges share one name-ordered walk; two walks of
    // the same set are identical.
    auto walk = [&set] {
        std::vector<std::pair<std::string, std::uint64_t>> rows;
        set.visit([&](const std::string &name, std::uint64_t v) {
            rows.emplace_back(name, v);
        });
        return rows;
    };
    using Rows = std::vector<std::pair<std::string, std::uint64_t>>;
    EXPECT_EQ(walk(), (Rows{{"level", 5}, {"reads", 7}}));
    EXPECT_EQ(walk(), walk());

    // The set holds live readers: changes show up in the next walk.
    reads.reset();
    level = 9;
    EXPECT_EQ(walk(), (Rows{{"level", 9}, {"reads", 0}}));
    EXPECT_EQ(set.counterValue("level"), 9u);
}

TEST(StatSetDeath, DuplicateNamePanics)
{
    st::StatSet set;
    st::Counter c;
    set.registerCounter("x", &c);
    EXPECT_DEATH(set.registerCounter("x", &c), "duplicate");
}
