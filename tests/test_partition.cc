/**
 * @file
 * Partition tests (the MPI file-per-rank layout): every shard is a
 * contiguous, balanced slice of the original, for each kind a
 * multi-rank app holds.
 */

#include <gtest/gtest.h>

#include "workloads/app_spec.hh"
#include "workloads/generators.hh"
#include "workloads/partition.hh"

namespace sd = morpheus::serde;
namespace wk = morpheus::workloads;

namespace {

/** Elements a partition splits: an edge list's edges or a CSV table's
 *  rows. */
std::size_t
elements(const wk::AnyObject &obj)
{
    if (const auto *g = std::get_if<sd::EdgeListObject>(&obj))
        return g->numEdges();
    return std::get<sd::CsvTableObject>(obj).numRows();
}

/** Elements [@p b, @p e) of @p obj, built element by element. */
wk::AnyObject
slice(const wk::AnyObject &obj, std::size_t b, std::size_t e)
{
    if (const auto *g = std::get_if<sd::EdgeListObject>(&obj)) {
        sd::EdgeListObject s;
        s.numVertices = g->numVertices;
        s.weighted = g->weighted;
        for (std::size_t i = b; i < e; ++i) {
            s.src.push_back(g->src[i]);
            s.dst.push_back(g->dst[i]);
            if (g->weighted)
                s.weight.push_back(g->weight[i]);
        }
        return s;
    }
    const auto &t = std::get<sd::CsvTableObject>(obj);
    const std::size_t cols = t.columns.size();
    sd::CsvTableObject s;
    s.columns = t.columns;
    for (std::size_t i = b * cols; i < e * cols; ++i)
        s.values.push_back(t.values[i]);
    return s;
}

/** Split @p obj into @p parts and expect the shards, in order, to be
 *  its consecutive slices, sized within one of each other with the
 *  larger ones first. */
void
expectContiguousSlices(const wk::AnyObject &obj, unsigned parts)
{
    const std::size_t total = elements(obj);
    const auto shards = wk::partitionObject(obj, parts);
    ASSERT_EQ(shards.size(), parts);
    std::size_t pos = 0;
    std::size_t prev = total;
    for (const wk::AnyObject &s : shards) {
        const std::size_t n = elements(s);
        EXPECT_GE(n, total / parts);
        EXPECT_LE(n, total / parts + 1);
        EXPECT_LE(n, prev);
        ASSERT_LE(pos + n, total);
        EXPECT_TRUE(s == slice(obj, pos, pos + n)) << "shard at " << pos;
        pos += n;
        prev = n;
    }
    EXPECT_EQ(pos, total);
}

}  // namespace

class PartitionParts : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PartitionParts, EdgeListSplitsIntoContiguousSlices)
{
    expectContiguousSlices(wk::AnyObject(wk::genEdgeList(1, 100, 997, false)),
                           GetParam());
}

TEST_P(PartitionParts, WeightedEdgeListSplitsIntoContiguousSlices)
{
    expectContiguousSlices(wk::AnyObject(wk::genEdgeList(2, 100, 1003, true)),
                           GetParam());
}

TEST_P(PartitionParts, CsvTableSplitsIntoContiguousSlices)
{
    expectContiguousSlices(wk::AnyObject(wk::genCsvTable(9, 211, 6, 0.3)),
                           GetParam());
}

INSTANTIATE_TEST_SUITE_P(Parts, PartitionParts,
                         ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(Partition, EveryMultiRankAppPartitionsIntoContiguousSlices)
{
    // runWorkload splits a multi-rank app's input into one file per
    // rank, so each such app's kind must be one partitionObject splits.
    unsigned checked = 0;
    for (const auto *suite : {&wk::standardSuite(), &wk::extensionSuite()}) {
        for (const wk::AppSpec &app : *suite) {
            if (app.ranks <= 1)
                continue;
            const wk::AnyObject obj = app.generate(42, 0.02);
            ASSERT_TRUE(std::holds_alternative<sd::EdgeListObject>(obj) ||
                        std::holds_alternative<sd::CsvTableObject>(obj))
                << app.name << " has " << app.ranks
                << " ranks but an object kind partitionObject cannot split";
            SCOPED_TRACE(app.name);
            expectContiguousSlices(obj, app.ranks);
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(Partition, ShardsAreBalanced)
{
    const auto obj = wk::AnyObject(wk::genEdgeList(7, 20, 103, false));
    const auto shards = wk::partitionObject(obj, 4);
    std::size_t lo = SIZE_MAX, hi = 0;
    for (const auto &s : shards) {
        lo = std::min(lo, elements(s));
        hi = std::max(hi, elements(s));
    }
    EXPECT_LE(hi - lo, 1u);
}

TEST(Partition, OnePartIsTheObjectOfAnyKind)
{
    const auto obj = wk::AnyObject(wk::genIntArray(4, 1009));
    const auto shards = wk::partitionObject(obj, 1);
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_TRUE(shards[0] == obj);
}

TEST(PartitionDeath, KindsNoMultiRankAppHoldsDoNotSplit)
{
    EXPECT_DEATH(wk::partitionObject(wk::AnyObject(wk::genIntArray(4, 64)), 2),
                 "only edge lists and CSV tables");
}
