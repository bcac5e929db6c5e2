#include "workloads/partition.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace morpheus::workloads {

namespace {

/** Contiguous [begin, end) ranges splitting @p total into @p parts. */
std::vector<std::pair<std::size_t, std::size_t>>
shards(std::size_t total, unsigned parts)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    const std::size_t base = total / parts;
    std::size_t extra = total % parts;
    std::size_t pos = 0;
    for (unsigned i = 0; i < parts; ++i) {
        std::size_t len = base + (extra > 0 ? 1 : 0);
        if (extra > 0)
            --extra;
        out.emplace_back(pos, pos + len);
        pos += len;
    }
    return out;
}

}  // namespace

std::vector<AnyObject>
partitionObject(AnyObject obj, unsigned parts)
{
    MORPHEUS_ASSERT(parts >= 1, "partition into zero parts");
    std::vector<AnyObject> out;
    out.reserve(parts);
    if (parts == 1) {
        out.push_back(std::move(obj));
        return out;
    }

    if (const auto *g = std::get_if<serde::EdgeListObject>(&obj)) {
        for (const auto &[b, e] : shards(g->numEdges(), parts)) {
            serde::EdgeListObject s;
            s.numVertices = g->numVertices;
            s.weighted = g->weighted;
            s.src.assign(g->src.begin() + b, g->src.begin() + e);
            s.dst.assign(g->dst.begin() + b, g->dst.begin() + e);
            if (g->weighted) {
                s.weight.assign(g->weight.begin() + b,
                                g->weight.begin() + e);
            }
            out.emplace_back(std::move(s));
        }
    } else if (const auto *t =
                   std::get_if<serde::CsvTableObject>(&obj)) {
        const std::size_t cols = t->columns.size();
        for (const auto &[b, e] : shards(t->numRows(), parts)) {
            serde::CsvTableObject s;
            s.columns = t->columns;
            s.values.assign(t->values.begin() + b * cols,
                            t->values.begin() + e * cols);
            out.emplace_back(std::move(s));
        }
    } else {
        MORPHEUS_PANIC("only edge lists and CSV tables split across ranks");
    }
    return out;
}

}  // namespace morpheus::workloads
