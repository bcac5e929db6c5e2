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
    } else if (const auto *m = std::get_if<serde::MatrixObject>(&obj)) {
        for (const auto &[b, e] : shards(m->rows, parts)) {
            serde::MatrixObject s;
            s.rows = static_cast<std::uint32_t>(e - b);
            s.cols = m->cols;
            s.values.assign(m->values.begin() + b * m->cols,
                            m->values.begin() + e * m->cols);
            out.emplace_back(std::move(s));
        }
    } else if (const auto *a =
                   std::get_if<serde::IntArrayObject>(&obj)) {
        for (const auto &[b, e] : shards(a->values.size(), parts)) {
            serde::IntArrayObject s;
            s.values.assign(a->values.begin() + b,
                            a->values.begin() + e);
            out.emplace_back(std::move(s));
        }
    } else if (const auto *p =
                   std::get_if<serde::PointSetObject>(&obj)) {
        for (const auto &[b, e] : shards(p->numPoints(), parts)) {
            serde::PointSetObject s;
            s.dims = p->dims;
            s.coords.assign(p->coords.begin() + b * p->dims,
                            p->coords.begin() + e * p->dims);
            out.emplace_back(std::move(s));
        }
    } else if (const auto *c =
                   std::get_if<serde::CooMatrixObject>(&obj)) {
        for (const auto &[b, e] : shards(c->nnz(), parts)) {
            serde::CooMatrixObject s;
            s.rows = c->rows;
            s.cols = c->cols;
            s.rowIdx.assign(c->rowIdx.begin() + b, c->rowIdx.begin() + e);
            s.colIdx.assign(c->colIdx.begin() + b, c->colIdx.begin() + e);
            s.values.assign(c->values.begin() + b, c->values.begin() + e);
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
    } else if (const auto *j =
                   std::get_if<serde::JsonRecordsObject>(&obj)) {
        for (const auto &[b, e] : shards(j->numRecords(), parts)) {
            serde::JsonRecordsObject s;
            for (std::size_t r = b; r < e; ++r) {
                for (std::uint32_t i = j->recordOffsets[r];
                     i < j->recordOffsets[r + 1]; ++i) {
                    s.values.push_back(j->values[i]);
                }
                s.recordOffsets.push_back(
                    static_cast<std::uint32_t>(s.values.size()));
            }
            out.emplace_back(std::move(s));
        }
    } else {
        MORPHEUS_PANIC("unknown object variant");
    }
    return out;
}

AnyObject
mergeObjects(ObjectKind kind, const std::vector<AnyObject> &parts)
{
    MORPHEUS_ASSERT(!parts.empty(), "merging zero shards");
    switch (kind) {
      case ObjectKind::kEdgeList:
      case ObjectKind::kEdgeListWeighted: {
        serde::EdgeListObject out;
        const auto &first = std::get<serde::EdgeListObject>(parts[0]);
        out.numVertices = first.numVertices;
        out.weighted = first.weighted;
        for (const auto &p : parts) {
            const auto &s = std::get<serde::EdgeListObject>(p);
            out.src.insert(out.src.end(), s.src.begin(), s.src.end());
            out.dst.insert(out.dst.end(), s.dst.begin(), s.dst.end());
            out.weight.insert(out.weight.end(), s.weight.begin(),
                              s.weight.end());
        }
        return out;
      }
      case ObjectKind::kMatrix: {
        serde::MatrixObject out;
        out.cols = std::get<serde::MatrixObject>(parts[0]).cols;
        for (const auto &p : parts) {
            const auto &s = std::get<serde::MatrixObject>(p);
            out.rows += s.rows;
            out.values.insert(out.values.end(), s.values.begin(),
                              s.values.end());
        }
        return out;
      }
      case ObjectKind::kIntArray: {
        serde::IntArrayObject out;
        for (const auto &p : parts) {
            const auto &s = std::get<serde::IntArrayObject>(p);
            out.values.insert(out.values.end(), s.values.begin(),
                              s.values.end());
        }
        return out;
      }
      case ObjectKind::kPointSet: {
        serde::PointSetObject out;
        out.dims = std::get<serde::PointSetObject>(parts[0]).dims;
        for (const auto &p : parts) {
            const auto &s = std::get<serde::PointSetObject>(p);
            out.coords.insert(out.coords.end(), s.coords.begin(),
                              s.coords.end());
        }
        return out;
      }
      case ObjectKind::kCsvTable: {
        serde::CsvTableObject out;
        out.columns =
            std::get<serde::CsvTableObject>(parts[0]).columns;
        for (const auto &p : parts) {
            const auto &s = std::get<serde::CsvTableObject>(p);
            out.values.insert(out.values.end(), s.values.begin(),
                              s.values.end());
        }
        return out;
      }
      case ObjectKind::kJsonRecords: {
        serde::JsonRecordsObject out;
        for (const auto &p : parts) {
            const auto &s = std::get<serde::JsonRecordsObject>(p);
            for (std::size_t r = 0; r < s.numRecords(); ++r) {
                for (std::uint32_t i = s.recordOffsets[r];
                     i < s.recordOffsets[r + 1]; ++i) {
                    out.values.push_back(s.values[i]);
                }
                out.recordOffsets.push_back(
                    static_cast<std::uint32_t>(out.values.size()));
            }
        }
        return out;
      }
      case ObjectKind::kCooMatrix: {
        serde::CooMatrixObject out;
        const auto &first = std::get<serde::CooMatrixObject>(parts[0]);
        out.rows = first.rows;
        out.cols = first.cols;
        for (const auto &p : parts) {
            const auto &s = std::get<serde::CooMatrixObject>(p);
            out.rowIdx.insert(out.rowIdx.end(), s.rowIdx.begin(),
                              s.rowIdx.end());
            out.colIdx.insert(out.colIdx.end(), s.colIdx.begin(),
                              s.colIdx.end());
            out.values.insert(out.values.end(), s.values.begin(),
                              s.values.end());
        }
        return out;
      }
    }
    MORPHEUS_PANIC("unknown object kind");
}

}  // namespace morpheus::workloads
