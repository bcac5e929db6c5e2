#include "serde/formats.hh"

#include "serde/le_bytes.hh"
#include "sim/digest.hh"

namespace morpheus::serde {

using detail::getLeOrPanic;
using detail::putLe;

std::uint64_t
EdgeListObject::objectBytes() const
{
    // Header (V, E as u32) + per-edge u32 pair (+ i32 weight).
    std::uint64_t per_edge = 2 * sizeof(std::uint32_t);
    if (weighted)
        per_edge += sizeof(std::int32_t);
    return 2 * sizeof(std::uint32_t) + per_edge * numEdges();
}

void
EdgeListObject::serialize(TextWriter &w) const
{
    w.appendInt64(numVertices);
    w.space();
    w.appendInt64(static_cast<std::int64_t>(numEdges()));
    w.newline();
    for (std::size_t i = 0; i < numEdges(); ++i) {
        w.appendInt64(src[i]);
        w.space();
        w.appendInt64(dst[i]);
        if (weighted) {
            w.space();
            w.appendInt64(weight[i]);
        }
        w.newline();
    }
}

std::uint64_t
MatrixObject::objectBytes() const
{
    return 2 * sizeof(std::uint32_t) + sizeof(float) * values.size();
}

void
MatrixObject::serialize(TextWriter &w, int precision) const
{
    w.appendInt64(rows);
    w.space();
    w.appendInt64(cols);
    w.newline();
    for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
            if (c > 0)
                w.space();
            const double v =
                values[static_cast<std::size_t>(r) * cols + c];
            // Integer-valued entries serialize as integers; the paper's
            // benchmark inputs "mainly consist of integers".
            if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
                w.appendInt64(static_cast<std::int64_t>(v));
            } else {
                w.appendDouble(v, precision);
            }
        }
        w.newline();
    }
}

std::uint64_t
IntArrayObject::objectBytes() const
{
    return sizeof(std::uint32_t) + sizeof(std::int64_t) * values.size();
}

void
IntArrayObject::serialize(TextWriter &w) const
{
    w.appendInt64(static_cast<std::int64_t>(values.size()));
    w.newline();
    for (std::size_t i = 0; i < values.size(); ++i) {
        w.appendInt64(values[i]);
        w.appendChar((i + 1) % 16 == 0 ? '\n' : ' ');
    }
    w.newline();
}

std::uint64_t
PointSetObject::objectBytes() const
{
    return 2 * sizeof(std::uint32_t) + sizeof(float) * coords.size();
}

void
PointSetObject::serialize(TextWriter &w, int precision) const
{
    w.appendInt64(static_cast<std::int64_t>(numPoints()));
    w.space();
    w.appendInt64(dims);
    w.newline();
    for (std::size_t p = 0; p < numPoints(); ++p) {
        for (std::uint32_t d = 0; d < dims; ++d) {
            if (d > 0)
                w.space();
            const double v = coords[p * dims + d];
            if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
                w.appendInt64(static_cast<std::int64_t>(v));
            } else {
                w.appendDouble(v, precision);
            }
        }
        w.newline();
    }
}

std::uint64_t
CooMatrixObject::objectBytes() const
{
    return 3 * sizeof(std::uint32_t) +
           (2 * sizeof(std::uint32_t) + sizeof(float)) * nnz();
}

void
CooMatrixObject::serialize(TextWriter &w, int precision) const
{
    w.appendInt64(rows);
    w.space();
    w.appendInt64(cols);
    w.space();
    w.appendInt64(static_cast<std::int64_t>(nnz()));
    w.newline();
    for (std::size_t i = 0; i < nnz(); ++i) {
        w.appendInt64(rowIdx[i]);
        w.space();
        w.appendInt64(colIdx[i]);
        w.space();
        const double v = values[i];
        if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
            w.appendInt64(static_cast<std::int64_t>(v));
        } else {
            w.appendDouble(v, precision);
        }
        w.newline();
    }
}

std::vector<std::uint8_t>
EdgeListObject::toBinary() const
{
    return detail::encodeToVector(*this);
}

template <typename Sink>
void
EdgeListObject::writeBinary(Sink &out) const
{
    putLe(out, numVertices);
    putLe(out, static_cast<std::uint32_t>(numEdges()));
    for (std::size_t i = 0; i < numEdges(); ++i) {
        putLe(out, src[i]);
        putLe(out, dst[i]);
        if (weighted)
            putLe(out, weight[i]);
    }
}
template void EdgeListObject::writeBinary(std::vector<std::uint8_t> &) const;
template void EdgeListObject::writeBinary(sim::Digester &) const;

EdgeListObject
EdgeListObject::fromBinary(const std::vector<std::uint8_t> &bytes,
                           bool with_weights)
{
    EdgeListObject o;
    std::size_t off = 0;
    o.numVertices = getLeOrPanic<std::uint32_t>(bytes, off);
    const auto edges = getLeOrPanic<std::uint32_t>(bytes, off);
    o.weighted = with_weights;
    o.src.reserve(edges);
    o.dst.reserve(edges);
    if (with_weights)
        o.weight.reserve(edges);
    for (std::uint32_t i = 0; i < edges; ++i) {
        o.src.push_back(getLeOrPanic<std::uint32_t>(bytes, off));
        o.dst.push_back(getLeOrPanic<std::uint32_t>(bytes, off));
        if (with_weights)
            o.weight.push_back(getLeOrPanic<std::int32_t>(bytes, off));
    }
    return o;
}

std::vector<std::uint8_t>
MatrixObject::toBinary() const
{
    return detail::encodeToVector(*this);
}

template <typename Sink>
void
MatrixObject::writeBinary(Sink &out) const
{
    putLe(out, rows);
    putLe(out, cols);
    for (const float v : values)
        putLe(out, v);
}
template void MatrixObject::writeBinary(std::vector<std::uint8_t> &) const;
template void MatrixObject::writeBinary(sim::Digester &) const;

MatrixObject
MatrixObject::fromBinary(const std::vector<std::uint8_t> &bytes)
{
    MatrixObject o;
    std::size_t off = 0;
    o.rows = getLeOrPanic<std::uint32_t>(bytes, off);
    o.cols = getLeOrPanic<std::uint32_t>(bytes, off);
    const std::size_t n =
        static_cast<std::size_t>(o.rows) * o.cols;
    o.values.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        o.values.push_back(getLeOrPanic<float>(bytes, off));
    return o;
}

std::vector<std::uint8_t>
IntArrayObject::toBinary() const
{
    return detail::encodeToVector(*this);
}

template <typename Sink>
void
IntArrayObject::writeBinary(Sink &out) const
{
    putLe(out, static_cast<std::uint32_t>(values.size()));
    for (const std::int64_t v : values)
        putLe(out, v);
}
template void IntArrayObject::writeBinary(std::vector<std::uint8_t> &) const;
template void IntArrayObject::writeBinary(sim::Digester &) const;

IntArrayObject
IntArrayObject::fromBinary(const std::vector<std::uint8_t> &bytes)
{
    IntArrayObject o;
    std::size_t off = 0;
    const auto n = getLeOrPanic<std::uint32_t>(bytes, off);
    o.values.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        o.values.push_back(getLeOrPanic<std::int64_t>(bytes, off));
    return o;
}

std::vector<std::uint8_t>
PointSetObject::toBinary() const
{
    return detail::encodeToVector(*this);
}

template <typename Sink>
void
PointSetObject::writeBinary(Sink &out) const
{
    putLe(out, static_cast<std::uint32_t>(numPoints()));
    putLe(out, dims);
    for (const float v : coords)
        putLe(out, v);
}
template void PointSetObject::writeBinary(std::vector<std::uint8_t> &) const;
template void PointSetObject::writeBinary(sim::Digester &) const;

PointSetObject
PointSetObject::fromBinary(const std::vector<std::uint8_t> &bytes)
{
    PointSetObject o;
    std::size_t off = 0;
    const auto points = getLeOrPanic<std::uint32_t>(bytes, off);
    o.dims = getLeOrPanic<std::uint32_t>(bytes, off);
    const std::size_t n = static_cast<std::size_t>(points) * o.dims;
    o.coords.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        o.coords.push_back(getLeOrPanic<float>(bytes, off));
    return o;
}

std::vector<std::uint8_t>
CooMatrixObject::toBinary() const
{
    return detail::encodeToVector(*this);
}

template <typename Sink>
void
CooMatrixObject::writeBinary(Sink &out) const
{
    putLe(out, rows);
    putLe(out, cols);
    putLe(out, static_cast<std::uint32_t>(nnz()));
    for (std::size_t i = 0; i < nnz(); ++i) {
        putLe(out, rowIdx[i]);
        putLe(out, colIdx[i]);
        putLe(out, static_cast<float>(values[i]));
    }
}
template void CooMatrixObject::writeBinary(std::vector<std::uint8_t> &) const;
template void CooMatrixObject::writeBinary(sim::Digester &) const;

CooMatrixObject
CooMatrixObject::fromBinary(const std::vector<std::uint8_t> &bytes)
{
    CooMatrixObject o;
    std::size_t off = 0;
    o.rows = getLeOrPanic<std::uint32_t>(bytes, off);
    o.cols = getLeOrPanic<std::uint32_t>(bytes, off);
    const auto n = getLeOrPanic<std::uint32_t>(bytes, off);
    o.rowIdx.reserve(n);
    o.colIdx.reserve(n);
    o.values.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        o.rowIdx.push_back(getLeOrPanic<std::uint32_t>(bytes, off));
        o.colIdx.push_back(getLeOrPanic<std::uint32_t>(bytes, off));
        o.values.push_back(getLeOrPanic<float>(bytes, off));
    }
    return o;
}

}  // namespace morpheus::serde
