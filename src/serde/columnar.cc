#include "serde/columnar.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "serde/le_bytes.hh"

namespace morpheus::serde {

using detail::getLe;
using detail::putLe;

namespace {

constexpr std::uint32_t kFlashMagic = 0x31464D43;  // 'CMF1'
constexpr std::uint32_t kScanMagic = 0x32464D43;   // 'CMF2'
constexpr std::uint32_t kDescMagic = 0x5043;       // 'PC' (pushdown)
constexpr std::uint32_t kDescVersion = 1;
constexpr std::size_t kFooterBytes = 28;

struct FlashHeader
{
    std::vector<ColumnDesc> schema;
    std::uint64_t rows = 0;
    std::uint32_t rowGroupRows = 0;
    std::uint32_t dictCount = 0;
    std::size_t headerBytes = 0;
};

/** @return 1 parsed, 0 need more bytes, -1 malformed. */
int
parseFlashHeader(const std::uint8_t *data, std::size_t size, FlashHeader *h)
{
    std::size_t pos = 0;
    std::uint32_t magic = 0, ncols = 0;
    if (!getLe(data, size, &pos, &magic))
        return 0;
    if (magic != kFlashMagic)
        return -1;
    if (!getLe(data, size, &pos, &ncols) ||
        !getLe(data, size, &pos, &h->rows) ||
        !getLe(data, size, &pos, &h->rowGroupRows) ||
        !getLe(data, size, &pos, &h->dictCount))
        return 0;
    if (ncols == 0 || ncols > 32 || h->rowGroupRows == 0)
        return -1;
    h->schema.clear();
    for (std::uint32_t c = 0; c < ncols; ++c) {
        std::uint8_t type = 0, len = 0;
        if (!getLe(data, size, &pos, &type) ||
            !getLe(data, size, &pos, &len))
            return 0;
        if (type > 2)
            return -1;
        if (size - pos < len)
            return 0;
        ColumnDesc d;
        d.type = static_cast<ColumnType>(type);
        d.name.assign(reinterpret_cast<const char *>(data + pos), len);
        pos += len;
        h->schema.push_back(std::move(d));
    }
    h->headerBytes = pos;
    return 1;
}

std::uint64_t
groupRowBytes(const std::vector<ColumnDesc> &schema)
{
    std::uint64_t w = 0;
    for (const auto &c : schema)
        w += columnCellBytes(c.type);
    return w;
}

bool
predHolds(PredOp op, ColumnType type, std::uint64_t cell,
          std::uint64_t literal)
{
    if (type == ColumnType::kFloat64) {
        double a = 0, b = 0;
        std::memcpy(&a, &cell, 8);
        std::memcpy(&b, &literal, 8);
        switch (op) {
          case PredOp::kEq: return a == b;
          case PredOp::kNe: return a != b;
          case PredOp::kLt: return a < b;
          case PredOp::kLe: return a <= b;
          case PredOp::kGt: return a > b;
          case PredOp::kGe: return a >= b;
        }
        return false;
    }
    if (type == ColumnType::kDictString) {
        // Dictionary codes only support identity comparison.
        switch (op) {
          case PredOp::kEq: return cell == literal;
          case PredOp::kNe: return cell != literal;
          default: return false;
        }
    }
    const auto a = static_cast<std::int64_t>(cell);
    const auto b = static_cast<std::int64_t>(literal);
    switch (op) {
      case PredOp::kEq: return a == b;
      case PredOp::kNe: return a != b;
      case PredOp::kLt: return a < b;
      case PredOp::kLe: return a <= b;
      case PredOp::kGt: return a > b;
      case PredOp::kGe: return a >= b;
    }
    return false;
}

std::uint64_t
rngNext(std::uint64_t *s)
{
    std::uint64_t x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    return x;
}

}  // namespace

std::vector<std::uint32_t>
ScanSpec::encode() const
{
    std::vector<std::uint32_t> dw;
    dw.push_back((kDescMagic << 16) | (kDescVersion << 12) |
                 ((flags & 0xFu) << 8) |
                 (static_cast<std::uint32_t>(preds.size()) & 0xFFu));
    dw.push_back(projectionMask);
    for (const auto &p : preds) {
        dw.push_back((p.column & 0xFFFFu) |
                     (static_cast<std::uint32_t>(p.op) << 16));
        dw.push_back(static_cast<std::uint32_t>(p.literalBits));
        dw.push_back(static_cast<std::uint32_t>(p.literalBits >> 32));
    }
    return dw;
}

bool
ScanSpec::decode(const std::vector<std::uint32_t> &dwords, ScanSpec *out)
{
    if (dwords.size() < 2)
        return false;
    const std::uint32_t head = dwords[0];
    if ((head >> 16) != kDescMagic || ((head >> 12) & 0xFu) != kDescVersion)
        return false;
    const std::uint32_t npreds = head & 0xFFu;
    const std::uint32_t flags = (head >> 8) & 0xFu;
    // Reserved bits must be zero, so an accepted descriptor is the one
    // encoding of its spec (and of its object-cache key).
    if (dwords.size() != 2 + std::size_t(npreds) * 3 ||
        (flags & ~std::uint32_t(kScanNoTrailer | kScanNoHeader)) != 0)
        return false;
    out->flags = flags;
    out->projectionMask = dwords[1];
    out->preds.clear();
    for (std::uint32_t i = 0; i < npreds; ++i) {
        const std::uint32_t term = dwords[2 + i * 3];
        if ((term >> 24) != 0 || ((term >> 16) & 0xFFu) > 5)
            return false;
        Predicate p;
        p.column = term & 0xFFFFu;
        p.op = static_cast<PredOp>((term >> 16) & 0xFFu);
        p.literalBits = std::uint64_t(dwords[2 + i * 3 + 1]) |
                        (std::uint64_t(dwords[2 + i * 3 + 2]) << 32);
        out->preds.push_back(p);
    }
    return true;
}

std::uint32_t
pushdownDigest(const std::vector<std::uint32_t> &dwords)
{
    std::uint32_t h = 2166136261u;
    for (const std::uint32_t dw : dwords) {
        for (int i = 0; i < 4; ++i) {
            h ^= (dw >> (i * 8)) & 0xFFu;
            h *= 16777619u;
        }
    }
    return h == 0 ? 1u : h;
}

std::uint32_t
ScanSpec::digest() const
{
    return pushdownDigest(encode());
}

std::uint64_t
ColumnarTableObject::objectBytes() const
{
    std::uint64_t n = 0;
    for (const auto &c : cells)
        n += c.size() * 8;
    for (const auto &d : schema)
        n += d.name.size() + 2;
    for (const auto &s : dict)
        n += s.size() + 2;
    return n;
}

std::vector<std::uint8_t>
ColumnarTableObject::toFlash() const
{
    std::vector<std::uint8_t> out;
    putLe<std::uint32_t>(out, kFlashMagic);
    putLe<std::uint32_t>(out, static_cast<std::uint32_t>(schema.size()));
    putLe<std::uint64_t>(out, rows());
    putLe<std::uint32_t>(out, rowGroupRows);
    putLe<std::uint32_t>(out, static_cast<std::uint32_t>(dict.size()));
    for (const auto &d : schema) {
        putLe<std::uint8_t>(out, static_cast<std::uint8_t>(d.type));
        putLe<std::uint8_t>(out, static_cast<std::uint8_t>(d.name.size()));
        out.insert(out.end(), d.name.begin(), d.name.end());
    }
    const std::uint64_t header_bytes = out.size();
    const std::uint64_t nrows = rows();
    for (std::uint64_t r0 = 0; r0 < nrows; r0 += rowGroupRows) {
        const std::uint64_t rn = std::min<std::uint64_t>(
            nrows - r0, rowGroupRows);
        for (std::size_t c = 0; c < schema.size(); ++c) {
            for (std::uint64_t r = r0; r < r0 + rn; ++r) {
                if (schema[c].type == ColumnType::kDictString)
                    putLe<std::uint32_t>(
                        out, static_cast<std::uint32_t>(cells[c][r]));
                else
                    putLe<std::uint64_t>(out, cells[c][r]);
            }
        }
    }
    const std::uint64_t dict_off = out.size();
    for (const auto &s : dict) {
        putLe<std::uint16_t>(out, static_cast<std::uint16_t>(s.size()));
        out.insert(out.end(), s.begin(), s.end());
    }
    putLe<std::uint64_t>(out, header_bytes);
    putLe<std::uint64_t>(out, dict_off);
    putLe<std::uint64_t>(out, nrows);
    putLe<std::uint32_t>(out, kFlashMagic);
    return out;
}

bool
ColumnarTableObject::fromFlash(const std::vector<std::uint8_t> &bytes,
                               ColumnarTableObject *out)
{
    FlashHeader h;
    if (parseFlashHeader(bytes.data(), bytes.size(), &h) != 1)
        return false;
    if (bytes.size() < kFooterBytes)
        return false;
    std::size_t fpos = bytes.size() - kFooterBytes;
    std::uint64_t f_header = 0, f_dict = 0, f_rows = 0;
    std::uint32_t f_magic = 0;
    getLe(bytes.data(), bytes.size(), &fpos, &f_header);
    getLe(bytes.data(), bytes.size(), &fpos, &f_dict);
    getLe(bytes.data(), bytes.size(), &fpos, &f_rows);
    getLe(bytes.data(), bytes.size(), &fpos, &f_magic);
    if (f_magic != kFlashMagic || f_header != h.headerBytes ||
        f_rows != h.rows)
        return false;
    out->schema = h.schema;
    out->rowGroupRows = h.rowGroupRows;
    out->cells.assign(h.schema.size(), {});
    for (auto &c : out->cells)
        c.reserve(h.rows);
    std::size_t pos = h.headerBytes;
    for (std::uint64_t r0 = 0; r0 < h.rows; r0 += h.rowGroupRows) {
        const std::uint64_t rn =
            std::min<std::uint64_t>(h.rows - r0, h.rowGroupRows);
        for (std::size_t c = 0; c < h.schema.size(); ++c) {
            for (std::uint64_t r = 0; r < rn; ++r) {
                std::uint64_t v = 0;
                if (h.schema[c].type == ColumnType::kDictString) {
                    std::uint32_t code = 0;
                    if (!getLe(bytes.data(), bytes.size(), &pos, &code))
                        return false;
                    v = code;
                } else if (!getLe(bytes.data(), bytes.size(), &pos, &v)) {
                    return false;
                }
                out->cells[c].push_back(v);
            }
        }
    }
    if (pos != f_dict)
        return false;
    out->dict.clear();
    for (std::uint32_t i = 0; i < h.dictCount; ++i) {
        std::uint16_t len = 0;
        if (!getLe(bytes.data(), bytes.size(), &pos, &len) ||
            bytes.size() - pos < len)
            return false;
        out->dict.emplace_back(
            reinterpret_cast<const char *>(bytes.data() + pos), len);
        pos += len;
    }
    return pos == bytes.size() - kFooterBytes;
}

void
ColumnarScanner::emitBytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    _emitted.insert(_emitted.end(), b, b + n);
}

void
ColumnarScanner::parseHeader()
{
    FlashHeader h;
    const int rc = parseFlashHeader(_buf.data() + _bufPos,
                                    _buf.size() - _bufPos, &h);
    if (rc == 0)
        return;
    if (rc < 0) {
        _error = true;
        return;
    }
    _bufPos += h.headerBytes;
    _haveHeader = true;
    _schema = std::move(h.schema);
    _rowsTotal = h.rows;
    _rowGroupRows = h.rowGroupRows;
    _dictCount = h.dictCount;
    _groupBytes = groupRowBytes(_schema) * _rowGroupRows;
    _cost.bytes += h.headerBytes;
    // Validate the program against the schema up front.
    for (const auto &p : _spec.preds) {
        if (p.column >= _schema.size()) {
            _error = true;
            return;
        }
        if (_schema[p.column].type == ColumnType::kDictString &&
            p.op != PredOp::kEq && p.op != PredOp::kNe) {
            _error = true;
            return;
        }
    }
    if (!(_spec.flags & kScanNoHeader)) {
        std::vector<std::uint8_t> hdr;
        std::uint32_t nproj = 0;
        for (std::size_t c = 0; c < _schema.size(); ++c)
            if (_spec.projectionMask & (1u << c))
                ++nproj;
        putLe<std::uint32_t>(hdr, kScanMagic);
        putLe<std::uint32_t>(hdr, nproj);
        for (std::size_t c = 0; c < _schema.size(); ++c) {
            if (!(_spec.projectionMask & (1u << c)))
                continue;
            putLe<std::uint8_t>(
                hdr, static_cast<std::uint8_t>(_schema[c].type));
            putLe<std::uint8_t>(
                hdr, static_cast<std::uint8_t>(_schema[c].name.size()));
            hdr.insert(hdr.end(), _schema[c].name.begin(),
                       _schema[c].name.end());
        }
        emitBytes(hdr.data(), hdr.size());
    }
}

void
ColumnarScanner::evalGroup(const std::uint8_t *group,
                           std::uint64_t group_rows)
{
    // Column-at-a-time: each predicate sweeps its own column chunk,
    // narrowing one selection vector; only then are surviving rows
    // gathered from the projected chunks.
    std::vector<std::size_t> col_off(_schema.size(), 0);
    std::size_t off = 0;
    for (std::size_t c = 0; c < _schema.size(); ++c) {
        col_off[c] = off;
        off += columnCellBytes(_schema[c].type) * group_rows;
    }
    std::vector<std::uint8_t> sel(group_rows, 1);
    for (const auto &p : _spec.preds) {
        const ColumnType t = _schema[p.column].type;
        const std::uint32_t w = columnCellBytes(t);
        const std::uint8_t *chunk = group + col_off[p.column];
        _cost.bytes += w * group_rows;
        for (std::uint64_t r = 0; r < group_rows; ++r) {
            if (!sel[r])
                continue;
            std::uint64_t cell = 0;
            if (w == 4) {
                std::uint32_t code = 0;
                std::memcpy(&code, chunk + r * 4, 4);
                if (code >= _dictCount) {
                    _error = true;  // dictionary miss
                    return;
                }
                cell = code;
            } else {
                std::memcpy(&cell, chunk + r * 8, 8);
            }
            if (t == ColumnType::kFloat64)
                _cost.floatOps += 1;
            else
                _cost.intValues += 1;
            if (!predHolds(p.op, t, cell, p.literalBits))
                sel[r] = 0;
        }
    }
    std::vector<std::uint8_t> row_out;
    for (std::uint64_t r = 0; r < group_rows; ++r) {
        if (!sel[r])
            continue;
        ++_surviving;
        for (std::size_t c = 0; c < _schema.size(); ++c) {
            if (!(_spec.projectionMask & (1u << c)))
                continue;
            const std::uint32_t w = columnCellBytes(_schema[c].type);
            const std::uint8_t *cell = group + col_off[c] + r * w;
            if (w == 4) {
                std::uint32_t code = 0;
                std::memcpy(&code, cell, 4);
                if (code >= _dictCount) {
                    _error = true;  // dictionary miss
                    return;
                }
                _cost.intValues += 1;
            } else if (_schema[c].type == ColumnType::kFloat64) {
                _cost.floatOps += 1;
            } else {
                _cost.intValues += 1;
            }
            row_out.insert(row_out.end(), cell, cell + w);
        }
    }
    _cost.bytes += row_out.size();
    emitBytes(row_out.data(), row_out.size());
}

void
ColumnarScanner::feed(const std::uint8_t *data, std::size_t n)
{
    if (_error || _finished)
        return;
    _buf.insert(_buf.end(), data, data + n);
    if (!_haveHeader) {
        parseHeader();
        if (!_haveHeader || _error)
            return;
    }
    while (_rowsSeen < _rowsTotal) {
        const std::uint64_t rn =
            std::min<std::uint64_t>(_rowsTotal - _rowsSeen, _rowGroupRows);
        const std::uint64_t need = groupRowBytes(_schema) * rn;
        if (_buf.size() - _bufPos < need)
            break;
        evalGroup(_buf.data() + _bufPos, rn);
        _bufPos += need;
        _rowsSeen += rn;
        if (_error)
            return;
        // Keep the carry buffer near one row group, not the file.
        if (_bufPos >= _groupBytes) {
            _buf.erase(_buf.begin(),
                       _buf.begin() + static_cast<std::ptrdiff_t>(_bufPos));
            _bufPos = 0;
        }
    }
    if (_rowsSeen == _rowsTotal && _haveHeader) {
        // Everything after the last row group (dict blob + footer)
        // accumulates for the trailer.
        _dictBlob.insert(_dictBlob.end(),
                         _buf.begin() +
                             static_cast<std::ptrdiff_t>(_bufPos),
                         _buf.end());
        _buf.clear();
        _bufPos = 0;
    }
}

void
ColumnarScanner::finish(std::uint64_t base_surviving)
{
    if (_error || _finished)
        return;
    _finished = true;
    if (!_haveHeader) {
        // A split prefix can be cut before the header completes; with
        // the trailer suppressed that is a legal empty scan.
        if (!(_spec.flags & kScanNoTrailer))
            _error = true;
        return;
    }
    if (_spec.flags & kScanNoTrailer)
        return;
    bool dict_projected = false;
    for (std::size_t c = 0; c < _schema.size(); ++c)
        if ((_spec.projectionMask & (1u << c)) &&
            _schema[c].type == ColumnType::kDictString)
            dict_projected = true;
    std::vector<std::uint8_t> trailer;
    if (dict_projected && _dictCount > 0) {
        // Parse the dict blob (it ends kFooterBytes before the stream
        // end, but parse by entry count so truncation is detected).
        std::size_t pos = 0;
        std::vector<std::pair<std::size_t, std::uint16_t>> entries;
        for (std::uint32_t i = 0; i < _dictCount; ++i) {
            std::uint16_t len = 0;
            if (!getLe(_dictBlob.data(), _dictBlob.size(), &pos, &len) ||
                _dictBlob.size() - pos < len) {
                _error = true;
                return;
            }
            entries.emplace_back(pos, len);
            pos += len;
        }
        putLe<std::uint32_t>(trailer, _dictCount);
        for (const auto &[epos, len] : entries) {
            putLe<std::uint16_t>(trailer, len);
            trailer.insert(trailer.end(), _dictBlob.begin() +
                               static_cast<std::ptrdiff_t>(epos),
                           _dictBlob.begin() +
                               static_cast<std::ptrdiff_t>(epos + len));
        }
        _cost.bytes += pos;
    } else {
        putLe<std::uint32_t>(trailer, 0);
    }
    putLe<std::uint64_t>(trailer, base_surviving + _surviving);
    emitBytes(trailer.data(), trailer.size());
}

ScanResult
scanTable(const std::uint8_t *data, std::size_t size, const ScanSpec &spec,
          std::uint64_t first_group, std::uint64_t base_surviving)
{
    ScanResult res;
    ColumnarScanner scanner(spec);
    if (first_group == 0) {
        scanner.feed(data, size);
    } else {
        FlashHeader h;
        if (parseFlashHeader(data, size, &h) != 1)
            return res;
        const std::uint64_t skip_rows =
            std::min<std::uint64_t>(first_group * h.rowGroupRows, h.rows);
        const std::uint64_t skip_bytes =
            groupRowBytes(h.schema) * skip_rows;
        if (h.headerBytes + skip_bytes > size)
            return res;
        // Feed the header, then resume at the requested row group.
        scanner.feed(data, h.headerBytes);
        scanner.skipRows(skip_rows);
        scanner.feed(data + h.headerBytes + skip_bytes,
                     size - h.headerBytes - skip_bytes);
    }
    scanner.finish(base_surviving);
    res.ok = !scanner.error();
    res.survivingRows = scanner.survivingRows();
    res.out = scanner.takeEmitted();
    res.cost = scanner.takeCost();
    return res;
}

bool
columnarFromScanBytes(const std::vector<std::uint8_t> &bytes,
                      ColumnarTableObject *out)
{
    std::size_t pos = 0;
    std::uint32_t magic = 0, nproj = 0;
    if (!getLe(bytes.data(), bytes.size(), &pos, &magic) ||
        magic != kScanMagic ||
        !getLe(bytes.data(), bytes.size(), &pos, &nproj) || nproj > 32)
        return false;
    out->schema.clear();
    for (std::uint32_t c = 0; c < nproj; ++c) {
        std::uint8_t type = 0, len = 0;
        if (!getLe(bytes.data(), bytes.size(), &pos, &type) ||
            !getLe(bytes.data(), bytes.size(), &pos, &len) || type > 2 ||
            bytes.size() - pos < len)
            return false;
        ColumnDesc d;
        d.type = static_cast<ColumnType>(type);
        d.name.assign(reinterpret_cast<const char *>(bytes.data() + pos),
                      len);
        pos += len;
        out->schema.push_back(std::move(d));
    }
    if (bytes.size() < pos + 12)
        return false;
    std::size_t tail = bytes.size() - 8;
    std::uint64_t surviving = 0;
    getLe(bytes.data(), bytes.size(), &tail, &surviving);
    const std::uint64_t row_w = groupRowBytes(out->schema);
    if (pos + surviving * row_w + 4 + 8 > bytes.size())
        return false;
    out->cells.assign(nproj, {});
    for (std::uint64_t r = 0; r < surviving; ++r) {
        for (std::uint32_t c = 0; c < nproj; ++c) {
            std::uint64_t v = 0;
            if (out->schema[c].type == ColumnType::kDictString) {
                std::uint32_t code = 0;
                getLe(bytes.data(), bytes.size(), &pos, &code);
                v = code;
            } else {
                getLe(bytes.data(), bytes.size(), &pos, &v);
            }
            out->cells[c].push_back(v);
        }
    }
    std::uint32_t dict_count = 0;
    if (!getLe(bytes.data(), bytes.size(), &pos, &dict_count))
        return false;
    out->dict.clear();
    for (std::uint32_t i = 0; i < dict_count; ++i) {
        std::uint16_t len = 0;
        if (!getLe(bytes.data(), bytes.size(), &pos, &len) ||
            bytes.size() - pos < len)
            return false;
        out->dict.emplace_back(
            reinterpret_cast<const char *>(bytes.data() + pos), len);
        pos += len;
    }
    out->rowGroupRows = 256;
    return pos == bytes.size() - 8;
}

ColumnarTableObject
genColumnarTable(std::uint64_t seed, std::uint64_t rows,
                 std::uint32_t cols, std::uint32_t row_group_rows)
{
    ColumnarTableObject t;
    t.rowGroupRows = row_group_rows;
    t.dict = {"ok", "slow", "error", "retry"};
    std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
    if (s == 0)
        s = 1;
    for (std::uint32_t c = 0; c < cols; ++c) {
        ColumnDesc d;
        if (c == 0) {
            d.name = "key";
            d.type = ColumnType::kInt64;
        } else if (c + 1 == cols && cols >= 2) {
            d.name = "status";
            d.type = ColumnType::kDictString;
        } else if (c % 2 == 1) {
            d.name = "metric_" + std::to_string(c);
            d.type = ColumnType::kFloat64;
        } else {
            d.name = "count_" + std::to_string(c);
            d.type = ColumnType::kInt64;
        }
        t.schema.push_back(d);
    }
    t.cells.assign(cols, {});
    for (std::uint64_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
            const std::uint64_t x = rngNext(&s);
            std::uint64_t v = 0;
            switch (t.schema[c].type) {
              case ColumnType::kInt64:
                v = x % 1000000;
                break;
              case ColumnType::kFloat64: {
                const double dv =
                    static_cast<double>(x % 1000000) / 1000.0;
                std::memcpy(&v, &dv, 8);
                break;
              }
              case ColumnType::kDictString:
                v = x % t.dict.size();
                break;
            }
            t.cells[c].push_back(v);
        }
    }
    return t;
}

ScanSpec
makeSelectivitySpec(double selectivity, std::uint32_t project_cols,
                    std::uint32_t total_cols)
{
    ScanSpec spec;
    if (project_cols > 0 && project_cols < total_cols && total_cols < 32)
        spec.projectionMask = (1u << project_cols) - 1;
    if (selectivity < 1.0) {
        Predicate p;
        p.column = 0;
        p.op = PredOp::kLt;
        p.literalBits = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(selectivity * 1000000.0));
        spec.preds.push_back(p);
    }
    return spec;
}

}  // namespace morpheus::serde
