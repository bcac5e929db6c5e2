#include "serde/csv.hh"

#include <utility>

#include "serde/le_bytes.hh"
#include "sim/digest.hh"
#include "sim/logging.hh"

namespace morpheus::serde {

using detail::getLeOrPanic;
using detail::putLe;

std::uint64_t
CsvTableObject::objectBytes() const
{
    std::uint64_t header = 4;
    for (const auto &c : columns)
        header += 1 + c.size();
    return header + 8ULL * values.size();
}

std::vector<std::uint8_t>
CsvTableObject::toBinary() const
{
    return detail::encodeToVector(*this);
}

template <typename Sink>
void
CsvTableObject::writeBinary(Sink &out) const
{
    putLe(out, static_cast<std::uint32_t>(columns.size()));
    for (const auto &c : columns) {
        MORPHEUS_ASSERT(c.size() <= 255, "column name too long");
        putLe(out, static_cast<std::uint8_t>(c.size()));
        detail::appendBytes(
            out, reinterpret_cast<const std::uint8_t *>(c.data()),
            c.size());
    }
    for (const double v : values)
        putLe(out, v);
}
template void CsvTableObject::writeBinary(std::vector<std::uint8_t> &) const;
template void CsvTableObject::writeBinary(sim::Digester &) const;

CsvTableObject
CsvTableObject::fromBinary(const std::vector<std::uint8_t> &bytes)
{
    CsvTableObject o;
    std::size_t off = 0;
    const auto ncols = getLeOrPanic<std::uint32_t>(bytes, off);
    for (std::uint32_t c = 0; c < ncols; ++c) {
        const auto len = getLeOrPanic<std::uint8_t>(bytes, off);
        MORPHEUS_ASSERT(off + len <= bytes.size(),
                        "CSV binary header truncated");
        o.columns.emplace_back(
            reinterpret_cast<const char *>(bytes.data() + off), len);
        off += len;
    }
    MORPHEUS_ASSERT((bytes.size() - off) % 8 == 0,
                    "CSV binary payload is not whole doubles");
    const std::size_t cells = (bytes.size() - off) / 8;
    MORPHEUS_ASSERT(ncols == 0 ? cells == 0 : cells % ncols == 0,
                    "CSV binary payload is not whole rows");
    o.values.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i)
        o.values.push_back(getLeOrPanic<double>(bytes, off));
    return o;
}

void
CsvTableObject::serialize(TextWriter &w, int precision) const
{
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (c > 0)
            w.appendChar(',');
        w.appendChar('"');
        w.appendLiteral(columns[c]);
        w.appendChar('"');
    }
    w.newline();
    for (std::size_t r = 0; r < numRows(); ++r) {
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (c > 0)
                w.appendChar(',');
            const double v = cell(r, c);
            if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
                w.appendInt64(static_cast<std::int64_t>(v));
            } else {
                w.appendDouble(v, precision);
            }
        }
        w.newline();
    }
}

void
CsvRowParser::feed(const std::uint8_t *data, std::size_t n)
{
    MORPHEUS_ASSERT(!_finished, "feed after finish");
    _buf.insert(_buf.end(), data, data + n);
}

CsvRowParser::Event
CsvRowParser::fail(const std::string &why)
{
    _state = State::kFailed;
    _error = why;
    return Event::kError;
}

CsvRowParser::Event
CsvRowParser::emitName(bool end_of_header)
{
    if (_token.empty() && !_fieldStarted)
        return fail("empty column name");
    _name = std::exchange(_token, {});
    _fieldStarted = false;
    if (end_of_header)
        _pendingHeaderDone = true;
    return Event::kColumnName;
}

CsvRowParser::Event
CsvRowParser::emitCell()
{
    if (_token.empty())
        return fail("empty cell");
    const auto *start =
        reinterpret_cast<const std::uint8_t *>(_token.data());
    const auto *end = start + _token.size();
    ParseCost convert;
    const std::uint8_t *next =
        parseDouble(start, end, &_value, convert);
    if (next != end)
        return fail("malformed cell: " + _token);
    _cost.floatValues += convert.floatValues;
    _cost.floatOps += convert.floatOps;
    _token.clear();
    _rowHasCells = true;
    return Event::kNumber;
}

CsvRowParser::Event
CsvRowParser::next()
{
    for (;;) {
        if (_state == State::kDone)
            return Event::kEndDocument;
        if (_state == State::kFailed)
            return Event::kError;
        if (_pendingHeaderDone) {
            _pendingHeaderDone = false;
            _state = State::kRowField;
            return Event::kHeaderDone;
        }
        if (_pendingEndRow) {
            _pendingEndRow = false;
            _rowHasCells = false;
            return Event::kEndRow;
        }

        if (_pos >= _buf.size()) {
            _buf.clear();
            _pos = 0;
            if (!_finished)
                return Event::kNeedMoreData;
            // End of input.
            if (_state == State::kHeaderField) {
                if (_fieldStarted || !_token.empty()) {
                    // Header-only document without trailing newline.
                    return emitName(/*end_of_header=*/true);
                }
                return fail("missing header row");
            }
            if (!_token.empty()) {
                _pendingEndRow = true;
                return emitCell();
            }
            if (_rowHasCells) {
                _rowHasCells = false;
                return Event::kEndRow;
            }
            _state = State::kDone;
            return Event::kEndDocument;
        }

        const std::uint8_t c = _buf[_pos];
        ++_pos;
        ++_cost.bytes;

        if (_state == State::kHeaderField) {
            if (_inQuotes) {
                if (c == '"') {
                    _inQuotes = false;
                } else {
                    _token.push_back(static_cast<char>(c));
                }
                continue;
            }
            if (c == '"' && !_fieldStarted) {
                _inQuotes = true;
                _fieldStarted = true;
                continue;
            }
            if (c == ',')
                return emitName(false);
            if (c == '\r')
                continue;
            if (c == '\n')
                return emitName(true);
            _fieldStarted = true;
            _token.push_back(static_cast<char>(c));
            continue;
        }

        // kRowField: numeric cells.
        if (c == ',') {
            return emitCell();
        }
        if (c == '\r')
            continue;
        if (c == '\n') {
            if (_token.empty() && !_rowHasCells)
                continue;  // blank line between rows
            _pendingEndRow = true;
            return emitCell();
        }
        if (c == ' ' || c == '\t')
            continue;  // padding around cells
        _token.push_back(static_cast<char>(c));
    }
}

bool
parseCsvTable(const std::uint8_t *data, std::size_t size,
              CsvTableObject *out, ParseCost *cost)
{
    CsvRowParser parser;
    parser.feed(data, size);
    parser.finish();
    CsvTableObject table;
    std::size_t row_cells = 0;
    for (;;) {
        switch (parser.next()) {
          case CsvRowParser::Event::kColumnName:
            table.columns.push_back(parser.name());
            break;
          case CsvRowParser::Event::kHeaderDone:
            break;
          case CsvRowParser::Event::kNumber:
            table.values.push_back(parser.value());
            ++row_cells;
            break;
          case CsvRowParser::Event::kEndRow:
            if (row_cells != table.columns.size())
                return false;  // ragged row
            row_cells = 0;
            break;
          case CsvRowParser::Event::kEndDocument:
            if (cost)
                *cost += parser.cost();
            *out = std::move(table);
            return true;
          case CsvRowParser::Event::kNeedMoreData:
          case CsvRowParser::Event::kError:
            return false;
        }
    }
}

}  // namespace morpheus::serde
