#include "serde/json.hh"

#include "serde/le_bytes.hh"
#include "sim/digest.hh"
#include "sim/logging.hh"

namespace morpheus::serde {

using detail::getLeOrPanic;
using detail::putLe;

namespace {

constexpr bool
isJsonWs(std::uint8_t c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

constexpr bool
isNumberChar(std::uint8_t c)
{
    return isDigit(c) || c == '-' || c == '+' || c == '.' || c == 'e' ||
           c == 'E';
}

/** End-of-stream marker in the record-framed binary layout. */
constexpr std::uint32_t kEndMarker = 0xFFFFFFFFu;

}  // namespace

std::uint64_t
JsonRecordsObject::objectBytes() const
{
    // Record-framed stream: per record a u32 count + f64 values, then
    // one u32 end marker (streamable: no global header needed).
    return 4ULL * (numRecords() + 1) + 8ULL * values.size();
}

std::vector<std::uint8_t>
JsonRecordsObject::toBinary() const
{
    return detail::encodeToVector(*this);
}

template <typename Sink>
void
JsonRecordsObject::writeBinary(Sink &out) const
{
    for (std::size_t r = 0; r < numRecords(); ++r) {
        const std::uint32_t begin = recordOffsets[r];
        const std::uint32_t end = recordOffsets[r + 1];
        putLe(out, end - begin);
        for (std::uint32_t i = begin; i < end; ++i)
            putLe(out, values[i]);
    }
    putLe(out, kEndMarker);
}
template void
JsonRecordsObject::writeBinary(std::vector<std::uint8_t> &) const;
template void JsonRecordsObject::writeBinary(sim::Digester &) const;

JsonRecordsObject
JsonRecordsObject::fromBinary(const std::vector<std::uint8_t> &bytes)
{
    JsonRecordsObject o;
    std::size_t off = 0;
    for (;;) {
        const auto count = getLeOrPanic<std::uint32_t>(bytes, off);
        if (count == kEndMarker)
            break;
        for (std::uint32_t i = 0; i < count; ++i)
            o.values.push_back(getLeOrPanic<double>(bytes, off));
        o.recordOffsets.push_back(
            static_cast<std::uint32_t>(o.values.size()));
    }
    return o;
}

void
JsonRecordsObject::serialize(TextWriter &w, int precision) const
{
    w.appendChar('[');
    for (std::size_t r = 0; r < numRecords(); ++r) {
        if (r > 0)
            w.appendLiteral(", ");
        w.appendChar('[');
        for (std::uint32_t i = recordOffsets[r];
             i < recordOffsets[r + 1]; ++i) {
            if (i > recordOffsets[r])
                w.appendLiteral(", ");
            const double v = values[i];
            if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
                w.appendInt64(static_cast<std::int64_t>(v));
            } else {
                w.appendDouble(v, precision);
            }
        }
        w.appendChar(']');
    }
    w.appendChar(']');
    w.newline();
}

void
JsonRowParser::feed(const std::uint8_t *data, std::size_t n)
{
    MORPHEUS_ASSERT(!_finished, "feed after finish");
    _buf.insert(_buf.end(), data, data + n);
}

JsonRowParser::Event
JsonRowParser::fail(const std::string &why)
{
    _state = State::kFailed;
    _error = why;
    return Event::kError;
}

JsonRowParser::Event
JsonRowParser::emitNumber()
{
    const auto *start =
        reinterpret_cast<const std::uint8_t *>(_numberToken.data());
    const auto *end = start + _numberToken.size();
    // Bytes were already counted while accumulating the token; only
    // the conversion-op accounting from parseDouble is merged.
    ParseCost convert;
    const std::uint8_t *next = parseDouble(start, end, &_value, convert);
    if (next != end)
        return fail("malformed number: " + _numberToken);
    _cost.floatValues += convert.floatValues;
    _cost.floatOps += convert.floatOps;
    _numberToken.clear();
    _commaPending = false;
    _state = State::kAfterValue;
    return Event::kNumber;
}

JsonRowParser::Event
JsonRowParser::next()
{
    for (;;) {
        if (_state == State::kDone)
            return Event::kEndDocument;
        if (_state == State::kFailed)
            return Event::kError;

        // A (possibly partial) number token is being accumulated.
        if (!_numberToken.empty() ||
            (_state == State::kExpectValueOrEnd && _pos < _buf.size() &&
             isNumberChar(_buf[_pos]))) {
            while (_pos < _buf.size() && isNumberChar(_buf[_pos])) {
                _numberToken.push_back(
                    static_cast<char>(_buf[_pos++]));
                ++_cost.bytes;
            }
            if (_pos >= _buf.size() && !_finished) {
                // The number may continue in the next chunk.
                _buf.clear();
                _pos = 0;
                return Event::kNeedMoreData;
            }
            return emitNumber();
        }

        while (_pos < _buf.size() && isJsonWs(_buf[_pos])) {
            ++_pos;
            ++_cost.bytes;
        }
        if (_pos >= _buf.size()) {
            _buf.clear();
            _pos = 0;
            if (!_finished)
                return Event::kNeedMoreData;
            return fail("truncated document");
        }

        const std::uint8_t c = _buf[_pos];
        auto consume = [this] {
            ++_pos;
            ++_cost.bytes;
        };
        switch (_state) {
          case State::kExpectOuterOpen:
            if (c != '[')
                return fail("expected '['");
            consume();
            _state = State::kExpectRecordOrEnd;
            break;
          case State::kExpectRecordOrEnd:
            if (c == '[') {
                consume();
                _commaPending = false;
                _state = State::kExpectValueOrEnd;
                return Event::kBeginRecord;
            }
            if (c == ']') {
                if (_commaPending)
                    return fail("trailing ',' before ']'");
                consume();
                _state = State::kDone;
                return Event::kEndDocument;
            }
            return fail("expected '[' or ']' at record level");
          case State::kExpectValueOrEnd:
            if (c == ']') {
                if (_commaPending)
                    return fail("trailing ',' before ']'");
                consume();
                _state = State::kAfterRecord;
                return Event::kEndRecord;
            }
            if (isNumberChar(c))
                break;  // re-enter the number branch at the loop head
            return fail("expected number or ']' in record");
          case State::kAfterValue:
            if (c == ',') {
                consume();
                _commaPending = true;
                _state = State::kExpectValueOrEnd;
                break;
            }
            if (c == ']') {
                consume();
                _state = State::kAfterRecord;
                return Event::kEndRecord;
            }
            return fail("expected ',' or ']' after value");
          case State::kAfterRecord:
            if (c == ',') {
                consume();
                _commaPending = true;
                _state = State::kExpectRecordOrEnd;
                break;
            }
            if (c == ']') {
                consume();
                _state = State::kDone;
                return Event::kEndDocument;
            }
            return fail("expected ',' or ']' after record");
          case State::kDone:
          case State::kFailed:
            break;  // handled at loop head
        }
    }
}

bool
parseJsonRecords(const std::uint8_t *data, std::size_t size,
                 JsonRecordsObject *out, ParseCost *cost)
{
    JsonRowParser parser;
    parser.feed(data, size);
    parser.finish();
    JsonRecordsObject obj;
    for (;;) {
        switch (parser.next()) {
          case JsonRowParser::Event::kBeginRecord:
            break;
          case JsonRowParser::Event::kNumber:
            obj.values.push_back(parser.value());
            break;
          case JsonRowParser::Event::kEndRecord:
            obj.recordOffsets.push_back(
                static_cast<std::uint32_t>(obj.values.size()));
            break;
          case JsonRowParser::Event::kEndDocument:
            if (cost)
                *cost += parser.cost();
            *out = std::move(obj);
            return true;
          case JsonRowParser::Event::kNeedMoreData:
          case JsonRowParser::Event::kError:
            return false;
        }
    }
}

}  // namespace morpheus::serde
