#include "serde/scanner.hh"

#include "sim/logging.hh"

namespace morpheus::serde {

namespace {

/** Advance past one run of non-separator bytes (a malformed token). */
const std::uint8_t *
skipToken(const std::uint8_t *p, const std::uint8_t *end, ParseCost &cost)
{
    const std::uint8_t *start = p;
    while (p < end && !isSeparator(*p))
        ++p;
    cost.bytes += static_cast<std::uint64_t>(p - start);
    return p;
}

}  // namespace

bool
TextScanner::nextInt64(std::int64_t *out)
{
    for (;;) {
        _p = skipSeparators(_p, _end, _cost);
        if (_p >= _end)
            return false;
        const std::uint8_t *next = parseInt64(_p, _end, out, _cost);
        if (next) {
            _p = next;
            return true;
        }
        _p = skipToken(_p, _end, _cost);  // malformed token: skip it
    }
}

bool
TextScanner::nextDouble(double *out)
{
    for (;;) {
        _p = skipSeparators(_p, _end, _cost);
        if (_p >= _end)
            return false;
        const std::uint8_t *next = parseDouble(_p, _end, out, _cost);
        if (next) {
            _p = next;
            return true;
        }
        _p = skipToken(_p, _end, _cost);
    }
}

bool
TextScanner::nextNumber(double *out, bool *is_float)
{
    for (;;) {
        _p = skipSeparators(_p, _end, _cost);
        if (_p >= _end)
            return false;
        const bool looks_float = tokenLooksFloat(_p, _end);
        const std::uint8_t *next;
        if (looks_float) {
            next = parseDouble(_p, _end, out, _cost);
        } else {
            std::int64_t v = 0;
            next = parseInt64(_p, _end, &v, _cost);
            if (next)
                *out = static_cast<double>(v);
        }
        if (next) {
            if (is_float)
                *is_float = looks_float;
            _p = next;
            return true;
        }
        _p = skipToken(_p, _end, _cost);
    }
}

bool
TextScanner::atEnd()
{
    _p = skipSeparators(_p, _end, _cost);
    return _p >= _end;
}

StreamingScanner::StreamingScanner(Refill refill, std::size_t chunk_bytes,
                                   bool incremental)
    : _refill(std::move(refill)), _chunkBytes(chunk_bytes),
      _incremental(incremental), _finalized(!incremental)
{
    MORPHEUS_ASSERT(_refill, "StreamingScanner needs a refill callback");
    MORPHEUS_ASSERT(_chunkBytes > 0, "StreamingScanner chunk must be > 0");
}

bool
StreamingScanner::pull()
{
    if (_exhausted)
        return false;
    // Compact the consumed prefix before appending.
    if (_pos > 0) {
        _buf.erase(_buf.begin(),
                   _buf.begin() + static_cast<std::ptrdiff_t>(_pos));
        _pos = 0;
    }
    const std::size_t old = _buf.size();
    _buf.resize(old + _chunkBytes);
    const std::size_t got = _refill(_buf.data() + old, _chunkBytes);
    MORPHEUS_ASSERT(got <= _chunkBytes, "refill overran its capacity");
    _buf.resize(old + got);
    ++_refills;
    if (got == 0) {
        if (_finalized)
            _exhausted = true;
        return false;
    }
    return true;
}

template <typename Parse>
bool
StreamingScanner::nextToken(Parse parse)
{
    for (;;) {
        // Consume leading separators.
        while (_pos < _buf.size() && isSeparator(_buf[_pos])) {
            ++_pos;
            ++_cost.bytes;
        }
        if (_pos == _buf.size()) {
            if (!pull())
                return false;  // nothing available (now or ever)
            continue;
        }
        const std::uint8_t *start = _buf.data() + _pos;
        const std::uint8_t *end = _buf.data() + _buf.size();
        ParseCost cost;
        const std::uint8_t *next = parse(start, end, cost);
        // The token closes at the next separator; a parsed value
        // usually stops right on it.
        const std::uint8_t *stop = next ? next : start;
        while (stop < end && !isSeparator(*stop))
            ++stop;
        if (stop == end && !_exhausted) {
            // The token may continue in data not yet pulled. If the
            // stream just ended, parse the token again as complete;
            // if it is open but dry, leave the token buffered.
            if (!pull() && !_exhausted)
                return false;
            continue;
        }
        if (next) {
            _cost += cost;
            _pos += static_cast<std::size_t>(next - start);
            return true;
        }
        // Malformed token: skip it.
        _cost.bytes += static_cast<std::uint64_t>(stop - start);
        _pos += static_cast<std::size_t>(stop - start);
    }
}

bool
StreamingScanner::nextInt64(std::int64_t *out)
{
    std::int64_t v = 0;
    if (!nextToken([&v](const std::uint8_t *p, const std::uint8_t *end,
                        ParseCost &cost) {
            return parseInt64(p, end, &v, cost);
        }))
        return false;
    *out = v;
    return true;
}

std::size_t
StreamingScanner::nextInt64s(std::int64_t *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max &&
           nextToken([out, n](const std::uint8_t *p, const std::uint8_t *end,
                              ParseCost &cost) {
               return parseInt64(p, end, out + n, cost);
           }))
        ++n;
    return n;
}

bool
StreamingScanner::nextDouble(double *out)
{
    double v = 0.0;
    if (!nextToken([&v](const std::uint8_t *p, const std::uint8_t *end,
                        ParseCost &cost) {
            return parseDouble(p, end, &v, cost);
        }))
        return false;
    *out = v;
    return true;
}

bool
StreamingScanner::nextNumber(double *out, bool *is_float)
{
    double v = 0.0;
    bool looks_float = false;
    if (!nextToken([&v, &looks_float](const std::uint8_t *p,
                                      const std::uint8_t *end,
                                      ParseCost &cost) {
            looks_float = tokenLooksFloat(p, end);
            if (looks_float)
                return parseDouble(p, end, &v, cost);
            std::int64_t i = 0;
            const std::uint8_t *next = parseInt64(p, end, &i, cost);
            v = static_cast<double>(i);
            return next;
        }))
        return false;
    *out = v;
    if (is_float)
        *is_float = looks_float;
    return true;
}

bool
StreamingScanner::atEnd()
{
    // A zero-length "parse" accepts any complete token, consuming
    // nothing.
    return !nextToken([](const std::uint8_t *p, const std::uint8_t *,
                         ParseCost &) { return p; });
}

}  // namespace morpheus::serde
