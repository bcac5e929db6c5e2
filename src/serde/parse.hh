/**
 * @file
 * Low-level ASCII number scanning with operation accounting.
 *
 * These routines do the real work of deserialization in this repository:
 * they convert byte ranges into binary values, and they count every
 * operation class the timing models need (bytes scanned, integer and
 * floating-point conversions). The same functions execute on behalf of
 * the host-CPU model (baseline) and the SSD embedded-core model
 * (Morpheus); only the attached cost model differs.
 */

#ifndef MORPHEUS_SERDE_PARSE_HH
#define MORPHEUS_SERDE_PARSE_HH

#include <cstddef>
#include <cstdint>

namespace morpheus::serde {

/**
 * Operation counts accumulated while parsing; consumed by
 * host::CpuCostModel and ssd::EmbeddedCoreCostModel.
 */
struct ParseCost
{
    /** Bytes examined (including separators). */
    std::uint64_t bytes = 0;
    /** Integer values converted. */
    std::uint64_t intValues = 0;
    /** Floating-point values converted. */
    std::uint64_t floatValues = 0;
    /** Floating-point arithmetic ops performed during conversion. */
    std::uint64_t floatOps = 0;

    ParseCost &
    operator+=(const ParseCost &o)
    {
        bytes += o.bytes;
        intValues += o.intValues;
        floatValues += o.floatValues;
        floatOps += o.floatOps;
        return *this;
    }
};

/**
 * True for the token separators used by the text formats here. NUL is
 * a separator so block-granular transfers (NVMe pads files to 512-byte
 * blocks) parse identically to the exact byte stream.
 */
constexpr bool
isSeparator(std::uint8_t c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',' ||
           c == '\0';
}

/** True for ASCII decimal digits. */
constexpr bool
isDigit(std::uint8_t c)
{
    return c >= '0' && c <= '9';
}

/**
 * Advance past leading separators.
 *
 * @param p     Start of the range.
 * @param end   One past the end of the range.
 * @param cost  Accounting sink (bytes consumed are added).
 * @return Pointer to the first non-separator byte (or @p end).
 */
const std::uint8_t *skipSeparators(const std::uint8_t *p,
                                   const std::uint8_t *end,
                                   ParseCost &cost);

/**
 * Parse one signed decimal integer at @p p. Inline: the scanners call
 * it once per token.
 *
 * @param p     First byte of the token (no leading separators).
 * @param end   One past the end of the range.
 * @param out   Receives the parsed value on success.
 * @param cost  Accounting sink.
 * @return Pointer just past the consumed token, or nullptr if no valid
 *         integer starts at @p p.
 */
inline const std::uint8_t *
parseInt64(const std::uint8_t *p, const std::uint8_t *end,
           std::int64_t *out, ParseCost &cost)
{
    const std::uint8_t *start = p;
    bool negative = false;
    if (p < end && (*p == '-' || *p == '+')) {
        negative = (*p == '-');
        ++p;
    }
    if (p >= end || !isDigit(*p))
        return nullptr;
    // Accumulate the magnitude unsigned. 18 digits always fit in
    // int64_t; a longer run is summed again with a range check, and a
    // value outside int64_t is a malformed token.
    const std::uint8_t *digits = p;
    std::uint64_t mag = 0;
    while (p < end && isDigit(*p)) {
        mag = mag * 10 + static_cast<std::uint64_t>(*p - '0');
        ++p;
    }
    if (p - digits > 18) {
        // Past kCut no digit fits; at kCut only one up to 7 (8 for
        // -2^63).
        constexpr std::uint64_t kCut = (std::uint64_t(1) << 63) / 10;
        const std::uint64_t last_digit = negative ? 8 : 7;
        mag = 0;
        for (const std::uint8_t *q = digits; q < p; ++q) {
            const auto d = static_cast<std::uint64_t>(*q - '0');
            if (mag > kCut || (mag == kCut && d > last_digit))
                return nullptr;
            mag = mag * 10 + d;
        }
    }
    *out = static_cast<std::int64_t>(negative ? 0 - mag : mag);
    cost.bytes += static_cast<std::uint64_t>(p - start);
    ++cost.intValues;
    return p;
}

/**
 * Parse one decimal floating-point number (optional sign, fraction and
 * e/E exponent) at @p p. Same contract as parseInt64(). The value is
 * correctly rounded, as strtod's; a token without a mantissa digit
 * ("." or "-.") or outside double's range ("1e400") is malformed.
 */
const std::uint8_t *parseDouble(const std::uint8_t *p,
                                const std::uint8_t *end, double *out,
                                ParseCost &cost);

/**
 * True when the token starting at @p p (which must not be a separator)
 * contains a '.', 'e', or 'E' before the next separator — i.e., it
 * needs floating-point conversion.
 */
bool tokenLooksFloat(const std::uint8_t *p, const std::uint8_t *end);

}  // namespace morpheus::serde

#endif  // MORPHEUS_SERDE_PARSE_HH
