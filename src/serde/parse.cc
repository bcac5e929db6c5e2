#include "serde/parse.hh"

#include <charconv>
#include <system_error>

namespace morpheus::serde {

const std::uint8_t *
skipSeparators(const std::uint8_t *p, const std::uint8_t *end,
               ParseCost &cost)
{
    const std::uint8_t *start = p;
    while (p < end && isSeparator(*p))
        ++p;
    cost.bytes += static_cast<std::uint64_t>(p - start);
    return p;
}

const std::uint8_t *
parseDouble(const std::uint8_t *p, const std::uint8_t *end, double *out,
            ParseCost &cost)
{
    const std::uint8_t *start = p;
    bool negative = false;
    if (p < end && (*p == '-' || *p == '+')) {
        negative = (*p == '-');
        ++p;
    }
    const auto skip_digits = [end](const std::uint8_t *q) {
        while (q < end && isDigit(*q))
            ++q;
        return q;
    };

    // Walk the token to find where the number ends, and charge it as a
    // strtod-style parser costs: the mantissa accumulates in integer
    // arithmetic and converts to floating point once, so the float-op
    // count is per value, not per digit.
    const std::uint8_t *digits = p;
    std::uint64_t fops = 2;  // int->double convert + sign select
    p = skip_digits(p);
    bool has_digits = p > digits;
    if (p < end && *p == '.') {
        const std::uint8_t *frac = p + 1;
        p = skip_digits(frac);
        has_digits = has_digits || p > frac;
        fops += 3;  // fraction convert + scale + add
    }
    if (!has_digits)
        return nullptr;  // "." or a bare sign is not a number
    if (p < end && (*p == 'e' || *p == 'E')) {
        const std::uint8_t *exp = p + 1;
        if (exp < end && (*exp == '-' || *exp == '+'))
            ++exp;
        // Trailing 'e' with no digits is not part of the number.
        if (exp < end && isDigit(*exp)) {
            p = skip_digits(exp);
            fops += 6;  // exponent scale (table lookup + multiplies)
        }
    }

    // The value is one correctly rounded conversion of the unsigned
    // span (std::from_chars rounds as strtod does), so text written
    // from a double reads back as the same double. A value outside
    // double's range is a malformed token, as in parseInt64().
    double value = 0.0;
    const auto res =
        std::from_chars(reinterpret_cast<const char *>(digits),
                        reinterpret_cast<const char *>(p), value);
    if (res.ec != std::errc())
        return nullptr;

    *out = negative ? -value : value;
    cost.bytes += static_cast<std::uint64_t>(p - start);
    ++cost.floatValues;
    cost.floatOps += fops;
    return p;
}

bool
tokenLooksFloat(const std::uint8_t *p, const std::uint8_t *end)
{
    while (p < end && !isSeparator(*p)) {
        if (*p == '.' || *p == 'e' || *p == 'E')
            return true;
        ++p;
    }
    return false;
}

}  // namespace morpheus::serde
