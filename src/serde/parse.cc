#include "serde/parse.hh"

#include <cmath>

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
    if (p >= end || (!isDigit(*p) && *p != '.'))
        return nullptr;

    // Accumulate the mantissa in integer arithmetic (how real
    // strtod-style parsers work), converting to floating point once:
    // the float-op count is therefore per value, not per digit.
    double value = 0.0;
    std::uint64_t fops = 0;
    while (p < end && isDigit(*p)) {
        value = value * 10.0 + static_cast<double>(*p - '0');
        ++p;
    }
    fops += 2;  // int->double convert + sign select
    if (p < end && *p == '.') {
        ++p;
        double scale = 0.1;
        while (p < end && isDigit(*p)) {
            value += scale * static_cast<double>(*p - '0');
            scale *= 0.1;
            ++p;
        }
        fops += 3;  // fraction convert + scale + add
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        const std::uint8_t *exp_start = p;
        ++p;
        bool exp_negative = false;
        if (p < end && (*p == '-' || *p == '+')) {
            exp_negative = (*p == '-');
            ++p;
        }
        if (p < end && isDigit(*p)) {
            int exponent = 0;
            while (p < end && isDigit(*p)) {
                exponent = exponent * 10 + (*p - '0');
                ++p;
            }
            value *= std::pow(10.0, exp_negative ? -exponent : exponent);
            fops += 6;  // exponent scale (table lookup + multiplies)
        } else {
            // Trailing 'e' with no digits is not part of the number.
            p = exp_start;
        }
    }

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
