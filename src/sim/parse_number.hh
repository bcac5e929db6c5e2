/** @file Strict text-to-number conversion for untrusted option text. */

#ifndef MORPHEUS_SIM_PARSE_NUMBER_HH
#define MORPHEUS_SIM_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <string_view>

namespace morpheus::sim {

/** Parse all of @p text as one finite number of type T; @return false
 *  on junk, trailing bytes, a sign an unsigned T cannot take, a value
 *  out of T's range, or NaN/infinity (@p out is then unspecified). */
template <typename T>
bool
parseNumber(std::string_view text, T *out)
{
    const char *last = text.data() + text.size();
    const auto res = std::from_chars(text.data(), last, *out);
    return res.ec == std::errc() && res.ptr == last && std::isfinite(*out);
}

}  // namespace morpheus::sim

#endif  // MORPHEUS_SIM_PARSE_NUMBER_HH
