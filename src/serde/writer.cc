#include "serde/writer.hh"

#include <array>
#include <charconv>

#include "sim/logging.hh"

namespace morpheus::serde {

void
TextWriter::appendInt64(std::int64_t v)
{
    std::array<char, 24> tmp;
    const auto [end, ec] =
        std::to_chars(tmp.data(), tmp.data() + tmp.size(), v);
    MORPHEUS_ASSERT(ec == std::errc{}, "integer formatting overflow");
    appendLiteral(std::string_view(tmp.data(), static_cast<std::size_t>(
                                                   end - tmp.data())));
}

void
TextWriter::appendDouble(double v, int precision)
{
    MORPHEUS_ASSERT(precision >= 0 && precision <= 17,
                    "unsupported precision");
    // Fixed notation with a precision prints what printf("%.*f") does,
    // byte for byte; the largest double needs 309 integer digits.
    std::array<char, 352> tmp;
    const auto [end, ec] =
        std::to_chars(tmp.data(), tmp.data() + tmp.size(), v,
                      std::chars_format::fixed, precision);
    MORPHEUS_ASSERT(ec == std::errc{}, "double formatting overflow");
    appendLiteral(std::string_view(tmp.data(), static_cast<std::size_t>(
                                                   end - tmp.data())));
}

void
TextWriter::appendLiteral(std::string_view s)
{
    _buf.insert(_buf.end(), s.begin(), s.end());
}

}  // namespace morpheus::serde
