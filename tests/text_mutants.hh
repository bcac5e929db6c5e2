/**
 * @file
 * Helpers for the seeded text-parser fuzz tests (CsvFuzz, JsonFuzz):
 * mutate a valid document, feed a chunked parser random-size pieces,
 * and compare parsed cells bit for bit.
 */

#ifndef MORPHEUS_TESTS_TEXT_MUTANTS_HH
#define MORPHEUS_TESTS_TEXT_MUTANTS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/rng.hh"

namespace morpheus::test {

/**
 * Apply one to three random edits to @p text: a bit flip, a byte
 * overwrite, one of the format's @p specials (quotes, separators)
 * inserted or written over a byte, or a truncation.
 */
inline void
mutateText(std::vector<std::uint8_t> &text, sim::Rng &rng,
           std::string_view specials)
{
    for (std::uint64_t e = rng.nextBelow(3) + 1; e > 0 && !text.empty();
         --e) {
        const std::size_t at = rng.nextBelow(text.size());
        const auto special = static_cast<std::uint8_t>(
            specials[rng.nextBelow(specials.size())]);
        switch (rng.nextBelow(5)) {
          case 0:
            text[at] ^= static_cast<std::uint8_t>(1u << rng.nextBelow(8));
            break;
          case 1:
            text[at] = static_cast<std::uint8_t>(rng.nextBelow(256));
            break;
          case 2:
            text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                        special);
            break;
          case 3:
            text[at] = special;
            break;
          default:
            text.resize(rng.nextBelow(text.size() + 1));
            break;
        }
    }
}

/** Feeds a chunked parser a document in random-size pieces. */
class PieceFeeder
{
  public:
    PieceFeeder(const std::vector<std::uint8_t> &text, sim::Rng &rng)
        : _text(text), _rng(rng)
    {}

    /**
     * Answer the parser's kNeedMoreData with the next piece (1 to 512
     * bytes), or finish() once the text is used up. @return false when
     * the parser asks for more after finish(): the document is cut.
     */
    template <typename Parser>
    bool
    feed(Parser &parser)
    {
        if (_finished)
            return false;
        const std::size_t n = std::min<std::size_t>(
            _rng.nextBelow(512) + 1, _text.size() - _pos);
        if (n == 0) {
            parser.finish();
            _finished = true;
        } else {
            parser.feed(_text.data() + _pos, n);
            _pos += n;
        }
        return true;
    }

  private:
    const std::vector<std::uint8_t> &_text;
    sim::Rng &_rng;
    std::size_t _pos = 0;
    bool _finished = false;
};

/** Equal cell values, bit for bit (so a NaN cell equals itself). */
inline bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](double x, double y) {
                          return std::bit_cast<std::uint64_t>(x) ==
                                 std::bit_cast<std::uint64_t>(y);
                      });
}

}  // namespace morpheus::test

#endif  // MORPHEUS_TESTS_TEXT_MUTANTS_HH
