/**
 * @file
 * Token scanners over contiguous and chunked byte sources.
 *
 * TextScanner walks one contiguous buffer. StreamingScanner pulls data
 * through a refill callback and carries partial tokens across chunk
 * boundaries — exactly what a StorageApp sees when the Morpheus runtime
 * feeds it MDTS-sized MREAD chunks.
 */

#ifndef MORPHEUS_SERDE_SCANNER_HH
#define MORPHEUS_SERDE_SCANNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "serde/parse.hh"

namespace morpheus::serde {

/** Sequential token scanner over a contiguous byte range. */
class TextScanner
{
  public:
    TextScanner(const std::uint8_t *data, std::size_t size)
        : _p(data), _end(data + size)
    {}

    /** Parse the next integer token. @return false at end of input. */
    bool nextInt64(std::int64_t *out);

    /** Parse the next floating-point token. */
    bool nextDouble(double *out);

    /**
     * Parse the next token as whichever type it looks like; ints are
     * stored exactly, floats converted. @p is_float reports which.
     */
    bool nextNumber(double *out, bool *is_float);

    /** True when only separators remain. */
    bool atEnd();

    /** Operation accounting so far. */
    const ParseCost &cost() const { return _cost; }

  private:
    const std::uint8_t *_p;
    const std::uint8_t *_end;
    ParseCost _cost;
};

/**
 * Token scanner over a chunked source.
 *
 * The refill callback copies up to @c capacity bytes into @c dst and
 * returns the count (0 at end of stream). Tokens split across refills
 * are handled by carrying the unconsumed tail into the next buffer, so
 * parse results are identical to a contiguous scan of the whole stream.
 */
class StreamingScanner
{
  public:
    using Refill =
        std::function<std::size_t(std::uint8_t *dst, std::size_t capacity)>;

    /**
     * @param refill      Source callback.
     * @param chunk_bytes Working buffer size; tokens longer than this
     *                    are a caller error (numbers never are).
     * @param incremental When true, a refill returning 0 means "no more
     *                    data *yet*": next*() returns false but the
     *                    scanner resumes (carrying any partial token)
     *                    once more data is available; the stream only
     *                    truly ends after setEndOfStream(). This is the
     *                    mode a StorageApp uses across MREAD chunks.
     */
    StreamingScanner(Refill refill, std::size_t chunk_bytes,
                     bool incremental = false);

    /** Incremental mode: declare that no further data will arrive. */
    void setEndOfStream() { _finalized = true; }

    bool nextInt64(std::int64_t *out);
    bool nextDouble(double *out);
    bool nextNumber(double *out, bool *is_float);

    /**
     * Read up to @p max integer tokens into @p out: the same tokens and
     * cost as that many nextInt64() calls, stopping where one would
     * return false. @return the number read; slots past it may be
     * overwritten.
     */
    std::size_t nextInt64s(std::int64_t *out, std::size_t max);

    /** True when no complete token is available (now, if incremental). */
    bool atEnd();

    const ParseCost &cost() const { return _cost; }

    /** Number of refill calls made (one per chunk pulled). */
    std::uint64_t refills() const { return _refills; }

  private:
    /**
     * Skip separators and parse the next token in place with
     * @p parse(start, end, cost), which returns the end of the value or
     * nullptr for a malformed token. The result is kept only once a
     * separator or the end of the stream closes the token; a token that
     * runs to the buffer end pulls more data and is parsed again.
     * Malformed tokens are skipped. @return false when no complete
     * token is available.
     */
    template <typename Parse>
    bool nextToken(Parse parse);

    /** Pull one chunk, appending after the carried tail. */
    bool pull();

    Refill _refill;
    std::vector<std::uint8_t> _buf;
    std::size_t _chunkBytes;
    std::size_t _pos = 0;     // consumed prefix of _buf
    bool _incremental = false;
    bool _finalized = true;   // non-incremental streams end at refill==0
    bool _exhausted = false;  // no data remains, ever
    std::uint64_t _refills = 0;
    ParseCost _cost;
};

}  // namespace morpheus::serde

#endif  // MORPHEUS_SERDE_SCANNER_HH
