/**
 * @file
 * Streaming 128-bit digest of a byte sequence.
 *
 * Validation compares a produced object's bytes with the prepared
 * input's by digest, so neither side needs a full copy of the other.
 * The digest depends only on the bytes and their count, never on how
 * they were split across append() calls: a range read chunk by chunk
 * digests like the same bytes held contiguously.
 *
 * It is not cryptographic. It guards against simulator bugs, not
 * adversaries: four 64-bit lanes of xxHash64 rounds over 32-byte
 * stripes, folded two ways into the two output words.
 */

#ifndef MORPHEUS_SIM_DIGEST_HH
#define MORPHEUS_SIM_DIGEST_HH

#include <cstdint>
#include <cstring>

namespace morpheus::sim {

/** A 128-bit digest value. */
struct Digest128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool operator==(const Digest128 &) const = default;
};

/** Accumulates bytes into a Digest128. A byte sink: append() is the
 *  interface the serde binary encoders write through. */
class Digester
{
  public:
    void
    append(const std::uint8_t *data, std::size_t n)
    {
        if (n == 0)
            return;
        _length += n;
        if (_buffered + n < kStripe) {
            std::memcpy(_buf + _buffered, data, n);
            _buffered += n;
            return;
        }
        if (_buffered > 0) {
            const std::size_t fill = kStripe - _buffered;
            std::memcpy(_buf + _buffered, data, fill);
            stripe(_buf);
            data += fill;
            n -= fill;
            _buffered = 0;
        }
        for (; n >= kStripe; data += kStripe, n -= kStripe)
            stripe(data);
        std::memcpy(_buf, data, n);
        _buffered = n;
    }

    /** The digest of everything appended so far. */
    Digest128
    finish() const
    {
        Digester d = *this;
        if (d._buffered > 0) {
            // Zero padding is unambiguous: the length is folded in.
            std::memset(d._buf + d._buffered, 0, kStripe - d._buffered);
            d.stripe(d._buf);
        }
        const std::uint64_t *v = d._lanes;
        std::uint64_t lo = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) +
                           rotl(v[3], 18);
        std::uint64_t hi = rotl(v[0], 29) ^ rotl(v[1], 41) ^
                           rotl(v[2], 53) ^ v[3];
        for (const std::uint64_t lane : d._lanes) {
            lo = (lo ^ round(0, lane)) * kP1 + kP4;
            hi = (hi ^ round(kP5, lane)) * kP2 + kP3;
        }
        return {avalanche(lo + _length), avalanche(hi ^ (_length * kP5))};
    }

  private:
    static constexpr std::size_t kStripe = 32;
    static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
    static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
    static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
    static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
    static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

    static std::uint64_t
    rotl(std::uint64_t x, int r)
    {
        return (x << r) | (x >> (64 - r));
    }

    /** One xxHash64 round: a bijection of @p acc for a fixed @p in, so
     *  a changed input word leaves its lane changed for good. */
    static std::uint64_t
    round(std::uint64_t acc, std::uint64_t in)
    {
        return rotl(acc + in * kP2, 31) * kP1;
    }

    static std::uint64_t
    avalanche(std::uint64_t h)
    {
        h ^= h >> 33;
        h *= kP2;
        h ^= h >> 29;
        h *= kP3;
        return h ^ (h >> 32);
    }

    void
    stripe(const std::uint8_t *p)
    {
        for (std::uint64_t &lane : _lanes) {
            std::uint64_t word;
            std::memcpy(&word, p, sizeof(word));
            lane = round(lane, word);
            p += sizeof(word);
        }
    }

    std::uint64_t _lanes[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    std::uint8_t _buf[kStripe] = {};
    std::size_t _buffered = 0;
    std::uint64_t _length = 0;
};

}  // namespace morpheus::sim

#endif  // MORPHEUS_SIM_DIGEST_HH
