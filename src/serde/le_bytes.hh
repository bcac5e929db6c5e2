/**
 * @file
 * Little-endian byte helpers shared by the serde binary layouts
 * (internal to src/serde; the host is little-endian, so a value's
 * in-memory bytes are its encoding).
 */

#ifndef MORPHEUS_SERDE_LE_BYTES_HH
#define MORPHEUS_SERDE_LE_BYTES_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace morpheus::serde::detail {

/** Append the little-endian bytes of @p v. */
template <typename T>
void
putLe(std::vector<std::uint8_t> &out, T v)
{
    // resize+memcpy rather than a range-insert: GCC 12's
    // -Wstringop-overflow misfires on vector::insert of tiny
    // stack-array ranges.
    const std::size_t pos = out.size();
    out.resize(pos + sizeof(T));
    std::memcpy(out.data() + pos, &v, sizeof(T));
}

/**
 * Read a little-endian value at @p *pos into @p *out, advancing
 * @p *pos. Bounds-checked, never asserting, since it also reads
 * untrusted flash bytes. @return false (nothing read) on short input.
 */
template <typename T>
bool
getLe(const std::uint8_t *data, std::size_t size, std::size_t *pos, T *out)
{
    if (size - *pos < sizeof(T))
        return false;
    std::memcpy(out, data + *pos, sizeof(T));
    *pos += sizeof(T);
    return true;
}

/** getLe for a binary object this program encoded: short input is a
 *  bug, so it panics. */
template <typename T>
T
getLeOrPanic(const std::vector<std::uint8_t> &in, std::size_t &off)
{
    T v{};
    const bool ok = getLe(in.data(), in.size(), &off, &v);
    MORPHEUS_ASSERT(ok, "binary object truncated");
    return v;
}

}  // namespace morpheus::serde::detail

#endif  // MORPHEUS_SERDE_LE_BYTES_HH
