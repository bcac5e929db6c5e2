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

/**
 * Append @p n bytes to a byte sink. The binary encoders write through
 * a sink so one encoder both builds a vector and feeds a digest
 * (sim::Digester) without materializing the bytes.
 */
inline void
appendBytes(std::vector<std::uint8_t> &out, const std::uint8_t *data,
            std::size_t n)
{
    // resize+memcpy rather than a range-insert: GCC 12's
    // -Wstringop-overflow misfires on vector::insert of tiny
    // stack-array ranges.
    const std::size_t pos = out.size();
    out.resize(pos + n);
    std::memcpy(out.data() + pos, data, n);
}

/** Any other sink takes its bytes through append(). */
template <typename Sink>
void
appendBytes(Sink &out, const std::uint8_t *data, std::size_t n)
{
    out.append(data, n);
}

/** Append the little-endian bytes of @p v. */
template <typename T, typename Sink>
void
putLe(Sink &out, T v)
{
    appendBytes(out, reinterpret_cast<const std::uint8_t *>(&v),
                sizeof(T));
}

/** @p obj's binary encoding (its writeBinary()) as a vector. */
template <typename Obj>
std::vector<std::uint8_t>
encodeToVector(const Obj &obj)
{
    std::vector<std::uint8_t> out;
    out.reserve(obj.objectBytes());
    obj.writeBinary(out);
    return out;
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
