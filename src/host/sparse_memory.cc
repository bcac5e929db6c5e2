#include "host/sparse_memory.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace morpheus::host {

void
SparseMemory::write(std::uint64_t addr, const std::uint8_t *data,
                    std::size_t n)
{
    MORPHEUS_ASSERT(addr + n <= _size, "write past end of memory: addr=",
                    addr, " n=", n, " size=", _size);
    std::size_t done = 0;
    while (done < n) {
        const std::uint64_t a = addr + done;
        const std::uint64_t chunk = a / kChunkBytes;
        const std::uint64_t off = a % kChunkBytes;
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - done, kChunkBytes - off));
        auto &buf = _chunks[chunk];
        if (buf.empty())
            buf.assign(kChunkBytes, 0);
        std::memcpy(buf.data() + off, data + done, take);
        done += take;
    }
}

void
SparseMemory::read(std::uint64_t addr, std::uint8_t *out,
                   std::size_t n) const
{
    forEachChunk(addr, n, [&out](const std::uint8_t *data,
                                 std::size_t len) {
        std::memcpy(out, data, len);
        out += len;
    });
}

std::vector<std::uint8_t>
SparseMemory::readVec(std::uint64_t addr, std::size_t n) const
{
    std::vector<std::uint8_t> out(n);
    read(addr, out.data(), n);
    return out;
}

}  // namespace morpheus::host
