/**
 * @file
 * Sparse functional byte store.
 *
 * Backs every "memory" in the simulation (host DRAM, GPU device
 * memory, HDD platters, RAM drive) so data really flows end-to-end.
 * Pages are allocated lazily; untouched space reads as zeros.
 */

#ifndef MORPHEUS_HOST_SPARSE_MEMORY_HH
#define MORPHEUS_HOST_SPARSE_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"

namespace morpheus::host {

/** Lazily allocated flat byte space. */
class SparseMemory
{
  public:
    explicit SparseMemory(std::uint64_t size) : _size(size) {}

    std::uint64_t size() const { return _size; }

    /** Store @p n bytes at @p addr. */
    void write(std::uint64_t addr, const std::uint8_t *data,
               std::size_t n);

    /** Load @p n bytes from @p addr (zeros where never written). */
    void read(std::uint64_t addr, std::uint8_t *out, std::size_t n) const;

    /**
     * Visit the @p n bytes at @p addr in place, in address order, as
     * @p fn(const std::uint8_t *data, std::size_t len) over the pieces
     * of each backing chunk (a shared zero block where never written):
     * a range read without a copy.
     */
    template <typename Fn>
    void
    forEachChunk(std::uint64_t addr, std::size_t n, Fn &&fn) const
    {
        MORPHEUS_ASSERT(addr + n <= _size, "read past end of memory: addr=",
                        addr, " n=", n, " size=", _size);
        std::size_t done = 0;
        while (done < n) {
            const std::uint64_t a = addr + done;
            const std::uint64_t off = a % kChunkBytes;
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(n - done, kChunkBytes - off));
            const auto it = _chunks.find(a / kChunkBytes);
            fn((it == _chunks.end() ? kZeroChunk : it->second.data()) +
                   off,
               take);
            done += take;
        }
    }

    /** Convenience: load a range into a fresh vector. */
    std::vector<std::uint8_t> readVec(std::uint64_t addr,
                                      std::size_t n) const;

    /** Convenience: store a vector. */
    void
    writeVec(std::uint64_t addr, const std::vector<std::uint8_t> &data)
    {
        write(addr, data.data(), data.size());
    }

    /** Bytes of backing store actually allocated. */
    std::uint64_t residentBytes() const
    {
        return _chunks.size() * kChunkBytes;
    }

  private:
    static constexpr std::uint64_t kChunkBytes = 64 * 1024;
    /** What a never-written chunk reads as. */
    static constexpr std::uint8_t kZeroChunk[kChunkBytes] = {};

    std::uint64_t _size;
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> _chunks;
};

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_SPARSE_MEMORY_HH
