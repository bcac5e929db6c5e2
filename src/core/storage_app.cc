#include "core/storage_app.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace morpheus::core {

MsChunkContext::MsChunkContext(std::uint32_t dsram_bytes,
                               std::uint32_t flush_threshold,
                               std::uint32_t arg)
    : _dsramBytes(dsram_bytes), _flushThreshold(flush_threshold),
      _arg(arg),
      _scanner(
          [this](std::uint8_t *dst, std::size_t cap) {
              return refill(dst, cap);
          },
          4 * 1024, /*incremental=*/true)
{
    MORPHEUS_ASSERT(flush_threshold > 0 &&
                        flush_threshold <= dsram_bytes,
                    "flush threshold must fit in D-SRAM");
}

std::size_t
MsChunkContext::refill(std::uint8_t *dst, std::size_t capacity)
{
    const std::size_t avail = _chunk.size() - _chunkPos;
    const std::size_t take = std::min(avail, capacity);
    if (take > 0) {
        std::copy(_chunk.begin() +
                      static_cast<std::ptrdiff_t>(_chunkPos),
                  _chunk.begin() +
                      static_cast<std::ptrdiff_t>(_chunkPos + take),
                  dst);
        _chunkPos += take;
    }
    return take;
}

void
MsChunkContext::flushStaging()
{
    // Staging stays below the threshold (<= D-SRAM) between emits, so
    // only an emit that reaches the threshold can overrun D-SRAM.
    MORPHEUS_ASSERT(_staging.size() <= _dsramBytes,
                    "StorageApp working set exceeds D-SRAM (",
                    _dsramBytes, " bytes); lower the flush threshold");
    std::size_t cut = 0;
    while (_staging.size() - cut >= _flushThreshold) {
        const auto first =
            _staging.begin() + static_cast<std::ptrdiff_t>(cut);
        _flushes.emplace_back(first, first + _flushThreshold);
        cut += _flushThreshold;
    }
    _staging.erase(_staging.begin(),
                   _staging.begin() + static_cast<std::ptrdiff_t>(cut));
}

bool
MsChunkContext::msReadRaw(void *out, std::size_t n)
{
    if (_chunk.size() - _chunkPos < n)
        return false;
    std::memcpy(out, _chunk.data() + _chunkPos, n);
    _chunkPos += n;
    return true;
}

void
MsChunkContext::feedChunk(std::vector<std::uint8_t> chunk)
{
    MORPHEUS_ASSERT(!_eof, "chunk delivered after end of stream");
    // Bytes the app chose not to consume (trailing padding after it
    // has seen everything it wants) are dropped, as they would be on
    // the device.
    _chunk = std::move(chunk);
    _chunkPos = 0;
}

void
MsChunkContext::signalEndOfStream()
{
    _eof = true;
    _scanner.setEndOfStream();
}

void
MsChunkContext::msChargeCost(const serde::ParseCost &extra)
{
    _extraCost += extra;
}

serde::ParseCost
MsChunkContext::takeCostDelta()
{
    const serde::ParseCost &total = _scanner.cost();
    serde::ParseCost delta;
    delta.bytes = total.bytes - _costSnapshot.bytes;
    delta.intValues = total.intValues - _costSnapshot.intValues;
    delta.floatValues = total.floatValues - _costSnapshot.floatValues;
    delta.floatOps = total.floatOps - _costSnapshot.floatOps;
    _costSnapshot = total;
    delta += _extraCost;
    _extraCost = serde::ParseCost{};
    return delta;
}

std::vector<std::vector<std::uint8_t>>
MsChunkContext::takeFlushes()
{
    return std::exchange(_flushes, {});
}

void
MsChunkContext::flushResidual()
{
    if (!_staging.empty())
        _flushes.push_back(std::exchange(_staging, {}));
}

serde::ParseCost
MsChunkContext::abortCommand()
{
    const serde::ParseCost delta = takeCostDelta();
    _chunk.clear();
    _chunkPos = 0;
    _staging.clear();
    _flushes.clear();
    return delta;
}

}  // namespace morpheus::core
