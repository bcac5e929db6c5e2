/**
 * @file
 * The StorageApp programming model (paper §V).
 *
 * A StorageApp is user code that runs on the SSD's embedded cores. In
 * the paper it is a C function marked with the `StorageApp` keyword,
 * cross-compiled for the Tensilica cores; here it is a C++ class whose
 * processChunk() is invoked once per MREAD chunk. The MsChunkContext
 * is the device library: ms_scanf-style token readers over the
 * incrementally delivered stream, and ms_memcpy-style staged output
 * that the engine DMAs to the host (or, via NVMe-P2P, to GPU device
 * memory) whenever the D-SRAM staging buffer fills.
 */

#ifndef MORPHEUS_CORE_STORAGE_APP_HH
#define MORPHEUS_CORE_STORAGE_APP_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pcie/pcie.hh"
#include "serde/scanner.hh"

namespace morpheus::core {

/** Where a StorageApp's output objects are DMAed. */
struct DmaTarget
{
    pcie::Addr addr = 0;  ///< Bus address (host DRAM or mapped GPU BAR).
    bool isGpu = false;   ///< True when addr lies in the GPU BAR window.
};

/**
 * The device library handle a StorageApp sees while processing one
 * chunk (and at finish()). Mirrors the paper's ms_* primitives.
 */
class MsChunkContext
{
  public:
    /**
     * @param dsram_bytes     D-SRAM capacity shared by the carry buffer
     *                        and the output staging buffer.
     * @param flush_threshold Staging bytes that trigger a ms_memcpy
     *                        flush segment.
     */
    MsChunkContext(std::uint32_t dsram_bytes,
                   std::uint32_t flush_threshold, std::uint32_t arg);

    // ------------------------------------------------- device library

    /** ms_scanf("%ld"): next integer token, false at end of chunk. */
    bool msScanfInt(std::int64_t *out) { return _scanner.nextInt64(out); }

    /**
     * ms_scanf("%ld") over a run: up to @p max integer tokens into
     * @p out, exactly as that many msScanfInt() calls would read them.
     * @return the count read; fewer than @p max means the chunk ran dry.
     */
    std::size_t
    msScanfInts(std::int64_t *out, std::size_t max)
    {
        return _scanner.nextInt64s(out, max);
    }

    /** ms_scanf("%lf"): next floating-point token. */
    bool msScanfDouble(double *out) { return _scanner.nextDouble(out); }

    /** ms_scanf("%g"-ish): next number, reporting which kind it was. */
    bool
    msScanfNumber(double *out, bool *is_float)
    {
        return _scanner.nextNumber(out, is_float);
    }

    /** ms_memcpy: stage @p n bytes of binary output for DMA. */
    void
    msEmit(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        _staging.insert(_staging.end(), p, p + n);
        _bytesEmitted += n;
        if (_staging.size() >= _flushThreshold)
            flushStaging();
    }

    /**
     * Bytes msEmit() can stage before it cuts the next flush segment
     * (at least 1). An app that stages a run of values sizes it to end
     * on the value that crosses this, so D-SRAM use and segment
     * cadence match emitting the values one by one.
     */
    std::size_t msFlushRoom() const
    {
        return _flushThreshold - _staging.size();
    }

    /** Stage one binary value (little endian). */
    template <typename T>
    void
    msEmitValue(T v)
    {
        msEmit(&v, sizeof(T));
    }

    /**
     * MWRITE path: copy the next @p n raw (binary) chunk bytes into
     * @p out. @return false if fewer than @p n bytes remain in the
     * chunk. Serialization apps use this instead of the text scanner.
     */
    bool msReadRaw(void *out, std::size_t n);

    /** MWRITE path helper: read one binary value. */
    template <typename T>
    bool
    msReadValue(T *out)
    {
        return msReadRaw(out, sizeof(T));
    }

    /** Raw bytes left in the current chunk (byte-stream apps). */
    std::size_t
    msRawAvailable() const
    {
        return _chunk.size() - _chunkPos;
    }

    /**
     * Merge externally accounted parse work (apps that run their own
     * incremental parser, e.g. the JSON applet) into this chunk's cost
     * delta so the embedded-core model charges it.
     */
    void msChargeCost(const serde::ParseCost &extra);

    /** The argument word the host passed at invocation. */
    std::uint32_t arg() const { return _arg; }

    /**
     * The pushdown descriptor dwords MINIT carried alongside the code
     * image (empty for ordinary invocations). Applets that support
     * pushdown (the columnar scanner) decode their program from here.
     */
    const std::vector<std::uint32_t> &pushdown() const
    {
        return _pushdown;
    }

    /** True once the host has signalled MDEINIT (no more chunks). */
    bool endOfStream() const { return _eof; }

    // --------------------------------------------------- engine-facing

    /** Deliver the next chunk of raw file bytes. */
    void feedChunk(std::vector<std::uint8_t> chunk);

    /** Install the MINIT pushdown descriptor (engine, before chunk 0). */
    void setPushdown(std::vector<std::uint32_t> dwords)
    {
        _pushdown = std::move(dwords);
    }

    /** Signal that no further chunks will arrive. */
    void signalEndOfStream();

    /** Parse-cost delta since the last snapshot (and re-snapshot). */
    serde::ParseCost takeCostDelta();

    /**
     * Staged output segments ready for DMA (moves them out). Each
     * segment is one ms_memcpy flush.
     */
    std::vector<std::vector<std::uint8_t>> takeFlushes();

    /** Force any residual staging into a flush segment. */
    void flushResidual();

    /**
     * Engine failure path (a command the app refused): drop the
     * unconsumed chunk bytes, the partially staged output, and any
     * pending flush segments, and @return the accrued parse-cost
     * delta so the engine can charge the aborted work to the failing
     * command — never to its successor. (The text scanner's carry is
     * untouched; write-path apps read raw bytes, not tokens.)
     */
    serde::ParseCost abortCommand();

    /** Total bytes emitted so far (before flushing). */
    std::uint64_t bytesEmitted() const { return _bytesEmitted; }

  private:
    std::size_t refill(std::uint8_t *dst, std::size_t capacity);

    /** Check staging against D-SRAM, then cut full flush segments. */
    void flushStaging();

    std::uint32_t _dsramBytes;
    std::uint32_t _flushThreshold;
    std::uint32_t _arg;
    std::vector<std::uint32_t> _pushdown;
    bool _eof = false;

    std::vector<std::uint8_t> _chunk;  // current MREAD payload
    std::size_t _chunkPos = 0;

    serde::StreamingScanner _scanner;
    serde::ParseCost _costSnapshot;
    serde::ParseCost _extraCost;  // app-charged work, drained per delta

    std::vector<std::uint8_t> _staging;
    std::vector<std::vector<std::uint8_t>> _flushes;
    std::uint64_t _bytesEmitted = 0;
};

/** User code executed inside the Morpheus-SSD. */
class StorageApp
{
  public:
    virtual ~StorageApp() = default;

    /**
     * Consume the tokens available in the current chunk (MREAD path).
     * Called once per chunk and once more after end-of-stream is
     * signalled (when the final carried token becomes parseable).
     */
    virtual void processChunk(MsChunkContext &ctx) = 0;

    /** One-shot hook after the final processChunk. */
    virtual void finish(MsChunkContext &ctx) { (void)ctx; }

    /** Delivered to the host in the MDEINIT completion's DW0. */
    virtual std::uint32_t returnValue() const { return 0; }

    /**
     * MWRITE (on-device serialization) path: consume binary values
     * from the chunk and msEmit text. @return false if the app does
     * not support serialization.
     */
    virtual bool
    processWriteChunk(MsChunkContext &ctx)
    {
        (void)ctx;
        return false;
    }
};

/** Factory invoked at MINIT; @p arg is the MINIT argument word. */
using StorageAppFactory =
    std::function<std::unique_ptr<StorageApp>(std::uint32_t arg)>;

/**
 * The Morpheus compiler's output for one StorageApp: the device binary
 * (represented by its I-SRAM footprint) plus the factory that
 * instantiates the app on the device.
 */
struct StorageAppImage
{
    std::string name;
    std::uint32_t textBytes = 0;  ///< Code size checked against I-SRAM.
    StorageAppFactory factory;
    /** Applet code version: part of the object-cache key, and a
     *  re-install at a different version invalidates every cached
     *  object the applet produced (its semantics may have changed). */
    std::uint32_t version = 0;
};

}  // namespace morpheus::core

#endif  // MORPHEUS_CORE_STORAGE_APP_HH
