/**
 * @file
 * The standard StorageApps: device-side deserializers for each of the
 * text formats in serde/formats.hh, plus an on-device serializer for
 * the MWRITE path.
 *
 * Each app is a small state machine that consumes tokens as MREAD
 * chunks deliver them and emits the *exact* binary layout of the
 * corresponding object's toBinary() — so a host (or GPU) buffer filled
 * by Morpheus is bit-identical to one produced by the conventional
 * CPU path, and tests verify that.
 */

#ifndef MORPHEUS_CORE_STANDARD_APPS_HH
#define MORPHEUS_CORE_STANDARD_APPS_HH

#include <memory>

#include "core/compiler.hh"
#include "core/storage_app.hh"
#include "serde/columnar.hh"
#include "serde/csv.hh"
#include "serde/json.hh"

namespace morpheus::core {

/** Edge lists (PageRank/BFS/CC/SSSP). arg bit0 = weighted edges. */
class EdgeListApp : public StorageApp
{
  public:
    explicit EdgeListApp(std::uint32_t arg)
        : _weighted((arg & 1u) != 0)
    {}

    void processChunk(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override { return _edgesDone; }

  private:
    enum class State { kVertices, kEdges, kEdgeTokens };

    bool _weighted;
    State _state = State::kVertices;
    std::uint32_t _edgesExpected = 0;
    std::uint32_t _edgesDone = 0;
    /** Edge tokens (src, dst and weight values) read so far. */
    std::uint64_t _tokensDone = 0;
};

/** Dense matrices (Gaussian, LUD). */
class MatrixApp : public StorageApp
{
  public:
    explicit MatrixApp(std::uint32_t) {}

    void processChunk(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override { return _valuesDone; }

  private:
    enum class State { kRows, kCols, kValues };

    State _state = State::kRows;
    std::uint64_t _valuesExpected = 0;
    std::uint32_t _rows = 0;
    std::uint32_t _valuesDone = 0;
};

/** Flat integer arrays (Hybrid Sort). */
class IntArrayApp : public StorageApp
{
  public:
    explicit IntArrayApp(std::uint32_t) {}

    void processChunk(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override { return _valuesDone; }

  private:
    bool _haveCount = false;
    std::uint32_t _count = 0;
    std::uint32_t _valuesDone = 0;
};

/** Point sets (Kmeans, NN). */
class PointSetApp : public StorageApp
{
  public:
    explicit PointSetApp(std::uint32_t) {}

    void processChunk(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override { return _valuesDone; }

  private:
    enum class State { kPoints, kDims, kCoords };

    State _state = State::kPoints;
    std::uint32_t _points = 0;
    std::uint64_t _valuesExpected = 0;
    std::uint32_t _valuesDone = 0;
};

/** Sparse COO matrices (SpMV). */
class CooMatrixApp : public StorageApp
{
  public:
    explicit CooMatrixApp(std::uint32_t) {}

    void processChunk(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override { return _entriesDone; }

  private:
    enum class State { kRows, kCols, kNnz, kRow, kCol, kValue };

    State _state = State::kRows;
    std::uint32_t _nnz = 0;
    std::uint32_t _entriesDone = 0;
};

/**
 * MWRITE-path serializer (the paper's serialization direction,
 * §III/§VII-"our benchmarks spend almost no time serializing"): turns
 * binary i64 values from the host into ASCII text on flash.
 */
class Int64TextSerializerApp : public StorageApp
{
  public:
    explicit Int64TextSerializerApp(std::uint32_t) {}

    void
    processChunk(MsChunkContext &ctx) override
    {
        (void)ctx;  // read path unused
    }

    bool processWriteChunk(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override { return _valuesDone; }

  private:
    std::uint32_t _valuesDone = 0;
};

/**
 * Binary-input deserializer (the paper's §III "other input formats
 * (e.g. binary inputs)"): the file holds big-endian u32 words (the
 * cross-architecture interchange layout §II motivates); the device
 * byte-swaps them into native little-endian objects as it streams
 * them out. Header: one big-endian u32 count.
 */
class EndianSwapApp : public StorageApp
{
  public:
    explicit EndianSwapApp(std::uint32_t) {}

    void processChunk(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override { return _wordsDone; }

  private:
    bool _haveCount = false;
    std::uint32_t _count = 0;
    std::uint32_t _wordsDone = 0;
};

/**
 * Format-agnostic view: emits every number in the file as an f64
 * stream. Together with the typed applets this demonstrates §III's
 * "the storage device ... can transform the same file into different
 * kinds of data structures according to the demand of applications".
 */
class FlatNumbersApp : public StorageApp
{
  public:
    explicit FlatNumbersApp(std::uint32_t) {}

    void
    processChunk(MsChunkContext &ctx) override
    {
        double v = 0.0;
        while (ctx.msScanfNumber(&v, nullptr)) {
            ctx.msEmitValue<double>(v);
            ++_count;
        }
    }

    std::uint32_t returnValue() const override { return _count; }

  private:
    std::uint32_t _count = 0;
};

/**
 * CSV table deserializer (§II lists CSV among the motivating
 * interchange formats): parses a header row of column names and
 * numeric rows, emitting the binary layout of serde::CsvTableObject.
 */
class CsvTableApp : public StorageApp
{
  public:
    explicit CsvTableApp(std::uint32_t) {}

    void processChunk(MsChunkContext &ctx) override;
    void finish(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override { return _rows; }

  private:
    void pump(MsChunkContext &ctx);

    serde::CsvRowParser _parser;
    std::vector<std::string> _columns;
    bool _headerEmitted = false;
    std::uint32_t _rows = 0;
};

/**
 * JSON record-array deserializer (§II lists JSON among the motivating
 * interchange formats). Streams the document through an incremental
 * JsonRowParser and emits the record-framed binary layout of
 * serde::JsonRecordsObject.
 */
class JsonRecordsApp : public StorageApp
{
  public:
    explicit JsonRecordsApp(std::uint32_t) {}

    void processChunk(MsChunkContext &ctx) override;
    void finish(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override { return _records; }

  private:
    /** Drain parser events into emitted record frames. */
    void pump(MsChunkContext &ctx);

    serde::JsonRowParser _parser;
    std::vector<double> _record;  // current record's values
    std::uint32_t _records = 0;
    bool _ended = false;

    static constexpr std::uint32_t kEndMarker = 0xFFFFFFFFu;
};

/**
 * Columnar scan applet with projection / predicate pushdown (the
 * Arrow-native direction from PAPERS.md): streams a CMF1 flash table,
 * evaluates the AND-chain predicate program column-at-a-time per row
 * group in D-SRAM, and emits only surviving rows x projected columns —
 * outbound DMA scales with selectivity, not file size. The program
 * arrives as the MINIT pushdown descriptor (ctx.pushdown()); no
 * descriptor means a full scan. Errors (malformed file, bad program,
 * dictionary miss) stop emission and report kScanError in MDEINIT DW0.
 */
class ColumnarScanApp : public StorageApp
{
  public:
    static constexpr std::uint32_t kScanError = 0xFFFFFFFFu;

    explicit ColumnarScanApp(std::uint32_t) {}

    void processChunk(MsChunkContext &ctx) override;
    void finish(MsChunkContext &ctx) override;
    std::uint32_t returnValue() const override;

  private:
    void drain(MsChunkContext &ctx);

    std::unique_ptr<serde::ColumnarScanner> _scanner;
    bool _badSpec = false;
};

/** Compiled images for all standard apps (compiler-packaged once). */
struct StandardImages
{
    StorageAppImage edgeList;
    StorageAppImage matrix;
    StorageAppImage intArray;
    StorageAppImage pointSet;
    StorageAppImage cooMatrix;
    StorageAppImage int64Serializer;
    StorageAppImage endianSwap;
    StorageAppImage jsonRecords;
    StorageAppImage flatNumbers;
    StorageAppImage csvTable;
    StorageAppImage columnarScan;

    /** Build the full set. */
    static StandardImages make();
};

}  // namespace morpheus::core

#endif  // MORPHEUS_CORE_STANDARD_APPS_HH
