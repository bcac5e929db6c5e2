/**
 * @file
 * Columnar table format with on-device projection / predicate pushdown.
 *
 * The flash layout is schema-described and column-chunked, in the
 * spirit of Arrow/Parquet scaled down to what an embedded core can
 * stream (PAPERS.md: "Towards an Arrow-native Storage System"):
 *
 *   header     magic 'CMF1', column count, row count, row-group rows,
 *              dictionary entry count, then one (type, name) pair per
 *              column. The header leads the file so the device applet
 *              can parse it from the first in-order MREAD chunk.
 *   row groups ceil(rows / rowGroupRows) groups; inside a group each
 *              column's values are laid out contiguously (the column
 *              chunk): int64/float64 cells are 8 bytes little endian,
 *              dictionary-string cells are 4-byte codes.
 *   dict blob  the shared string dictionary (u16 length + bytes each).
 *   footer     redundant {header bytes, dict offset, rows, magic} so
 *              integrity checkers and seek-capable readers can locate
 *              sections without re-scanning; the streaming scan applet
 *              never needs it.
 *
 * A scan is described by a ScanSpec: a projection bitmask plus an
 * AND-chain of (column, op, literal) predicates. The spec has a
 * canonical dword encoding (the pushdown descriptor carried by MINIT)
 * and an FNV-1a digest that extends the object-cache key, so a cached
 * scan result is only ever replayed for the exact same program.
 *
 * scanTable() / ColumnarScanner are the single scan kernel shared by
 * the firmware applet, the host fallback, and the split-execution
 * suffix — all three produce byte-identical output by construction.
 */

#ifndef MORPHEUS_SERDE_COLUMNAR_HH
#define MORPHEUS_SERDE_COLUMNAR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serde/scanner.hh"

namespace morpheus::serde {

/** Cell type of one column. */
enum class ColumnType : std::uint8_t {
    kInt64 = 0,      ///< 8-byte signed integer cells.
    kFloat64 = 1,    ///< 8-byte IEEE-754 cells.
    kDictString = 2, ///< 4-byte codes into the shared dictionary.
};

/** Bytes one cell of @p t occupies in a column chunk. */
inline std::uint32_t
columnCellBytes(ColumnType t)
{
    return t == ColumnType::kDictString ? 4u : 8u;
}

/** Comparison operator of one predicate term. */
enum class PredOp : std::uint8_t {
    kEq = 0,
    kNe = 1,
    kLt = 2,
    kLe = 3,
    kGt = 4,
    kGe = 5,
};

/** One predicate term: column <op> literal. */
struct Predicate
{
    std::uint32_t column = 0;
    PredOp op = PredOp::kEq;
    /** Literal bit pattern: int64 for kInt64, IEEE-754 bits for
     *  kFloat64, a dictionary code for kDictString (Eq/Ne only). */
    std::uint64_t literalBits = 0;

    bool operator==(const Predicate &o) const
    {
        return column == o.column && op == o.op &&
               literalBits == o.literalBits;
    }
};

/** Flags modifying what a scan emits (split execution support). */
enum ScanFlags : std::uint32_t {
    /** Omit the result trailer (dict blob + surviving-row count); the
     *  prefix half of a split scan uses this so the suffix half can
     *  complete the byte stream. */
    kScanNoTrailer = 1u << 0,
    /** Omit the result header (schema frame); the suffix half of a
     *  split scan uses this. */
    kScanNoHeader = 1u << 1,
};

/**
 * A pushdown program: projection mask + AND-chain of predicates.
 * Default-constructed == project everything, keep every row.
 */
struct ScanSpec
{
    /** Bit i set => column i is projected. ~0 projects all columns. */
    std::uint32_t projectionMask = ~0u;
    std::vector<Predicate> preds;
    std::uint32_t flags = 0;  ///< ScanFlags bits.

    bool operator==(const ScanSpec &o) const
    {
        return projectionMask == o.projectionMask && preds == o.preds &&
               flags == o.flags;
    }

    /**
     * Canonical dword encoding — the pushdown descriptor MINIT
     * carries: [magic|version|flags|npreds][mask] then three dwords
     * per term ([column|op], literal lo, literal hi).
     */
    std::vector<std::uint32_t> encode() const;

    /** @return false on bad magic/version, a truncated program or a
     *  set reserved bit; an accepted descriptor is exactly encode(). */
    static bool decode(const std::vector<std::uint32_t> &dwords,
                       ScanSpec *out);

    /**
     * FNV-1a over the canonical dwords; never 0, so 0 stays the
     * object-cache's "no pushdown" sentinel.
     */
    std::uint32_t digest() const;
};

/**
 * Digest of a raw descriptor dword sequence (what MINIT carries in
 * PRP2's high dword); firmware validates it without decoding first.
 * Never 0.
 */
std::uint32_t pushdownDigest(const std::vector<std::uint32_t> &dwords);

/** Schema of one column. */
struct ColumnDesc
{
    std::string name;
    ColumnType type = ColumnType::kInt64;

    bool operator==(const ColumnDesc &o) const
    {
        return name == o.name && type == o.type;
    }
};

/**
 * An in-memory columnar table plus its flash codec. Cells are stored
 * column-major as 64-bit words (dictionary columns store codes).
 */
struct ColumnarTableObject
{
    std::vector<ColumnDesc> schema;
    /** cells[c][r]: int64 value, double bit pattern, or dict code. */
    std::vector<std::vector<std::uint64_t>> cells;
    std::vector<std::string> dict;
    std::uint32_t rowGroupRows = 256;

    std::uint64_t rows() const
    {
        return cells.empty() ? 0 : cells.front().size();
    }
    std::uint64_t objectBytes() const;  ///< In-memory object footprint.

    /** Serialize to the flash byte layout described above. */
    std::vector<std::uint8_t> toFlash() const;
    /** @return false on bad magic, truncation, or footer mismatch. */
    static bool fromFlash(const std::vector<std::uint8_t> &bytes,
                          ColumnarTableObject *out);

    bool operator==(const ColumnarTableObject &o) const
    {
        return schema == o.schema && cells == o.cells && dict == o.dict &&
               rowGroupRows == o.rowGroupRows;
    }
};

/** Outcome of a (possibly partial) scan. */
struct ScanResult
{
    bool ok = false;            ///< False on malformed input/dict miss.
    std::uint64_t survivingRows = 0;
    std::vector<std::uint8_t> out;  ///< Emitted result bytes.
    ParseCost cost;             ///< Column-at-a-time evaluation work.
};

/**
 * Streaming scan kernel: feed flash-format bytes in arbitrary-sized
 * pieces (MREAD chunks on the device, one shot on the host); emitted
 * result bytes and cost accrue incrementally so the firmware applet
 * can flush and charge per chunk. The result byte stream is
 *
 *   header   magic 'CMF2', projected column count, then (type, name)
 *            per projected column                      [unless kScanNoHeader]
 *   rows     surviving rows, row-major over the projected columns
 *            (8-byte cells; dict columns emit 4-byte codes)
 *   trailer  dictionary entry count + entries (u16 len + bytes; count
 *            is 0 when no dictionary column is projected), then the
 *            u64 surviving-row count                   [unless kScanNoTrailer]
 */
class ColumnarScanner
{
  public:
    explicit ColumnarScanner(const ScanSpec &spec) : _spec(spec) {}

    /** Stream in the next flash bytes; evaluates finished row groups. */
    void feed(const std::uint8_t *data, std::size_t n);

    /**
     * End of stream: a partial trailing row group is dropped (split
     * execution truncates mid-file); emits the result trailer unless
     * suppressed. @p baseSurviving is added to the trailer count so a
     * split suffix can report the whole scan's total.
     */
    void finish(std::uint64_t baseSurviving = 0);

    bool error() const { return _error; }
    std::uint64_t survivingRows() const { return _surviving; }

    /** Split-suffix support: mark @p rows as already scanned by the
     *  prefix half. Call right after the header bytes are fed. */
    void skipRows(std::uint64_t rows) { _rowsSeen += rows; }

    /** Move out result bytes emitted since the last take. */
    std::vector<std::uint8_t> takeEmitted()
    {
        std::vector<std::uint8_t> out;
        out.swap(_emitted);
        return out;
    }

    /** Move out evaluation cost accrued since the last take. */
    ParseCost takeCost()
    {
        ParseCost c = _cost;
        _cost = ParseCost{};
        return c;
    }

  private:
    void parseHeader();
    void evalGroup(const std::uint8_t *group, std::uint64_t group_rows);
    void emitBytes(const void *p, std::size_t n);

    ScanSpec _spec;
    std::vector<std::uint8_t> _buf;   ///< Carry across feed boundaries.
    std::size_t _bufPos = 0;

    bool _haveHeader = false;
    bool _error = false;
    bool _finished = false;
    std::vector<ColumnDesc> _schema;
    std::uint64_t _rowsTotal = 0;
    std::uint32_t _rowGroupRows = 0;
    std::uint32_t _dictCount = 0;
    std::uint64_t _rowsSeen = 0;
    std::uint64_t _surviving = 0;
    std::uint64_t _groupBytes = 0;    ///< Full-group byte size.
    std::vector<std::uint8_t> _dictBlob;  ///< Captured after last group.
    std::uint64_t _dictBlobWant = 0;

    std::vector<std::uint8_t> _emitted;
    ParseCost _cost;
};

/**
 * One-shot scan over a complete flash image. Set @p first_group to
 * scan only row groups [first_group, ...) — the host half of a split
 * execution; combined with kScanNoHeader and a prefix half run with
 * kScanNoTrailer, concatenating the two outputs reproduces the full
 * scan byte-for-byte.
 */
ScanResult scanTable(const std::uint8_t *data, std::size_t size,
                     const ScanSpec &spec, std::uint64_t first_group = 0,
                     std::uint64_t base_surviving = 0);

/** Parse the result byte stream back into a table (projected view). */
bool columnarFromScanBytes(const std::vector<std::uint8_t> &bytes,
                           ColumnarTableObject *out);

/**
 * Deterministic test/bench table: column 0 "key" uniform int64 in
 * [0, 1e6) (the predicate target), alternating float64 metric and
 * int64 counter columns, and a trailing dictionary "status" column.
 */
ColumnarTableObject genColumnarTable(std::uint64_t seed,
                                     std::uint64_t rows,
                                     std::uint32_t cols,
                                     std::uint32_t row_group_rows = 256);

/**
 * The standard pushdown program for a generated table: project the
 * first @p project_cols columns (0 = all) and keep rows whose key
 * column is < selectivity * 1e6.
 */
ScanSpec makeSelectivitySpec(double selectivity,
                             std::uint32_t project_cols,
                             std::uint32_t total_cols);

}  // namespace morpheus::serde

#endif  // MORPHEUS_SERDE_COLUMNAR_HH
