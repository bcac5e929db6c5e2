/**
 * @file
 * CSV tables with a header row — another of §II's interchange formats
 * ("XML, CSV, JSON, TXT, YAML").
 *
 * The supported dialect is the one numeric datasets actually use: a
 * first line of comma-separated column names (optionally
 * double-quoted), then rows of numeric fields. CsvRowParser is
 * incremental (chunk-feedable) like JsonRowParser, so the same code
 * drives the host parse and the on-device CsvTableApp.
 */

#ifndef MORPHEUS_SERDE_CSV_HH
#define MORPHEUS_SERDE_CSV_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serde/parse.hh"
#include "serde/writer.hh"

namespace morpheus::serde {

/** A numeric table with named columns. */
struct CsvTableObject
{
    std::vector<std::string> columns;
    std::vector<double> values;  ///< Row major, rows*cols cells.

    std::size_t
    numRows() const
    {
        return columns.empty() ? 0 : values.size() / columns.size();
    }

    double
    cell(std::size_t row, std::size_t col) const
    {
        return values[row * columns.size() + col];
    }

    /**
     * Binary layout (streamable): u32 ncols, then per column u8 name
     * length + name bytes, then the cells as f64 row major. The row
     * count is implied by the payload length.
     */
    std::uint64_t objectBytes() const;
    std::vector<std::uint8_t> toBinary() const;
    /** The same bytes into @p out: a std::vector<std::uint8_t> or a
     *  sim::Digester (the two instantiated sinks). */
    template <typename Sink> void writeBinary(Sink &out) const;
    static CsvTableObject fromBinary(
        const std::vector<std::uint8_t> &bytes);

    /** Serialize to CSV text (quoted header names). */
    void serialize(TextWriter &w, int precision = 6) const;

    bool operator==(const CsvTableObject &) const = default;
};

/** Incremental CSV parser: feed chunks, poll events. */
class CsvRowParser
{
  public:
    enum class Event {
        kColumnName,    ///< name() holds the header field.
        kHeaderDone,    ///< Header row complete.
        kNumber,        ///< value() holds a cell.
        kEndRow,        ///< A data row completed.
        kEndDocument,
        kNeedMoreData,
        kError,
    };

    void feed(const std::uint8_t *data, std::size_t n);
    void finish() { _finished = true; }
    Event next();

    const std::string &name() const { return _name; }
    double value() const { return _value; }
    const std::string &message() const { return _error; }
    const ParseCost &cost() const { return _cost; }

  private:
    enum class State {
        kHeaderField,   // accumulating a header name
        kRowField,      // accumulating a numeric cell
        kDone,
        kFailed,
    };

    Event fail(const std::string &why);

    /** Finish the carried header field; emits kColumnName. */
    Event emitName(bool end_of_header);

    /** Finish the carried cell token; emits kNumber (or kEndRow). */
    Event emitCell();

    std::vector<std::uint8_t> _buf;
    std::size_t _pos = 0;
    bool _finished = false;
    State _state = State::kHeaderField;
    bool _inQuotes = false;
    bool _fieldStarted = false;
    bool _rowHasCells = false;
    bool _pendingEndRow = false;
    bool _pendingHeaderDone = false;
    std::string _token;
    std::string _name;
    double _value = 0.0;
    std::string _error;
    ParseCost _cost;
};

/** Whole-buffer parse (host path). */
bool parseCsvTable(const std::uint8_t *data, std::size_t size,
                   CsvTableObject *out, ParseCost *cost);

}  // namespace morpheus::serde

#endif  // MORPHEUS_SERDE_CSV_HH
