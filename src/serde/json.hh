/**
 * @file
 * JSON record arrays — the interchange-format generality of §II.
 *
 * The paper motivates Morpheus with "text-based data interchange
 * formats (e.g. XML, CSV, JSON, TXT, YAML)". Beyond the
 * whitespace-separated formats in formats.hh, this module handles a
 * JSON subset that covers numeric datasets: an array of records, each
 * record an array of numbers, e.g.
 *
 *     [[1, 2.5, 3], [4, 5], [6]]
 *
 * JsonRecordsObject is the deserialized form (flattened values plus a
 * CSR-style record index). JsonRowParser is an *incremental* parser —
 * bytes can be fed in arbitrary chunks (MREAD-sized on the device,
 * whole-buffer on the host) and it emits the identical event stream,
 * the same property StreamingScanner provides for token formats.
 */

#ifndef MORPHEUS_SERDE_JSON_HH
#define MORPHEUS_SERDE_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serde/parse.hh"
#include "serde/writer.hh"

namespace morpheus::serde {

/** An array-of-records numeric dataset. */
struct JsonRecordsObject
{
    /** Flattened numeric values, record major. */
    std::vector<double> values;
    /** Record boundaries: record r spans
     *  [recordOffsets[r], recordOffsets[r+1]). */
    std::vector<std::uint32_t> recordOffsets{0};

    std::size_t numRecords() const { return recordOffsets.size() - 1; }

    /** Binary layout: u32 records, u32 values, u32 offsets[records+1],
     *  f64 values[]. */
    std::uint64_t objectBytes() const;
    std::vector<std::uint8_t> toBinary() const;
    /** The same bytes into @p out: a std::vector<std::uint8_t> or a
     *  sim::Digester (the two instantiated sinks). */
    template <typename Sink> void writeBinary(Sink &out) const;
    static JsonRecordsObject fromBinary(
        const std::vector<std::uint8_t> &bytes);

    /** Serialize to JSON text. */
    void serialize(TextWriter &w, int precision = 6) const;

    bool operator==(const JsonRecordsObject &) const = default;
};

/**
 * Incremental event parser for the record-array subset.
 *
 * Feed bytes with feed(); consume events with next(). Events arrive in
 * document order; kNeedMoreData means the current chunk is exhausted
 * (a number split across the boundary is carried internally). Call
 * finish() after the last chunk so a trailing number terminates.
 */
class JsonRowParser
{
  public:
    enum class Event {
        kBeginRecord,
        kNumber,        ///< value() holds the number.
        kEndRecord,
        kEndDocument,   ///< Outer array closed.
        kNeedMoreData,  ///< Feed more bytes (or finish()).
        kError,         ///< Malformed input; message() explains.
    };

    /** Append a chunk of input. */
    void feed(const std::uint8_t *data, std::size_t n);

    /** Declare end of input. */
    void finish() { _finished = true; }

    /** Pull the next event. */
    Event next();

    /** The number delivered by the last kNumber event. */
    double value() const { return _value; }

    /** Description of the last kError. */
    const std::string &message() const { return _error; }

    /** Operation accounting (bytes scanned, values converted). */
    const ParseCost &cost() const { return _cost; }

  private:
    enum class State {
        kExpectOuterOpen,
        kExpectRecordOrEnd,     // after '[' or ',' at outer level
        kExpectValueOrEnd,      // inside a record
        kAfterValue,            // inside a record, after a number
        kAfterRecord,           // outer level, after ']'
        kDone,
        kFailed,
    };

    /** Parse the carried number token; emits kNumber or kError. */
    Event emitNumber();

    Event fail(const std::string &why);

    std::vector<std::uint8_t> _buf;
    std::size_t _pos = 0;
    bool _finished = false;
    State _state = State::kExpectOuterOpen;
    bool _commaPending = false;  // a ',' awaits its element
    std::string _numberToken;  // partial number carried across chunks
    double _value = 0.0;
    std::string _error;
    ParseCost _cost;
};

/**
 * Parse a whole buffer (host path). @return false on malformed input.
 */
bool parseJsonRecords(const std::uint8_t *data, std::size_t size,
                      JsonRecordsObject *out, ParseCost *cost);

}  // namespace morpheus::serde

#endif  // MORPHEUS_SERDE_JSON_HH
