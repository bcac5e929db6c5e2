#include "core/standard_apps.hh"

#include <algorithm>

namespace morpheus::core {

namespace {

/** Tokens one run reads at most (a stack buffer of int64 values). */
constexpr std::size_t kRunTokens = 512;

/**
 * Tokens for the next run of @p width-byte values: at most @p left,
 * and no more than reach the next flush, so the run's last value is the
 * one that would have cut the segment had it been emitted alone.
 */
std::size_t
runLength(const MsChunkContext &ctx, std::size_t width, std::uint64_t left)
{
    const std::size_t to_flush = (ctx.msFlushRoom() + width - 1) / width;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>({kRunTokens, to_flush, left}));
}

}  // namespace

void
EdgeListApp::processChunk(MsChunkContext &ctx)
{
    std::int64_t v = 0;
    for (;;) {
        switch (_state) {
          case State::kVertices:
            if (!ctx.msScanfInt(&v))
                return;
            ctx.msEmitValue<std::uint32_t>(
                static_cast<std::uint32_t>(v));
            _state = State::kEdges;
            break;
          case State::kEdges:
            if (!ctx.msScanfInt(&v))
                return;
            _edgesExpected = static_cast<std::uint32_t>(v);
            ctx.msEmitValue<std::uint32_t>(_edgesExpected);
            _state = State::kEdgeTokens;
            break;
          case State::kEdgeTokens: {
            // src, dst[, weight] per edge, each staged as its low 32
            // bits (the int32 weight has the same bits as a uint32).
            const std::uint64_t width = _weighted ? 3 : 2;
            const std::uint64_t left =
                std::uint64_t(_edgesExpected) * width - _tokensDone;
            if (left == 0)
                return;  // trailing junk is ignored
            std::int64_t run[kRunTokens];
            std::uint32_t words[kRunTokens];
            const std::size_t want = runLength(ctx, sizeof(words[0]), left);
            const std::size_t got = ctx.msScanfInts(run, want);
            for (std::size_t i = 0; i < got; ++i)
                words[i] = static_cast<std::uint32_t>(run[i]);
            ctx.msEmit(words, got * sizeof(words[0]));
            _tokensDone += got;
            _edgesDone = static_cast<std::uint32_t>(_tokensDone / width);
            if (got < want)
                return;
            break;
          }
        }
    }
}

void
MatrixApp::processChunk(MsChunkContext &ctx)
{
    for (;;) {
        switch (_state) {
          case State::kRows: {
            std::int64_t v = 0;
            if (!ctx.msScanfInt(&v))
                return;
            _rows = static_cast<std::uint32_t>(v);
            ctx.msEmitValue<std::uint32_t>(_rows);
            _state = State::kCols;
            break;
          }
          case State::kCols: {
            std::int64_t v = 0;
            if (!ctx.msScanfInt(&v))
                return;
            _valuesExpected =
                std::uint64_t(_rows) * static_cast<std::uint32_t>(v);
            ctx.msEmitValue<std::uint32_t>(
                static_cast<std::uint32_t>(v));
            _state = State::kValues;
            break;
          }
          case State::kValues: {
            if (_valuesDone >= _valuesExpected)
                return;
            double d = 0.0;
            if (!ctx.msScanfNumber(&d, nullptr))
                return;
            ctx.msEmitValue<float>(static_cast<float>(d));
            ++_valuesDone;
            break;
          }
        }
    }
}

void
IntArrayApp::processChunk(MsChunkContext &ctx)
{
    std::int64_t run[kRunTokens];
    for (;;) {
        if (!_haveCount) {
            if (!ctx.msScanfInt(&run[0]))
                return;
            _count = static_cast<std::uint32_t>(run[0]);
            ctx.msEmitValue<std::uint32_t>(_count);
            _haveCount = true;
            continue;
        }
        if (_valuesDone >= _count)
            return;
        const std::size_t want =
            runLength(ctx, sizeof(run[0]), _count - _valuesDone);
        const std::size_t got = ctx.msScanfInts(run, want);
        ctx.msEmit(run, got * sizeof(run[0]));
        _valuesDone += static_cast<std::uint32_t>(got);
        if (got < want)
            return;
    }
}

void
PointSetApp::processChunk(MsChunkContext &ctx)
{
    for (;;) {
        switch (_state) {
          case State::kPoints: {
            std::int64_t v = 0;
            if (!ctx.msScanfInt(&v))
                return;
            _points = static_cast<std::uint32_t>(v);
            ctx.msEmitValue<std::uint32_t>(_points);
            _state = State::kDims;
            break;
          }
          case State::kDims: {
            std::int64_t v = 0;
            if (!ctx.msScanfInt(&v))
                return;
            _valuesExpected =
                std::uint64_t(_points) * static_cast<std::uint32_t>(v);
            ctx.msEmitValue<std::uint32_t>(
                static_cast<std::uint32_t>(v));
            _state = State::kCoords;
            break;
          }
          case State::kCoords: {
            if (_valuesDone >= _valuesExpected)
                return;
            double d = 0.0;
            if (!ctx.msScanfNumber(&d, nullptr))
                return;
            ctx.msEmitValue<float>(static_cast<float>(d));
            ++_valuesDone;
            break;
          }
        }
    }
}

void
CooMatrixApp::processChunk(MsChunkContext &ctx)
{
    std::int64_t v = 0;
    double d = 0.0;
    for (;;) {
        switch (_state) {
          case State::kRows:
            if (!ctx.msScanfInt(&v))
                return;
            ctx.msEmitValue<std::uint32_t>(
                static_cast<std::uint32_t>(v));
            _state = State::kCols;
            break;
          case State::kCols:
            if (!ctx.msScanfInt(&v))
                return;
            ctx.msEmitValue<std::uint32_t>(
                static_cast<std::uint32_t>(v));
            _state = State::kNnz;
            break;
          case State::kNnz:
            if (!ctx.msScanfInt(&v))
                return;
            _nnz = static_cast<std::uint32_t>(v);
            ctx.msEmitValue<std::uint32_t>(_nnz);
            _state = State::kRow;
            break;
          case State::kRow:
            if (_entriesDone >= _nnz)
                return;
            if (!ctx.msScanfInt(&v))
                return;
            ctx.msEmitValue<std::uint32_t>(
                static_cast<std::uint32_t>(v));
            _state = State::kCol;
            break;
          case State::kCol:
            if (!ctx.msScanfInt(&v))
                return;
            ctx.msEmitValue<std::uint32_t>(
                static_cast<std::uint32_t>(v));
            _state = State::kValue;
            break;
          case State::kValue:
            if (!ctx.msScanfNumber(&d, nullptr))
                return;
            ctx.msEmitValue<float>(static_cast<float>(d));
            ++_entriesDone;
            _state = State::kRow;
            break;
        }
    }
}

bool
Int64TextSerializerApp::processWriteChunk(MsChunkContext &ctx)
{
    // ms_printf: binary i64 values in, ASCII text out.
    std::int64_t v = 0;
    char buf[24];
    while (ctx.msReadValue(&v)) {
        int n = 0;
        // Minimal integer formatter (the device library's ms_printf).
        char tmp[24];
        int len = 0;
        std::uint64_t u =
            v < 0 ? ~static_cast<std::uint64_t>(v) + 1
                  : static_cast<std::uint64_t>(v);
        do {
            tmp[len++] = static_cast<char>('0' + (u % 10));
            u /= 10;
        } while (u != 0);
        if (v < 0)
            buf[n++] = '-';
        while (len > 0)
            buf[n++] = tmp[--len];
        buf[n++] = (_valuesDone + 1) % 16 == 0 ? '\n' : ' ';
        ctx.msEmit(buf, static_cast<std::size_t>(n));
        ++_valuesDone;
    }
    return true;
}

void
EndianSwapApp::processChunk(MsChunkContext &ctx)
{
    // Binary path: consume 4-byte big-endian words straight from the
    // chunk (no text scanning) and emit them little endian.
    std::uint8_t be[4];
    for (;;) {
        if (!_haveCount) {
            if (!ctx.msReadRaw(be, 4))
                return;
            _count = (std::uint32_t(be[0]) << 24) |
                     (std::uint32_t(be[1]) << 16) |
                     (std::uint32_t(be[2]) << 8) | be[3];
            ctx.msEmitValue<std::uint32_t>(_count);
            _haveCount = true;
            continue;
        }
        if (_wordsDone >= _count)
            return;
        if (!ctx.msReadRaw(be, 4))
            return;
        const std::uint32_t v = (std::uint32_t(be[0]) << 24) |
                                (std::uint32_t(be[1]) << 16) |
                                (std::uint32_t(be[2]) << 8) | be[3];
        ctx.msEmitValue<std::uint32_t>(v);
        ++_wordsDone;
    }
}

void
CsvTableApp::pump(MsChunkContext &ctx)
{
    for (;;) {
        switch (_parser.next()) {
          case serde::CsvRowParser::Event::kColumnName:
            _columns.push_back(_parser.name());
            break;
          case serde::CsvRowParser::Event::kHeaderDone:
            // Emit the binary header frame once.
            ctx.msEmitValue<std::uint32_t>(
                static_cast<std::uint32_t>(_columns.size()));
            for (const auto &name : _columns) {
                ctx.msEmitValue<std::uint8_t>(
                    static_cast<std::uint8_t>(name.size()));
                ctx.msEmit(name.data(), name.size());
            }
            _headerEmitted = true;
            break;
          case serde::CsvRowParser::Event::kNumber:
            ctx.msEmitValue<double>(_parser.value());
            break;
          case serde::CsvRowParser::Event::kEndRow:
            ++_rows;
            break;
          case serde::CsvRowParser::Event::kEndDocument:
          case serde::CsvRowParser::Event::kNeedMoreData:
          case serde::CsvRowParser::Event::kError:
            return;
        }
    }
}

void
CsvTableApp::processChunk(MsChunkContext &ctx)
{
    std::vector<std::uint8_t> raw(ctx.msRawAvailable());
    if (!raw.empty()) {
        ctx.msReadRaw(raw.data(), raw.size());
        _parser.feed(raw.data(), raw.size());
    }
    const serde::ParseCost before = _parser.cost();
    pump(ctx);
    serde::ParseCost delta = _parser.cost();
    delta.bytes -= before.bytes;
    delta.intValues -= before.intValues;
    delta.floatValues -= before.floatValues;
    delta.floatOps -= before.floatOps;
    ctx.msChargeCost(delta);
}

void
CsvTableApp::finish(MsChunkContext &ctx)
{
    _parser.finish();
    pump(ctx);
}

void
JsonRecordsApp::pump(MsChunkContext &ctx)
{
    for (;;) {
        switch (_parser.next()) {
          case serde::JsonRowParser::Event::kBeginRecord:
            _record.clear();
            break;
          case serde::JsonRowParser::Event::kNumber:
            _record.push_back(_parser.value());
            break;
          case serde::JsonRowParser::Event::kEndRecord:
            ctx.msEmitValue<std::uint32_t>(
                static_cast<std::uint32_t>(_record.size()));
            for (const double v : _record)
                ctx.msEmitValue<double>(v);
            ++_records;
            break;
          case serde::JsonRowParser::Event::kEndDocument:
            if (!_ended) {
                ctx.msEmitValue<std::uint32_t>(kEndMarker);
                _ended = true;
            }
            return;
          case serde::JsonRowParser::Event::kNeedMoreData:
            return;
          case serde::JsonRowParser::Event::kError:
            // Malformed document: stop consuming; the emitted prefix
            // ends without a marker, which fromBinary rejects loudly.
            return;
        }
    }
}

void
JsonRecordsApp::processChunk(MsChunkContext &ctx)
{
    // Byte-stream app: pull the raw chunk and run the incremental
    // JSON parser; charge its accounting to the core.
    std::vector<std::uint8_t> raw(ctx.msRawAvailable());
    if (!raw.empty()) {
        ctx.msReadRaw(raw.data(), raw.size());
        _parser.feed(raw.data(), raw.size());
    }
    const serde::ParseCost before = _parser.cost();
    pump(ctx);
    serde::ParseCost delta = _parser.cost();
    delta.bytes -= before.bytes;
    delta.intValues -= before.intValues;
    delta.floatValues -= before.floatValues;
    delta.floatOps -= before.floatOps;
    ctx.msChargeCost(delta);
}

void
JsonRecordsApp::finish(MsChunkContext &ctx)
{
    _parser.finish();
    pump(ctx);
}

void
ColumnarScanApp::drain(MsChunkContext &ctx)
{
    const std::vector<std::uint8_t> out = _scanner->takeEmitted();
    if (!out.empty())
        ctx.msEmit(out.data(), out.size());
    ctx.msChargeCost(_scanner->takeCost());
}

void
ColumnarScanApp::processChunk(MsChunkContext &ctx)
{
    if (_badSpec)
        return;
    if (!_scanner) {
        serde::ScanSpec spec;  // no descriptor == full scan
        if (!ctx.pushdown().empty() &&
            !serde::ScanSpec::decode(ctx.pushdown(), &spec)) {
            _badSpec = true;
            return;
        }
        _scanner = std::make_unique<serde::ColumnarScanner>(spec);
    }
    std::vector<std::uint8_t> raw(ctx.msRawAvailable());
    if (!raw.empty()) {
        ctx.msReadRaw(raw.data(), raw.size());
        _scanner->feed(raw.data(), raw.size());
    }
    drain(ctx);
}

void
ColumnarScanApp::finish(MsChunkContext &ctx)
{
    if (_badSpec || !_scanner)
        return;
    _scanner->finish();
    drain(ctx);
}

std::uint32_t
ColumnarScanApp::returnValue() const
{
    if (_badSpec || !_scanner || _scanner->error())
        return kScanError;
    return static_cast<std::uint32_t>(_scanner->survivingRows());
}

StandardImages
StandardImages::make()
{
    StandardImages imgs;
    imgs.edgeList = MorpheusCompiler::compile(
        "edge-list-applet",
        [](std::uint32_t arg) { return std::make_unique<EdgeListApp>(arg); });
    imgs.matrix = MorpheusCompiler::compile(
        "matrix-applet",
        [](std::uint32_t arg) { return std::make_unique<MatrixApp>(arg); });
    imgs.intArray = MorpheusCompiler::compile(
        "int-array-applet",
        [](std::uint32_t arg) { return std::make_unique<IntArrayApp>(arg); });
    imgs.pointSet = MorpheusCompiler::compile(
        "point-set-applet",
        [](std::uint32_t arg) { return std::make_unique<PointSetApp>(arg); });
    imgs.cooMatrix = MorpheusCompiler::compile(
        "coo-matrix-applet",
        [](std::uint32_t arg) { return std::make_unique<CooMatrixApp>(arg); });
    imgs.int64Serializer = MorpheusCompiler::compile(
        "int64-serializer-applet", [](std::uint32_t arg) {
            return std::make_unique<Int64TextSerializerApp>(arg);
        });
    imgs.endianSwap = MorpheusCompiler::compile(
        "endian-swap-applet", [](std::uint32_t arg) {
            return std::make_unique<EndianSwapApp>(arg);
        });
    imgs.jsonRecords = MorpheusCompiler::compile(
        "json-records-applet", [](std::uint32_t arg) {
            return std::make_unique<JsonRecordsApp>(arg);
        });
    imgs.flatNumbers = MorpheusCompiler::compile(
        "flat-numbers-applet", [](std::uint32_t arg) {
            return std::make_unique<FlatNumbersApp>(arg);
        });
    imgs.csvTable = MorpheusCompiler::compile(
        "csv-table-applet", [](std::uint32_t arg) {
            return std::make_unique<CsvTableApp>(arg);
        });
    imgs.columnarScan = MorpheusCompiler::compile(
        "columnar-scan-applet", [](std::uint32_t arg) {
            return std::make_unique<ColumnarScanApp>(arg);
        });
    return imgs;
}

}  // namespace morpheus::core
