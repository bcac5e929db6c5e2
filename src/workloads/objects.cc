#include "workloads/objects.hh"

#include "sim/logging.hh"

namespace morpheus::workloads {

AnyObject
parseObject(ObjectKind kind, const std::uint8_t *data, std::size_t size,
            serde::ParseCost *cost)
{
    serde::TextScanner scanner(data, size);
    AnyObject out;
    bool ok = false;
    switch (kind) {
      case ObjectKind::kEdgeList: {
        serde::EdgeListObject o;
        ok = o.parse(scanner, /*with_weights=*/false);
        out = std::move(o);
        break;
      }
      case ObjectKind::kEdgeListWeighted: {
        serde::EdgeListObject o;
        ok = o.parse(scanner, /*with_weights=*/true);
        out = std::move(o);
        break;
      }
      case ObjectKind::kMatrix: {
        serde::MatrixObject o;
        ok = o.parse(scanner);
        out = std::move(o);
        break;
      }
      case ObjectKind::kIntArray: {
        serde::IntArrayObject o;
        ok = o.parse(scanner);
        out = std::move(o);
        break;
      }
      case ObjectKind::kPointSet: {
        serde::PointSetObject o;
        ok = o.parse(scanner);
        out = std::move(o);
        break;
      }
      case ObjectKind::kCooMatrix: {
        serde::CooMatrixObject o;
        ok = o.parse(scanner);
        out = std::move(o);
        break;
      }
      case ObjectKind::kCsvTable: {
        serde::CsvTableObject o;
        ok = serde::parseCsvTable(data, size, &o, cost);
        MORPHEUS_ASSERT(ok, "CSV parse failed");
        return AnyObject(std::move(o));
      }
      case ObjectKind::kJsonRecords: {
        serde::JsonRecordsObject o;
        ok = serde::parseJsonRecords(data, size, &o, cost);
        MORPHEUS_ASSERT(ok, "JSON parse failed");
        return AnyObject(std::move(o));
      }
    }
    MORPHEUS_ASSERT(ok, "object parse failed (truncated input?)");
    if (cost)
        *cost += scanner.cost();
    return out;
}

std::vector<std::uint8_t>
serializeObject(const AnyObject &obj)
{
    serde::TextWriter w;
    std::visit([&w](const auto &o) { o.serialize(w); }, obj);
    return w.take();
}

std::uint64_t
objectBytes(const AnyObject &obj)
{
    return std::visit([](const auto &o) { return o.objectBytes(); }, obj);
}

sim::Digest128
objectDigest(const AnyObject &obj)
{
    sim::Digester d;
    std::visit([&d](const auto &o) { o.writeBinary(d); }, obj);
    return d.finish();
}

const core::StorageAppImage &
imageFor(ObjectKind kind, const core::StandardImages &imgs)
{
    switch (kind) {
      case ObjectKind::kEdgeList:
      case ObjectKind::kEdgeListWeighted:
        return imgs.edgeList;
      case ObjectKind::kMatrix:
        return imgs.matrix;
      case ObjectKind::kIntArray:
        return imgs.intArray;
      case ObjectKind::kPointSet:
        return imgs.pointSet;
      case ObjectKind::kCooMatrix:
        return imgs.cooMatrix;
      case ObjectKind::kCsvTable:
        return imgs.csvTable;
      case ObjectKind::kJsonRecords:
        return imgs.jsonRecords;
    }
    MORPHEUS_PANIC("unknown object kind");
}

std::uint32_t
appArgFor(ObjectKind kind)
{
    return kind == ObjectKind::kEdgeListWeighted ? 1u : 0u;
}

}  // namespace morpheus::workloads
