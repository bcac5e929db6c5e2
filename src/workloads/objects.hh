/**
 * @file
 * Uniform handling of the application-object kinds: a variant plus
 * dispatch helpers for parsing (host path), serialization, binary
 * size and digest (what a Morpheus run is validated against), and
 * StorageApp image selection.
 */

#ifndef MORPHEUS_WORKLOADS_OBJECTS_HH
#define MORPHEUS_WORKLOADS_OBJECTS_HH

#include <cstdint>
#include <variant>
#include <vector>

#include "core/standard_apps.hh"
#include "serde/csv.hh"
#include "serde/formats.hh"
#include "serde/json.hh"
#include "sim/digest.hh"

namespace morpheus::workloads {

/** Which object type an application deserializes. */
enum class ObjectKind {
    kEdgeList,
    kEdgeListWeighted,
    kMatrix,
    kIntArray,
    kPointSet,
    kCooMatrix,
    kCsvTable,     // extension formats (§II's CSV/JSON motivation)
    kJsonRecords,
};

/** Any of the supported object types. */
using AnyObject =
    std::variant<serde::EdgeListObject, serde::MatrixObject,
                 serde::IntArrayObject, serde::PointSetObject,
                 serde::CooMatrixObject, serde::CsvTableObject,
                 serde::JsonRecordsObject>;

/**
 * Host-path deserialization: parse @p data (text) into the object,
 * accumulating the parse cost into @p cost.
 */
AnyObject parseObject(ObjectKind kind, const std::uint8_t *data,
                      std::size_t size, serde::ParseCost *cost);

/** Text-serialize (used by generators and round-trip tests). */
std::vector<std::uint8_t> serializeObject(const AnyObject &obj);

/** Binary size of the object (DMA payload). */
std::uint64_t objectBytes(const AnyObject &obj);

/** Digest of the object's binary encoding (its DMA payload), fed
 *  straight from the encoder: no encoded copy is built. */
sim::Digest128 objectDigest(const AnyObject &obj);

/** StorageApp image that deserializes @p kind on the device. */
const core::StorageAppImage &imageFor(ObjectKind kind,
                                      const core::StandardImages &imgs);

/** MINIT argument word for @p kind (bit0 = weighted edges). */
std::uint32_t appArgFor(ObjectKind kind);

}  // namespace morpheus::workloads

#endif  // MORPHEUS_WORKLOADS_OBJECTS_HH
