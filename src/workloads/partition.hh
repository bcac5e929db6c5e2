/**
 * @file
 * Splitting objects across MPI ranks and merging them back.
 *
 * MPI applications in the suite read one input file per rank (the
 * standard BigDataBench arrangement), so the generator's object is
 * partitioned into per-rank sub-objects before serialization, and the
 * per-rank deserialized objects merge back into the full object for
 * the kernel and for validation.
 */

#ifndef MORPHEUS_WORKLOADS_PARTITION_HH
#define MORPHEUS_WORKLOADS_PARTITION_HH

#include <vector>

#include "workloads/objects.hh"

namespace morpheus::workloads {

/** Split @p obj into @p parts sub-objects (element-wise round-robin
 *  free: contiguous shards, remainder to the front shards). One part
 *  is @p obj itself, moved in when the caller passes an rvalue. */
std::vector<AnyObject> partitionObject(AnyObject obj, unsigned parts);

/** Reassemble shards produced by partitionObject. */
AnyObject mergeObjects(ObjectKind kind,
                       const std::vector<AnyObject> &parts);

}  // namespace morpheus::workloads

#endif  // MORPHEUS_WORKLOADS_PARTITION_HH
