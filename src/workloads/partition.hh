/**
 * @file
 * Splitting objects across MPI ranks.
 *
 * MPI applications in the suite read one input file per rank (the
 * standard BigDataBench arrangement), so the generator's object is
 * partitioned into per-rank sub-objects before serialization. Each
 * rank's produced object is validated against its own shard, so
 * nothing merges the shards back.
 */

#ifndef MORPHEUS_WORKLOADS_PARTITION_HH
#define MORPHEUS_WORKLOADS_PARTITION_HH

#include <vector>

#include "workloads/objects.hh"

namespace morpheus::workloads {

/** Split @p obj into @p parts contiguous shards (edges or rows;
 *  remainder to the front shards). One part is @p obj itself, moved
 *  in when the caller passes an rvalue, whatever its kind. More parts
 *  need a kind a multi-rank app holds: an edge list (weighted or not)
 *  or a CSV table; any other kind panics. */
std::vector<AnyObject> partitionObject(AnyObject obj, unsigned parts);

}  // namespace morpheus::workloads

#endif  // MORPHEUS_WORKLOADS_PARTITION_HH
