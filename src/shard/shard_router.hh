/**
 * @file
 * Host-side object placement for the multi-SSD fleet.
 *
 * One question: which device owns a whole keyed object? The answer is
 * FNV-1a over the key, modulo the fleet size — pseudo-random placement
 * that spreads a skewed object mix across the shards.
 */

#ifndef MORPHEUS_SHARD_SHARD_ROUTER_HH
#define MORPHEUS_SHARD_SHARD_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace morpheus::shard {

/** How objects map onto devices: key hashing is the only placement. */
enum class ShardPolicy
{
    kHash,  ///< FNV-1a key placement.
};

const char *shardPolicyName(ShardPolicy policy);

/** FNV-1a 64-bit over @p data (the placement hash primitive). */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/** Owning device of the object named @p key in a fleet of
 *  @p num_shards devices (FNV-1a mod N). */
unsigned shardForKey(const std::string &key, unsigned num_shards);

}  // namespace morpheus::shard

#endif  // MORPHEUS_SHARD_SHARD_ROUTER_HH
