#include "shard/shard_router.hh"

#include "sim/logging.hh"

namespace morpheus::shard {

const char *
shardPolicyName(ShardPolicy policy)
{
    switch (policy) {
      case ShardPolicy::kHash:
        return "hash";
    }
    return "?";
}

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

unsigned
shardForKey(const std::string &key, unsigned num_shards)
{
    MORPHEUS_ASSERT(num_shards > 0, "placement with no shards");
    return static_cast<unsigned>(fnv1a(key.data(), key.size()) %
                                 num_shards);
}

}  // namespace morpheus::shard
