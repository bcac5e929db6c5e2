#include "ssd/object_cache.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace morpheus::ssd {

ObjectCache::ObjectCache(const ObjectCacheConfig &config,
                         std::uint64_t reserved_bytes)
    : _config(config),
      _capacityBytes(config.budgetBytes > reserved_bytes
                         ? config.budgetBytes - reserved_bytes
                         : 0)
{
}

const ObjectCache::Entry *
ObjectCache::lookup(const ObjectCacheKey &key)
{
    for (Entry &e : _entries) {
        if (e.key == key) {
            e.useSeq = ++_seq;
            ++_hits;
            _hitBytes += e.payload.size();
            return &e;
        }
    }
    ++_misses;
    return nullptr;
}

std::size_t
ObjectCache::victimIndex() const
{
    MORPHEUS_ASSERT(!_entries.empty(), "evicting from an empty cache");
    std::size_t victim = 0;
    for (std::size_t i = 1; i < _entries.size(); ++i) {
        if (_entries[i].useSeq < _entries[victim].useSeq)
            victim = i;
    }
    return victim;
}

void
ObjectCache::eraseEntry(std::size_t idx)
{
    _usedBytes -= _entries[idx].payload.size();
    _entries.erase(_entries.begin() +
                   static_cast<std::ptrdiff_t>(idx));
}

void
ObjectCache::insert(const ObjectCacheKey &key,
                    std::vector<std::uint8_t> payload,
                    std::uint32_t return_value)
{
    if (!_config.enabled || payload.size() > _capacityBytes) {
        if (_config.enabled)
            ++_rejectedTooLarge;
        return;
    }
    for (std::size_t i = 0; i < _entries.size(); ++i) {
        if (_entries[i].key == key) {
            // Re-parse of the same range: replace in place (the
            // payload is bit-identical by construction, but a replace
            // keeps the invariant trivially true).
            _usedBytes -= _entries[i].payload.size();
            _usedBytes += payload.size();
            _entries[i].payload = std::move(payload);
            _entries[i].returnValue = return_value;
            return;
        }
    }
    while (_usedBytes + payload.size() > _capacityBytes) {
        eraseEntry(victimIndex());
        ++_evictions;
    }
    Entry e;
    e.key = key;
    e.returnValue = return_value;
    e.useSeq = ++_seq;
    _usedBytes += payload.size();
    e.payload = std::move(payload);
    _entries.push_back(std::move(e));
    ++_insertions;
}

void
ObjectCache::invalidateRange(std::uint32_t nsid, std::uint64_t begin,
                             std::uint64_t end)
{
    if (begin >= end || _entries.empty())
        return;
    for (std::size_t i = _entries.size(); i-- > 0;) {
        const ObjectCacheKey &k = _entries[i].key;
        // End-exclusive overlap test (host::FileExtent convention):
        // [begin, end) and [rawBegin, rawBegin + rawLen) intersect iff
        // each starts before the other ends. Touching ranges do not.
        if (k.nsid == nsid && begin < k.rawBegin + k.rawLen &&
            k.rawBegin < end) {
            eraseEntry(i);
            ++_invalidations;
        }
    }
}

void
ObjectCache::invalidateApplet(const std::string &applet)
{
    for (std::size_t i = _entries.size(); i-- > 0;) {
        if (_entries[i].key.applet == applet) {
            eraseEntry(i);
            ++_invalidations;
        }
    }
}

void
ObjectCache::clear()
{
    _entries.clear();
    _usedBytes = 0;
}

void
ObjectCache::registerStats(sim::stats::StatSet &set,
                           const std::string &prefix) const
{
    set.registerCounter(prefix + ".hits", &_hits);
    set.registerCounter(prefix + ".misses", &_misses);
    set.registerCounter(prefix + ".insertions", &_insertions);
    set.registerCounter(prefix + ".evictions", &_evictions);
    set.registerCounter(prefix + ".invalidations", &_invalidations);
    set.registerCounter(prefix + ".hitBytes", &_hitBytes);
    set.registerCounter(prefix + ".rejectedTooLarge",
                        &_rejectedTooLarge);
}

}  // namespace morpheus::ssd
