#include "ftl/ftl.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/logging.hh"

namespace morpheus::ftl {

namespace {

/** Plane index within the whole array. */
unsigned
planeIndex(const flash::FlashConfig &cfg, const flash::BlockPointer &b)
{
    return (b.channel * cfg.diesPerChannel + b.die) * cfg.planesPerDie +
           b.plane;
}

}  // namespace

Ftl::Ftl(flash::FlashArray &array, const FtlConfig &config)
    : _array(array), _config(config)
{
    const auto &fc = _array.config();
    MORPHEUS_ASSERT(_config.overProvisioning > 0.0 &&
                        _config.overProvisioning < 0.5,
                    "unreasonable over-provisioning ratio");
    MORPHEUS_ASSERT(_config.gcHighWatermark >= _config.gcLowWatermark,
                    "GC watermarks inverted");
    const double usable = 1.0 - _config.overProvisioning;
    _logicalPages = static_cast<std::uint64_t>(
        static_cast<double>(fc.pages()) * usable);

    _recycled.resize(fc.planes());
    _nextFresh.assign(fc.planes(), 0);
    _freeBlocks = fc.blocks();
    _activeBlocks.assign(fc.planes(), kUnmapped);
}

std::uint64_t
Ftl::flatBlock(const flash::BlockPointer &b) const
{
    const auto &fc = _array.config();
    std::uint64_t idx = b.channel;
    idx = idx * fc.diesPerChannel + b.die;
    idx = idx * fc.planesPerDie + b.plane;
    idx = idx * fc.blocksPerPlane + b.block;
    return idx;
}

flash::BlockPointer
Ftl::blockAt(unsigned plane, unsigned block) const
{
    const auto &fc = _array.config();
    flash::BlockPointer b;
    b.plane = plane % fc.planesPerDie;
    plane /= fc.planesPerDie;
    b.die = plane % fc.diesPerChannel;
    b.channel = plane / fc.diesPerChannel;
    b.block = block;
    return b;
}

bool
Ftl::isMapped(std::uint64_t lpn) const
{
    return _map.find(lpn) != _map.end();
}

flash::PagePointer
Ftl::pageAddress(std::uint64_t ppn) const
{
    const auto &fc = _array.config();
    flash::PagePointer addr;
    std::uint64_t rest = ppn;
    addr.page = static_cast<unsigned>(rest % fc.pagesPerBlock);
    rest /= fc.pagesPerBlock;
    addr.block = static_cast<unsigned>(rest % fc.blocksPerPlane);
    rest /= fc.blocksPerPlane;
    addr.plane = static_cast<unsigned>(rest % fc.planesPerDie);
    rest /= fc.planesPerDie;
    addr.die = static_cast<unsigned>(rest % fc.diesPerChannel);
    rest /= fc.diesPerChannel;
    addr.channel = static_cast<unsigned>(rest);
    return addr;
}

std::span<const std::uint8_t>
Ftl::peekPage(std::uint64_t lpn) const
{
    const auto it = _map.find(lpn);
    return it == _map.end() ? std::span<const std::uint8_t>()
                            : it->second.bytes;
}

PageReads
Ftl::readPages(std::uint64_t lpn, std::uint32_t count, sim::Tick earliest)
{
    MORPHEUS_ASSERT(count > 0, "zero-length FTL read");
    MORPHEUS_ASSERT(lpn + count <= _logicalPages,
                    "FTL read beyond logical capacity: lpn=", lpn,
                    " count=", count);
    PageReads reads;
    reads.pageTicks.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        sim::Tick page_done = earliest;
        const auto it = _map.find(lpn + i);
        if (it != _map.end()) {
            page_done = _array.read(pageAddress(it->second.ppn), earliest,
                                    &reads.mediaError);
        }
        reads.pageTicks.push_back(page_done);
        ++_hostReads;
    }
    return reads;
}

void
Ftl::invalidate(std::uint64_t lpn, std::uint64_t ppn)
{
    if (ppn == kUnmapped)
        return;
    const auto &fc = _array.config();
    const std::uint64_t blk = ppn / fc.pagesPerBlock;
    const auto slot = static_cast<unsigned>(ppn % fc.pagesPerBlock);
    auto bit = _blocks.find(blk);
    MORPHEUS_ASSERT(bit != _blocks.end(), "mapped page in unknown block");
    MORPHEUS_ASSERT(bit->second.pageLpn[slot] == lpn,
                    "reverse map inconsistent");
    bit->second.pageLpn[slot] = kUnmapped;
    MORPHEUS_ASSERT(bit->second.validPages > 0, "valid count underflow");
    --bit->second.validPages;
}

std::uint64_t
Ftl::allocatePage(std::uint64_t lpn, sim::Tick now, sim::Tick *gc_done)
{
    const auto &fc = _array.config();
    const unsigned planes = fc.planes();

    // Trigger GC before picking a block (never recursively from GC's
    // own relocation writes).
    if (!_inGc && _freeBlocks < _config.gcLowWatermark) {
        const sim::Tick t = collectGarbage(now);
        if (gc_done)
            *gc_done = std::max(*gc_done, t);
    }

    for (unsigned attempt = 0; attempt < planes; ++attempt) {
        const unsigned plane =
            static_cast<unsigned>(_nextPlane++ % planes);
        std::uint64_t &active = _activeBlocks[plane];

        if (active != kUnmapped) {
            BlockState &bs = _blocks.at(active);
            if (bs.writtenPages < fc.pagesPerBlock) {
                const unsigned slot = bs.writtenPages++;
                bs.pageLpn[slot] = lpn;
                ++bs.validPages;
                return active * fc.pagesPerBlock + slot;
            }
            active = kUnmapped;  // block full; retire from stripe
        }

        // Open a free block of this plane if the pool has one.
        std::vector<unsigned> &recycled = _recycled[plane];
        unsigned block = 0;
        if (!recycled.empty()) {
            block = recycled.back();
            recycled.pop_back();
        } else if (_nextFresh[plane] < fc.blocksPerPlane) {
            block = _nextFresh[plane]++;
        } else {
            continue;  // no free block in this plane; try the next
        }
        --_freeBlocks;
        const flash::BlockPointer addr = blockAt(plane, block);

        const std::uint64_t blk = flatBlock(addr);
        BlockState bs;
        bs.addr = addr;
        bs.pageLpn.assign(fc.pagesPerBlock, kUnmapped);
        const auto [bit, inserted] = _blocks.emplace(blk, std::move(bs));
        MORPHEUS_ASSERT(inserted, "block opened twice");
        active = blk;

        BlockState &nb = bit->second;
        const unsigned slot = nb.writtenPages++;
        nb.pageLpn[slot] = lpn;
        ++nb.validPages;
        return blk * fc.pagesPerBlock + slot;
    }
    MORPHEUS_PANIC("FTL out of free blocks (over-provisioning exhausted)");
}

sim::Tick
Ftl::collectGarbage(sim::Tick now)
{
    const auto &fc = _array.config();
    _inGc = true;
    ++_gcRuns;
    sim::Tick done = now;

    while (_freeBlocks < _config.gcHighWatermark) {
        // Greedy victim: fewest valid pages among full, non-active
        // blocks; ties go to the least-erased block (static wear
        // levelling — cycling cold blocks back into service).
        std::uint64_t victim = kUnmapped;
        unsigned best_valid = std::numeric_limits<unsigned>::max();
        std::uint64_t best_wear =
            std::numeric_limits<std::uint64_t>::max();
        for (const auto &[blk, bs] : _blocks) {
            if (bs.writtenPages < fc.pagesPerBlock)
                continue;  // still open for writes
            if (std::find(_activeBlocks.begin(), _activeBlocks.end(),
                          blk) != _activeBlocks.end()) {
                continue;
            }
            const std::uint64_t wear = _array.eraseCount(bs.addr);
            if (bs.validPages < best_valid ||
                (bs.validPages == best_valid && wear < best_wear)) {
                best_valid = bs.validPages;
                best_wear = wear;
                victim = blk;
            }
        }
        if (victim == kUnmapped)
            break;  // nothing reclaimable

        BlockState victim_state = _blocks.at(victim);

        // Relocate every valid page, then erase the victim. The bytes
        // stay with the logical page; only its mapping moves.
        sim::Tick reads_done = now;
        for (unsigned slot = 0; slot < fc.pagesPerBlock; ++slot) {
            const std::uint64_t lpn = victim_state.pageLpn[slot];
            if (lpn == kUnmapped)
                continue;
            const sim::Tick rd =
                _array.read(victim_state.addr.pageAt(slot), now);
            reads_done = std::max(reads_done, rd);

            LogicalPage &page = _map.at(lpn);
            invalidate(lpn, page.ppn);
            sim::Tick unused = 0;
            page.ppn = allocatePage(lpn, rd, &unused);
            const sim::Tick wr = _array.program(pageAddress(page.ppn), rd);
            done = std::max(done, wr);
            ++_gcRelocated;
        }

        _blocks.erase(victim);
        const sim::Tick er =
            _array.erase(victim_state.addr, reads_done);
        done = std::max(done, er);
        _recycled[planeIndex(fc, victim_state.addr)].push_back(
            victim_state.addr.block);
        ++_freeBlocks;
    }

    _inGc = false;
    return done;
}

sim::Tick
Ftl::writeBytes(std::uint64_t byte_offset,
                std::span<const std::uint8_t> data, sim::Tick earliest)
{
    MORPHEUS_ASSERT(!data.empty(), "zero-length FTL write");
    const std::uint32_t page_bytes = pageBytes();
    const std::uint64_t end = (byte_offset + data.size() - 1) / page_bytes + 1;
    MORPHEUS_ASSERT(end <= _logicalPages,
                    "FTL write beyond logical capacity");

    sim::Tick done = earliest;
    std::size_t lo = byte_offset % page_bytes;  // slice start in the page
    for (auto lpn = byte_offset / page_bytes; lpn < end; ++lpn, lo = 0) {
        LogicalPage &page = _map[lpn];
        invalidate(lpn, page.ppn);
        sim::Tick gc_done = earliest;
        page.ppn = allocatePage(lpn, earliest, &gc_done);

        // Patch the slice in: the buffer grows to the slice's end if it
        // was shorter, and the bytes on both sides of the slice stay.
        const auto n = std::min<std::size_t>(page_bytes - lo, data.size());
        if (page.bytes.size() < lo + n)
            page.bytes.resize(lo + n);
        std::copy_n(data.begin(), n, page.bytes.begin() + lo);
        data = data.subspan(n);

        const sim::Tick wr =
            _array.program(pageAddress(page.ppn), gc_done);
        done = std::max(done, wr);
        ++_hostWrites;
    }
    return done;
}

std::uint64_t
Ftl::maxEraseDelta() const
{
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    for (const auto &[blk, bs] : _blocks) {
        const std::uint64_t w = _array.eraseCount(bs.addr);
        lo = std::min(lo, w);
        hi = std::max(hi, w);
    }
    return _blocks.empty() ? 0 : hi - lo;
}

void
Ftl::writeStats(obs::MetricsRegistry &reg,
                const std::string &prefix) const
{
    reg.insertCounter(prefix + ".hostReads", _hostReads.value());
    reg.insertCounter(prefix + ".hostWrites", _hostWrites.value());
    reg.insertCounter(prefix + ".gcRuns", _gcRuns.value());
    reg.insertCounter(prefix + ".gcRelocated", _gcRelocated.value());
}

}  // namespace morpheus::ftl
