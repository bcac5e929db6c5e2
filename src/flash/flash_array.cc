#include "flash/flash_array.hh"

#include <utility>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace morpheus::flash {

FlashArray::FlashArray(const FlashConfig &config) : _config(config)
{
    MORPHEUS_ASSERT(_config.channels > 0 && _config.diesPerChannel > 0,
                    "flash geometry is empty");
    _dieTimelines.reserve(_config.dies());
    for (unsigned c = 0; c < _config.channels; ++c) {
        for (unsigned d = 0; d < _config.diesPerChannel; ++d) {
            _dieTimelines.emplace_back(
                "flash.die[" + std::to_string(c) + "." +
                std::to_string(d) + "]");
        }
    }
    _channelTimelines.reserve(_config.channels);
    for (unsigned c = 0; c < _config.channels; ++c)
        _channelTimelines.emplace_back("flash.ch[" + std::to_string(c) +
                                       "]");
}

std::uint64_t
FlashArray::flatPage(const PagePointer &addr) const
{
    checkPageAddr(addr);
    std::uint64_t idx = addr.channel;
    idx = idx * _config.diesPerChannel + addr.die;
    idx = idx * _config.planesPerDie + addr.plane;
    idx = idx * _config.blocksPerPlane + addr.block;
    idx = idx * _config.pagesPerBlock + addr.page;
    return idx;
}

std::uint64_t
FlashArray::flatBlock(const BlockPointer &addr) const
{
    std::uint64_t idx = addr.channel;
    idx = idx * _config.diesPerChannel + addr.die;
    idx = idx * _config.planesPerDie + addr.plane;
    idx = idx * _config.blocksPerPlane + addr.block;
    return idx;
}

void
FlashArray::checkPageAddr(const PagePointer &addr) const
{
    MORPHEUS_ASSERT(addr.channel < _config.channels &&
                        addr.die < _config.diesPerChannel &&
                        addr.plane < _config.planesPerDie &&
                        addr.block < _config.blocksPerPlane &&
                        addr.page < _config.pagesPerBlock,
                    "flash address out of range");
}

sim::Timeline &
FlashArray::die(unsigned channel, unsigned die_idx)
{
    return _dieTimelines[channel * _config.diesPerChannel + die_idx];
}

const sim::Timeline &
FlashArray::die(unsigned channel, unsigned die_idx) const
{
    return _dieTimelines[channel * _config.diesPerChannel + die_idx];
}

const sim::Timeline &
FlashArray::dieTimeline(unsigned channel, unsigned die_idx) const
{
    return die(channel, die_idx);
}

sim::Tick
FlashArray::read(const PagePointer &addr, sim::Tick earliest,
                 bool *uncorrectable)
{
    MORPHEUS_ASSERT(isProgrammed(addr), "reading an unprogrammed page");

    // The die performs the cell read (tR), then the channel bus streams
    // the page out.
    const sim::Tick read_done =
        die(addr.channel, addr.die)
            .acquireUntil(earliest, _config.readLatency);
    const sim::Tick xfer = sim::transferTicks(_config.pageBytes,
                                              _config.channelBytesPerSec);
    const sim::Tick done =
        _channelTimelines[addr.channel].acquireUntil(read_done, xfer);

    ++_reads;
    _bytesRead += _config.pageBytes;

    // One uncorrectable-read draw per page access, consumed whether or
    // not the caller cares, so the fault schedule depends only on the
    // sequence of page reads.
    if (auto *fi = sim::faultInjector()) {
        if (fi->mediaError() && uncorrectable)
            *uncorrectable = true;
    }
    return done;
}

sim::Tick
FlashArray::program(const PagePointer &addr,
                    std::vector<std::uint8_t> data, sim::Tick earliest)
{
    MORPHEUS_ASSERT(data.size() <= _config.pageBytes,
                    "programming more than a page: ", data.size());
    const std::uint64_t idx = flatPage(addr);
    MORPHEUS_ASSERT(_pages.find(idx) == _pages.end(),
                    "program to a non-erased page (write-once violated)");

    const std::uint64_t blk =
        flatBlock({addr.channel, addr.die, addr.plane, addr.block});
    unsigned &next = _nextProgramPage[blk];
    MORPHEUS_ASSERT(addr.page == next,
                    "out-of-order program within block: page=", addr.page,
                    " expected=", next);
    ++next;

    // Channel bus streams the data in, then the die programs (tPROG).
    const sim::Tick xfer = sim::transferTicks(_config.pageBytes,
                                              _config.channelBytesPerSec);
    const sim::Tick in_done =
        _channelTimelines[addr.channel].acquireUntil(earliest, xfer);
    const sim::Tick done =
        die(addr.channel, addr.die)
            .acquireUntil(in_done, _config.programLatency);

    data.resize(_config.pageBytes, 0);
    _pages.emplace(idx, std::move(data));

    ++_programs;
    _bytesProgrammed += _config.pageBytes;
    return done;
}

sim::Tick
FlashArray::erase(const BlockPointer &addr, sim::Tick earliest)
{
    const std::uint64_t blk = flatBlock(addr);
    for (unsigned p = 0; p < _config.pagesPerBlock; ++p)
        _pages.erase(flatPage(addr.pageAt(p)));
    _nextProgramPage[blk] = 0;
    ++_eraseCounts[blk];

    const sim::Tick done =
        die(addr.channel, addr.die)
            .acquireUntil(earliest, _config.eraseLatency);
    ++_erases;
    return done;
}

bool
FlashArray::isProgrammed(const PagePointer &addr) const
{
    return _pages.find(flatPage(addr)) != _pages.end();
}

const std::vector<std::uint8_t> &
FlashArray::peek(const PagePointer &addr) const
{
    const auto it = _pages.find(flatPage(addr));
    MORPHEUS_ASSERT(it != _pages.end(), "peek at an unprogrammed page");
    return it->second;
}

std::uint64_t
FlashArray::eraseCount(const BlockPointer &addr) const
{
    const auto it = _eraseCounts.find(flatBlock(addr));
    return it == _eraseCounts.end() ? 0 : it->second;
}

void
FlashArray::registerStats(sim::stats::StatSet &set,
                          const std::string &prefix) const
{
    set.registerCounter(prefix + ".reads", &_reads);
    set.registerCounter(prefix + ".programs", &_programs);
    set.registerCounter(prefix + ".erases", &_erases);
    set.registerCounter(prefix + ".bytesRead", &_bytesRead);
    set.registerCounter(prefix + ".bytesProgrammed", &_bytesProgrammed);
}

}  // namespace morpheus::flash
