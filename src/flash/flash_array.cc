#include "flash/flash_array.hh"

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
FlashArray::pageBlock(const PagePointer &addr) const
{
    checkPageAddr(addr);
    return flatBlock({addr.channel, addr.die, addr.plane, addr.block});
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
FlashArray::program(const PagePointer &addr, sim::Tick earliest)
{
    unsigned &next = _nextProgramPage[pageBlock(addr)];
    MORPHEUS_ASSERT(addr.page >= next,
                    "program to a non-erased page (write-once violated)");
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

    ++_programs;
    _bytesProgrammed += _config.pageBytes;
    return done;
}

sim::Tick
FlashArray::erase(const BlockPointer &addr, sim::Tick earliest)
{
    const std::uint64_t blk = pageBlock(addr.pageAt(0));
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
    const auto it = _nextProgramPage.find(pageBlock(addr));
    return it != _nextProgramPage.end() && addr.page < it->second;
}

std::uint64_t
FlashArray::eraseCount(const BlockPointer &addr) const
{
    const auto it = _eraseCounts.find(flatBlock(addr));
    return it == _eraseCounts.end() ? 0 : it->second;
}

void
FlashArray::writeStats(obs::MetricsRegistry &reg,
                       const std::string &prefix) const
{
    reg.insertCounter(prefix + ".reads", _reads.value());
    reg.insertCounter(prefix + ".programs", _programs.value());
    reg.insertCounter(prefix + ".erases", _erases.value());
    reg.insertCounter(prefix + ".bytesRead", _bytesRead.value());
    reg.insertCounter(prefix + ".bytesProgrammed", _bytesProgrammed.value());
}

}  // namespace morpheus::flash
