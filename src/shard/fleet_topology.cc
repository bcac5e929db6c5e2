#include "shard/fleet_topology.hh"

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace morpheus::shard {

namespace {

constexpr std::uint64_t kU64Max =
    std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();

/**
 * Minimal recursive-descent parser for the topology's JSON subset:
 * objects, arrays, strings (no escapes beyond \" and \\), and
 * non-negative integers. The workload-side serde JSON parser is a
 * streaming numeric-records scanner (it *is* the benchmark payload),
 * so configuration parsing stays separate and dependency-free.
 */
class TinyJson
{
  public:
    explicit TinyJson(const std::string &text) : _s(text) {}

    void
    skipWs()
    {
        while (_pos < _s.size() &&
               std::isspace(static_cast<unsigned char>(_s[_pos])))
            ++_pos;
    }

    char
    peek()
    {
        skipWs();
        MORPHEUS_ASSERT(_pos < _s.size(),
                        "fleet topology: truncated JSON");
        return _s[_pos];
    }

    void
    expect(char c)
    {
        MORPHEUS_ASSERT(peek() == c, "fleet topology: expected '", c,
                        "' at offset ", _pos);
        ++_pos;
    }

    bool
    consume(char c)
    {
        if (peek() == c) {
            ++_pos;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            MORPHEUS_ASSERT(_pos < _s.size(),
                            "fleet topology: unterminated string");
            const char c = _s[_pos++];
            if (c == '"')
                break;
            if (c == '\\') {
                MORPHEUS_ASSERT(_pos < _s.size(),
                                "fleet topology: bad escape");
                out.push_back(_s[_pos++]);
            } else {
                out.push_back(c);
            }
        }
        return out;
    }

    /** A non-negative integer for field @p key, refused when it
     *  overflows 64 bits or exceeds @p max (the field's range). */
    std::uint64_t
    parseUint(const std::string &key, std::uint64_t max)
    {
        skipWs();
        MORPHEUS_ASSERT(_pos < _s.size() &&
                            std::isdigit(static_cast<unsigned char>(
                                _s[_pos])),
                        "fleet topology: expected number at offset ",
                        _pos);
        std::uint64_t v = 0;
        while (_pos < _s.size() &&
               std::isdigit(static_cast<unsigned char>(_s[_pos]))) {
            const auto digit =
                static_cast<std::uint64_t>(_s[_pos++] - '0');
            MORPHEUS_ASSERT(v <= (kU64Max - digit) / 10,
                            "fleet topology: \"", key,
                            "\" overflows 64 bits");
            v = v * 10 + digit;
        }
        MORPHEUS_ASSERT(v <= max, "fleet topology: \"", key, "\" = ", v,
                        " exceeds ", max);
        return v;
    }

    /** Skip any value (for unknown keys). */
    void
    skipValue()
    {
        const char c = peek();
        if (c == '"') {
            parseString();
        } else if (c == '{') {
            ++_pos;
            skipContainer('}');
        } else if (c == '[') {
            ++_pos;
            skipContainer(']');
        } else {
            // number / true / false / null
            while (_pos < _s.size() && _s[_pos] != ',' &&
                   _s[_pos] != '}' && _s[_pos] != ']' &&
                   !std::isspace(static_cast<unsigned char>(_s[_pos])))
                ++_pos;
        }
    }

    bool
    atEnd()
    {
        while (_pos < _s.size() &&
               std::isspace(static_cast<unsigned char>(_s[_pos])))
            ++_pos;
        return _pos >= _s.size();
    }

  private:
    void
    skipContainer(char close)
    {
        if (consume(close))
            return;
        while (true) {
            if (close == '}') {
                parseString();
                expect(':');
            }
            skipValue();
            if (!consume(','))
                break;
        }
        expect(close);
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

DeviceSpec
parseDevice(TinyJson &j)
{
    DeviceSpec dev;
    j.expect('{');
    if (j.consume('}'))
        return dev;
    while (true) {
        const std::string key = j.parseString();
        j.expect(':');
        if (key == "cores") {
            dev.cores =
                static_cast<unsigned>(j.parseUint(key, kUnsignedMax));
        } else if (key == "channels") {
            dev.channels =
                static_cast<unsigned>(j.parseUint(key, kUnsignedMax));
        } else if (key == "diesPerChannel") {
            dev.diesPerChannel =
                static_cast<unsigned>(j.parseUint(key, kUnsignedMax));
        } else if (key == "dramMiB") {
            dev.dramBytes =
                j.parseUint(key, kU64Max / sim::kMiB) * sim::kMiB;
        } else if (key == "label") {
            dev.label = j.parseString();
        } else {
            j.skipValue();
        }
        if (!j.consume(','))
            break;
    }
    j.expect('}');
    return dev;
}

}  // namespace

FleetTopology
FleetTopology::fromJson(const std::string &text)
{
    FleetTopology topo;
    TinyJson j(text);
    j.expect('{');
    if (!j.consume('}')) {
        while (true) {
            const std::string key = j.parseString();
            j.expect(':');
            if (key == "ssds") {
                topo.numSsds =
                    static_cast<unsigned>(j.parseUint(key, host::kMaxSsds));
            } else if (key == "devices") {
                j.expect('[');
                if (!j.consume(']')) {
                    while (true) {
                        topo.devices.push_back(parseDevice(j));
                        if (!j.consume(','))
                            break;
                    }
                    j.expect(']');
                }
            } else {
                j.skipValue();
            }
            if (!j.consume(','))
                break;
        }
        j.expect('}');
    }
    MORPHEUS_ASSERT(j.atEnd(),
                    "fleet topology: trailing JSON content");
    MORPHEUS_ASSERT(topo.numSsds > 0, "fleet topology: ssds = 0");
    return topo;
}

FleetTopology
FleetTopology::fromFile(const std::string &path)
{
    std::ifstream in(path);
    MORPHEUS_ASSERT(in.good(), "cannot open fleet topology: ", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromJson(buf.str());
}

void
FleetTopology::apply(host::SystemConfig &sys) const
{
    sys.numSsds = numSsds;
    if (devices.empty())
        return;
    sys.ssdConfigs.clear();
    for (unsigned d = 0; d < numSsds; ++d) {
        ssd::SsdConfig cfg = sys.ssd;  // template
        if (d < devices.size()) {
            const DeviceSpec &dev = devices[d];
            if (dev.cores)
                cfg.numCores = dev.cores;
            if (dev.channels)
                cfg.flash.channels = dev.channels;
            if (dev.diesPerChannel)
                cfg.flash.diesPerChannel = dev.diesPerChannel;
            if (dev.dramBytes)
                cfg.dramBytes = dev.dramBytes;
            if (!dev.label.empty())
                cfg.label = dev.label;
        }
        sys.ssdConfigs.push_back(cfg);
    }
}

}  // namespace morpheus::shard
