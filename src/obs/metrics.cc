#include "obs/metrics.hh"

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

namespace morpheus::obs {

void
MetricsRegistry::setCounter(const std::string &name, std::uint64_t value)
{
    _counters[name] = value;
}

void
MetricsRegistry::setScalar(const std::string &name, double value)
{
    _scalars[name] = value;
}

void
MetricsRegistry::absorb(const sim::stats::StatSet &set,
                        const std::string &prefix)
{
    set.visit([&](const std::string &name, std::uint64_t v) {
        setCounter(prefix + name, v);
    });
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    const auto it = _counters.find(name);
    return it == _counters.end() ? 0 : it->second;
}

double
MetricsRegistry::scalar(const std::string &name) const
{
    const auto it = _scalars.find(name);
    return it == _scalars.end() ? 0.0 : it->second;
}

void
MetricsRegistry::clear()
{
    _counters.clear();
    _scalars.clear();
}

namespace {

std::string
renderScalar(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

using Entry = std::pair<std::string, std::string>;  // path, JSON value

/**
 * Emit the entries of [lo, hi) — all sharing the path prefix of length
 * @p depth — as one JSON object. Entries are sorted by path, so the
 * children of one segment are contiguous. A path that is both a leaf
 * and an interior node ("a.b" next to "a.b.c") keeps its value under
 * the reserved key "self".
 */
void
emitObject(std::ostream &os, const std::vector<Entry> &entries,
           std::size_t lo, std::size_t hi, std::size_t depth,
           unsigned indent)
{
    os << "{";
    bool first = true;
    const std::string pad(indent * 2 + 2, ' ');
    std::size_t i = lo;
    while (i < hi) {
        const std::string &path = entries[i].first;
        if (!first)
            os << ",";
        first = false;
        os << "\n" << pad;
        if (path.size() <= depth) {
            // A leaf whose full path is also an interior node ("a.b"
            // next to "a.b.c"): park its value under "self".
            os << "\"self\": " << entries[i].second;
            ++i;
            continue;
        }
        const std::size_t dot = path.find('.', depth);
        const std::size_t seg_end =
            dot == std::string::npos ? path.size() : dot;
        const std::string segment = path.substr(depth, seg_end - depth);
        // Group every contiguous entry whose next path segment matches
        // (entries are sorted, so children of one segment adjoin).
        std::size_t j = i;
        while (j < hi) {
            const std::string &p = entries[j].first;
            const std::size_t end = depth + segment.size();
            if (p.size() < end ||
                p.compare(depth, segment.size(), segment) != 0 ||
                (p.size() > end && p[end] != '.')) {
                break;
            }
            ++j;
        }
        if (j == i + 1 && path.size() == seg_end) {
            os << "\"" << segment << "\": " << entries[i].second;
        } else {
            os << "\"" << segment << "\": ";
            emitObject(os, entries, i, j, depth + segment.size() + 1,
                       indent + 1);
        }
        i = j;
    }
    os << "\n" << std::string(indent * 2, ' ') << "}";
}

}  // namespace

void
MetricsRegistry::report(std::ostream &os) const
{
    auto c = _counters.begin();
    auto s = _scalars.begin();
    while (c != _counters.end() || s != _scalars.end()) {
        if (s == _scalars.end() ||
            (c != _counters.end() && c->first <= s->first)) {
            os << c->first << " " << c->second << "\n";
            ++c;
        } else {
            os << s->first << " " << renderScalar(s->second) << "\n";
            ++s;
        }
    }
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::vector<Entry> entries;
    entries.reserve(size());
    auto c = _counters.begin();
    auto s = _scalars.begin();
    while (c != _counters.end() || s != _scalars.end()) {
        if (s == _scalars.end() ||
            (c != _counters.end() && c->first <= s->first)) {
            entries.emplace_back(c->first, std::to_string(c->second));
            ++c;
        } else {
            entries.emplace_back(s->first, renderScalar(s->second));
            ++s;
        }
    }
    emitObject(os, entries, 0, entries.size(), 0, 0);
    os << "\n";
}

}  // namespace morpheus::obs
