#include "workloads/run_line.hh"

#include <algorithm>
#include <charconv>
#include <functional>
#include <iomanip>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "sim/parse_number.hh"

namespace morpheus::workloads {

namespace {

constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr double kDoubleMax = std::numeric_limits<double>::max();
/** Longest simulated span, in seconds, a 64-bit picosecond Tick holds. */
constexpr double kMaxSeconds = static_cast<double>(kU64Max / sim::kPsPerSec);

/** Shortest text that parses back to exactly @p v. */
template <typename T>
std::string
text(T v)
{
    char buf[64];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/** One flag of one command, bound to a field of one line. */
struct Row
{
    std::string flag;
    /** The value's name in the usage; empty for a switch. */
    std::string metavar;
    std::string help;
    /** The field as printed; "" for a switch that is off. */
    std::string value;
    /** Stores a value ("" for a switch); @return why not, or "". */
    std::function<std::string(const std::string &)> set;
    /** Where results go, not what runs: never printed. */
    bool output = false;
    /** The feature this row needs, and whether it is on. */
    std::string needs = {};
    bool on = true;
};

/** @p r as an output row. */
Row
output(Row r)
{
    r.output = true;
    return r;
}

/** @p r, refused (and not printed) unless @p feature is on. */
Row
needs(Row r, const char *feature, bool on)
{
    r.needs = feature;
    r.on = on;
    return r;
}

/** @p r, which also turns @p feature on. With @p names it prints
 *  whenever the feature is on, even at its default value. */
Row
enables(Row r, bool &feature, bool names = false)
{
    r.set = [set = std::move(r.set), &feature](const std::string &v) {
        std::string why = set(v);
        feature = feature || why.empty();
        return why;
    };
    if (names && !feature)
        r.value.clear();
    return r;
}

/** A number row: one T in [lo, hi], an end written `(` or `)` in
 *  @p ends excluded, stored times @p unit. */
template <typename T, typename F>
Row
num(const char *flag, const char *metavar, const char *help, F &field, T lo,
    T hi, const char *ends = "[]", T unit = 1)
{
    const std::string range = ends[0] + text(lo) + ", " + text(hi) + ends[1];
    return {flag, metavar, help + (" in " + range), text(field / unit),
            [=, &field](const std::string &v) {
                T x{};
                if (!sim::parseNumber(v, &x) ||
                    !(ends[0] == '(' ? x > lo : x >= lo) ||
                    !(ends[1] == ')' ? x < hi : x <= hi))
                    return flag + (" needs a number in " + range) + ": " + v;
                field = x * unit;
                return std::string();
            }};
}

/** A row whose value names one of @p names, in enum order. */
template <typename E>
Row
choice(const char *flag, const char *help, E &field,
       std::vector<std::string> names)
{
    std::string metavar = names[0];
    for (std::size_t i = 1; i < names.size(); ++i)
        metavar += "|" + names[i];
    return {flag, metavar, help, names.at(static_cast<std::size_t>(field)),
            [=, &field](const std::string &v) {
                const auto it = std::find(names.begin(), names.end(), v);
                if (it == names.end())
                    return flag + (" needs one of " + metavar) + ": " + v;
                field = static_cast<E>(it - names.begin());
                return std::string();
            }};
}

/** A switch: giving it sets @p field to @p value. */
Row
toggle(const char *flag, const char *help, bool &field, bool value = true)
{
    return {flag, "", help, field == value ? "on" : "",
            [&field, value](const std::string &) {
                field = value;
                return std::string();
            }};
}

/** An output file's path. */
Row
path(const char *flag, const char *metavar, const char *help,
     std::string &field)
{
    return output({flag, metavar, help, field, [&field](const auto &v) {
                       field = v;
                       return std::string();
                   }});
}

std::vector<Row>
rows(AppLine &l)
{
    const host::CpuConfig cpu;
    RunOptions &o = l.opts;
    auto &ssd = o.sys.ssd;
    return {
        choice("--mode", "execution mode", o.mode,
               {"baseline", "morpheus", "p2p"}),
        choice("--backend", "device the baseline reads from", o.backend,
               {"nvme", "hdd", "ram"}),
        num("--freq", "GHZ", "host CPU clock", o.cpuFreqHz,
            cpu.minFreqHz / 1e9, cpu.maxFreqHz / 1e9, "[]", 1e9),
        num("--scale", "S", "input size, Table I's times S", o.scale,
            kMinScale, kMaxScale),
        num("--chunk-blocks", "N", "MREAD chunk in 512 B blocks (0: MDTS)",
            o.chunkBlocks, 0u, ~0u),
        num("--seed", "N", "input seed", o.seed, std::uint64_t{0}, kU64Max),
        {"--fault-plan", "key=value,...",
         "faults in the measured phases: media, dma, crash, hang, drop "
         "(rates), dma_min, watchdog_us, seed; MORPHEUS_FAULTS sets it too",
         o.faults.spec(),
         [&o](const std::string &v) {
             std::string why;
             if (sim::FaultPlan::tryParse(v, &o.faults, &why))
                 return why;
             return "--fault-plan: " + why;
         }},
        toggle("--recovery", "driver timeouts and bounded retries",
               o.recovery.enabled),
        toggle("--pipeline",
               "streaming chunk pipeline: readahead, double-buffered "
               "parse, coalesced flush",
               ssd.pipeline.enabled),
        num("--ssds", "N", "SSDs behind the switch (the app uses one)",
            o.sys.numSsds, 1u, host::kMaxSsds),
        toggle("--cache", "LRU object cache in controller DRAM",
               ssd.cache.enabled),
        needs(num("--cache-bytes", "N", "cache budget, readahead included",
                  ssd.cache.budgetBytes, std::uint64_t{0}, kU64Max),
              "--cache", ssd.cache.enabled),
        num("--cores", "N", "embedded cores per SSD", ssd.numCores, 1u, 64u),
        num("--dsram-bytes", "N", "D-SRAM per core (flush at a quarter)",
            ssd.core.dsramBytes, 4096u, 1u << 24),
        num("--queue-entries", "N", "entries per NVMe I/O queue",
            o.sys.queueEntries, 2u, 65535u),
        toggle("--fpu", "embedded cores have a hardware FPU",
               ssd.core.hasFpu),
        num("--soft-float-cycles", "N", "core cycles per soft float op",
            ssd.core.cyclesPerFloatOpSoft, 1.0, 1000.0),
        num("--flash-channels", "N", "flash channels per SSD",
            ssd.flash.channels, 1u, 64u),
        num("--dies-per-channel", "N", "flash dies per channel",
            ssd.flash.diesPerChannel, 1u, 64u),
        output(toggle("--stats", "print the metrics registry", l.stats)),
        path("--trace", "FILE.json", "write a Chrome trace of the run",
             l.tracePath),
        path("--stats-json", "FILE", "write the registry as JSON",
             l.statsJsonPath),
    };
}

std::vector<Row>
rows(ServeLine &l)
{
    ServingOptions &o = l.opts;
    TenantSpec &t = l.tenant;
    const char *columnar = "--format columnar";
    const bool is_columnar = t.format == TenantFormat::kColumnar;
    return {
        num("--tenants", "N", "tenants, ids 1 to N", l.tenants, 1u, ~0u),
        num("--rate", "R", "open-loop arrivals/s, split S:1:...:1", l.rate,
            0.0, kDoubleMax, "(]"),
        num("--skew", "S", "tenant 1's share S of --rate", l.skew, 0.0,
            kDoubleMax, "(]"),
        num("--duration-sec", "S", "open-loop arrival window",
            o.durationSec, 0.0, kMaxSeconds, "(]"),
        toggle("--closed-loop", "each tenant keeps 4 requests in flight",
               o.closedLoop),
        needs(num("--requests", "N", "requests per tenant",
                  o.closedLoopRequests, std::uint64_t{0}, kU64Max),
              "--closed-loop", o.closedLoop),
        num("--seed", "N", "seed", o.seed, std::uint64_t{0}, kU64Max),
        num("--ssds", "N",
            "SSDs; each object lives on the one its name hashes to",
            o.sys.numSsds, 1u, host::kMaxSsds),
        toggle("--breakdown", "split each latency into pipeline stages",
               o.breakdown),
        enables(num("--slo", "TARGET_US", "track SLO burn per tenant",
                    o.slo.targetUs, 0.0, kDoubleMax, "(]"),
                o.slo.enabled, true),
        enables(num("--slo-objective", "F", "share that must meet it",
                    o.slo.objective, 0.0, 1.0, "()"),
                o.slo.enabled),
        enables(num("--slo-window-us", "N", "burn window (0: none)",
                    o.slo.windowUs, 0.0, kDoubleMax),
                o.slo.enabled),
        toggle("--hybrid", "place requests on device, host or both by load",
               o.hybrid.enabled),
        num("--host-cost-scale", "F", "host path conversion cost factor",
            o.hybrid.hostCostScale, 0.0, kDoubleMax, "(]"),
        enables(toggle("--shed", "hybrid, bouncing requests when both "
                                 "sides are saturated",
                       o.hybrid.shed),
                o.hybrid.enabled),
        choice("--format", "every tenant's object format", t.format,
               {"int", "csv", "json", "columnar"}),
        needs(num("--selectivity", "F", "share of rows the scan keeps",
                  t.selectivity, 0.0, 1.0, "(]"),
              columnar, is_columnar),
        needs(num("--project", "N", "project the first N columns (0: all)",
                  t.projectColumns, 0u, TenantSpec{}.tableColumns),
              columnar, is_columnar),
        needs(toggle("--no-pushdown", "ship the whole table to the host",
                     t.pushdown, false),
              columnar, is_columnar),
        num("--write-fraction", "F", "share of requests that MWRITE",
            t.writeFraction, 0.0, 1.0),
        path("--slow-traces", "FILE.json", "write the slowest traces",
             l.slowTracesPath),
        output(num("--slow-k", "N", "slowest traces kept", l.slowK,
                   std::size_t{0}, std::numeric_limits<std::size_t>::max())),
        path("--timeline", "FILE.json", "write sampled gauges as JSON",
             l.timelinePath),
        path("--timeline-csv", "FILE.csv", "write sampled gauges as CSV",
             l.timelineCsvPath),
        output(num("--timeline-interval-us", "N", "sampling interval",
                   l.timelineIntervalUs, std::uint64_t{1},
                   kU64Max / sim::kPsPerUs)),
        path("--stats-json", "FILE", "write the registry as JSON",
             l.statsJsonPath),
        path("--trace", "FILE.json", "write every span as a Chrome trace",
             l.tracePath),
    };
}

template <typename Line>
constexpr bool kIsApp = std::is_same_v<Line, AppLine>;

}  // namespace

ServingOptions
ServeLine::options() const
{
    ServingOptions o = opts;
    for (std::uint32_t t = 0; t < tenants; ++t) {
        o.tenants.push_back(tenant);
        o.tenants.back().id = t + 1;
    }
    setSkewedLoad(o, rate, skew);
    return o;
}

template <typename Line>
LineStatus
parseLine(const std::vector<std::string> &args, Line *line,
          std::string *error)
{
    if constexpr (kIsApp<Line>) {
        if (args.empty() || args[0] == "--help" || args[0] == "-h")
            return LineStatus::kHelp;
        line->app = args[0];
        const auto named = [&](const AppSpec &a) { return a.name == args[0]; };
        if (std::none_of(standardSuite().begin(), standardSuite().end(),
                         named) &&
            std::none_of(extensionSuite().begin(), extensionSuite().end(),
                         named)) {
            *error = "unknown app: " + args[0] + " (see `morpheus-run list`)";
            return LineStatus::kRefused;
        }
    }
    const std::vector<Row> table = rows(*line);
    std::vector<std::string> given;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &word = args[i];
        if (word == "--help" || word == "-h")
            return LineStatus::kHelp;
        const auto row = std::find_if(table.begin(), table.end(),
                                      [&](const Row &r) {
                                          return r.flag == word;
                                      });
        if (row == table.end())
            *error = "unknown option: " + word;
        else if (!row->metavar.empty() && ++i == args.size())
            *error = word + " needs a value";
        else
            *error = row->set(row->metavar.empty() ? "" : args[i]);
        if (!error->empty())
            return LineStatus::kRefused;
        given.push_back(word);
    }
    // A feature may be turned on after the flag that needs it.
    for (const Row &row : rows(*line)) {
        if (!row.on && std::count(given.begin(), given.end(), row.flag)) {
            *error = row.flag + " needs " + row.needs;
            return LineStatus::kRefused;
        }
    }
    return LineStatus::kRun;
}

template <typename Line>
std::string
printLine(const Line &line)
{
    Line now = line, defaults;
    const std::vector<Row> set = rows(now), unset = rows(defaults);
    std::string words;
    if constexpr (kIsApp<Line>)
        words = line.app;
    else
        words = "serve";
    for (std::size_t i = 0; i < set.size(); ++i) {
        const Row &r = set[i];
        if (!r.output && r.on && r.value != unset[i].value)
            words += " " + r.flag + (r.metavar.empty() ? "" : " " + r.value);
    }
    return words;
}

template <typename Line>
std::string
usage()
{
    Line defaults;
    std::ostringstream os;
    os << (kIsApp<Line>
               ? "usage: morpheus-run <app> [flags]  run an app once\n"
                 "       morpheus-run list           name the apps\n"
                 "       morpheus-run serve [flags]  see serve --help\n"
               : "usage: morpheus-run serve [flags]  run the multi-tenant "
                 "serving driver once\n");
    for (const Row &r : rows(defaults)) {
        os << "  " << std::left << std::setw(25) << r.flag + " " + r.metavar
           << ' ' << r.help
           << (r.metavar.empty() || r.value.empty()
                   ? ""
                   : " (default " + r.value + ")")
           << (r.needs.empty() ? "" : "; needs " + r.needs) << "\n";
    }
    return os.str();
}

template LineStatus parseLine(const std::vector<std::string> &, AppLine *,
                              std::string *);
template LineStatus parseLine(const std::vector<std::string> &, ServeLine *,
                              std::string *);
template std::string printLine(const AppLine &);
template std::string printLine(const ServeLine &);
template std::string usage<AppLine>();
template std::string usage<ServeLine>();

}  // namespace morpheus::workloads
