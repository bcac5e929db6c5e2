/**
 * @file
 * Run-line tests: a canonical morpheus-run line prints back to itself,
 * every numeric flag refuses the values just past both ends of its
 * range, unknown, removed and feature-less flags are refused, and a
 * run replayed from its printed line measures exactly what the
 * original did, for every knob value the paper benches set.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "workloads/run_line.hh"

namespace wk = morpheus::workloads;
using wk::LineStatus;

namespace {

std::vector<std::string>
words(const std::string &line)
{
    std::istringstream is(line);
    std::vector<std::string> out;
    for (std::string w; is >> w;)
        out.push_back(w);
    return out;
}

/** Parse @p line, "serve ..." or "<app> ...", into its canonical text;
 *  @return the status, with the text in @p printed. */
LineStatus
reprint(const std::string &line, std::string *printed)
{
    const std::vector<std::string> args = words(line);
    std::string error;
    if (!args.empty() && args[0] == "serve") {
        wk::ServeLine l;
        const LineStatus s = wk::parseLine(args, &l, &error);
        *printed = wk::printLine(l);
        return s;
    }
    wk::AppLine l;
    const LineStatus s = wk::parseLine(args, &l, &error);
    *printed = wk::printLine(l);
    return s;
}

LineStatus
status(const std::string &line)
{
    std::string printed;
    return reprint(line, &printed);
}

}  // namespace

TEST(RunLine, CanonicalLinesPrintBackToThemselves)
{
    const char *lines[] = {
        "kmeans",
        "kmeans --mode morpheus --scale 0.05",
        "bfs --mode p2p --backend hdd --freq 1.2 --scale "
        "0.010000000000000002 --chunk-blocks 32 --seed 7 --fault-plan "
        "media=0.002,dma=0.001,crash=5e-04,hang=1e-04,drop=0.001,"
        "dma_min=1024,watchdog_us=50,seed=5 --recovery --pipeline --ssds 4 "
        "--cache --cache-bytes 1048576 --cores 8 --dsram-bytes 8192 "
        "--queue-entries 2 --fpu --soft-float-cycles 5 --flash-channels 2 "
        "--dies-per-channel 1",
        "spmv --mode morpheus --soft-float-cycles 44",
        "serve",
        "serve --tenants 4 --rate 18000 --skew 4 --duration-sec 0.01 "
        "--seed 7 --ssds 4 --breakdown --slo 4000 --slo-objective 0.9 "
        "--slo-window-us 0 --hybrid --host-cost-scale 4 --shed --format "
        "columnar --selectivity 0.1 --project 2 --no-pushdown "
        "--write-fraction 0.25",
        "serve --closed-loop --requests 400 --ssds 2 --write-fraction 0.25",
        "serve --slo 2000",
    };
    for (const std::string line : lines) {
        std::string printed;
        EXPECT_EQ(reprint(line, &printed), LineStatus::kRun) << line;
        EXPECT_EQ(printed, line);
    }
}

TEST(RunLine, NonCanonicalLinesPrintTheirCanonicalForm)
{
    const std::pair<const char *, const char *> cases[] = {
        // Defaults, outputs and order do not print.
        {"kmeans --scale 0.25 --mode baseline --seed 42", "kmeans"},
        {"kmeans --stats --trace t.json --stats-json s.json --mode p2p",
         "kmeans --mode p2p"},
        {"serve --slow-traces s.json --slow-k 3 --timeline t.json "
         "--timeline-csv t.csv --timeline-interval-us 5 --stats-json "
         "s.json --trace t.json",
         "serve"},
        {"kmeans --pipeline --mode morpheus", "kmeans --mode morpheus "
                                              "--pipeline"},
        // A flag that turns its feature on prints the feature.
        {"serve --shed", "serve --hybrid --shed"},
        {"serve --slo-objective 0.9", "serve --slo 2000 --slo-objective 0.9"},
        // The last of a repeated flag wins.
        {"kmeans --scale 0.05 --scale 0.5", "kmeans --scale 0.5"},
    };
    for (const auto &[line, canonical] : cases) {
        std::string printed;
        EXPECT_EQ(reprint(line, &printed), LineStatus::kRun) << line;
        EXPECT_EQ(printed, canonical);
    }
}

TEST(RunLine, FaultPlanPrintsWhateverSetIt)
{
    // A plan set in RunOptions, as a bench cell would, prints as a flag.
    wk::AppLine line;
    line.app = "pagerank";
    std::string error;
    ASSERT_TRUE(morpheus::sim::FaultPlan::tryParse("seed=9,crash=2e-2",
                                                   &line.opts.faults, &error));
    EXPECT_EQ(wk::printLine(line),
              "pagerank --fault-plan crash=0.02,seed=9");
}

/** One end of a numeric row's range. */
struct End
{
    std::string flag;
    /** The end itself when the range includes it, else "". */
    std::string edge;
    /** The value just past the end. */
    std::string past;
};

/**
 * Both ends of every "--flag V ... in [lo, hi]" row of @p usage. Past
 * an excluded end is the end itself; past an included one is one
 * integer, or one double step, beyond it.
 */
std::vector<End>
rangeEnds(const std::string &usage)
{
    static const std::regex row(
        R"(^  (--[a-z-]+) \S+ .* in ([\[(])([^,]+), ([^\])]+)([\])]))");
    const auto end = [](const std::string &flag, const std::string &v,
                        bool open, double dir) {
        if (open)
            return End{flag, "", v};
        if (v == "18446744073709551615")
            return End{flag, v, "18446744073709551616"};
        const double x = std::stod(v);
        std::ostringstream os;
        os.precision(17);
        if (v.find_first_of(".e") == std::string::npos)
            os << static_cast<long long>(x) + static_cast<long long>(dir);
        else if (x == std::numeric_limits<double>::max())
            os << "1e309";
        else
            os << std::nextafter(x, dir * HUGE_VAL);
        return End{flag, v, os.str()};
    };
    std::vector<End> out;
    std::istringstream is(usage);
    for (std::string line; std::getline(is, line);) {
        std::smatch m;
        if (!std::regex_search(line, m, row))
            continue;
        out.push_back(end(m[1], m[3], m[2] == "(", -1.0));
        out.push_back(end(m[1], m[4], m[5] == ")", 1.0));
    }
    return out;
}

TEST(RunLine, EveryNumericRowRefusesBothEndsOfItsRange)
{
    const auto app = rangeEnds(wk::usage<wk::AppLine>());
    const auto serve = rangeEnds(wk::usage<wk::ServeLine>());
    // 12 app and 16 serve number rows, two ends each.
    EXPECT_EQ(app.size(), 2u * 12);
    EXPECT_EQ(serve.size(), 2u * 16);
    const auto check = [](const std::string &prefix, const End &e) {
        if (!e.edge.empty()) {
            EXPECT_EQ(status(prefix + e.flag + " " + e.edge),
                      LineStatus::kRun)
                << e.flag << " " << e.edge;
        }
        EXPECT_EQ(status(prefix + e.flag + " " + e.past),
                  LineStatus::kRefused)
            << e.flag << " " << e.past;
    };
    for (const End &e : app)
        check("kmeans --cache ", e);
    for (const End &e : serve)
        check("serve --closed-loop --format columnar ", e);
}

TEST(RunLine, RefusesUnknownRemovedAndFeaturelessFlags)
{
    for (const char *line : {
             "kmeans --bogus",
             "kmeans --scale",
             "kmeans --scale 0.05x",
             "kmeans --mode fast",
             "kmeans --fault-plan media=nan",
             "nosuchapp",
             "--mode morpheus",
             "kmeans --cache --cache-policy fifo",
             "kmeans --pipeline --no-readahead",
             "kmeans --fleet-topology topo.json",
             "kmeans --cache-bytes 1048576",
             "serve --bogus",
             "serve --format xml",
             "serve --requests 10",
             "serve --selectivity 0.5",
             "serve --format csv --project 2",
             "serve --no-pushdown",
         })
        EXPECT_EQ(status(line), LineStatus::kRefused) << line;
}

TEST(RunLine, HelpAnywhere)
{
    for (const char *line : {"--help", "kmeans --help", "kmeans -h",
                             "kmeans --mode p2p --help", "serve --help"})
        EXPECT_EQ(status(line), LineStatus::kHelp) << line;
}

TEST(RunLine, ServeOptionsSplitTheRateBySkew)
{
    wk::ServeLine line;
    std::string error;
    ASSERT_EQ(wk::parseLine(words("serve --rate 6000 --skew 4 --format "
                                  "columnar --project 2"),
                            &line, &error),
              LineStatus::kRun);
    const wk::ServingOptions o = line.options();
    ASSERT_EQ(o.tenants.size(), 3u);
    EXPECT_EQ(o.seed, 42u);
    EXPECT_DOUBLE_EQ(o.tenants[0].arrivalsPerSec, 4000.0);
    EXPECT_DOUBLE_EQ(o.tenants[2].arrivalsPerSec, 1000.0);
    EXPECT_EQ(o.tenants[2].id, 3u);
    EXPECT_EQ(o.tenants[2].projectColumns, 2u);
}

TEST(RunLine, ReplayedLineRunsTheSameCell)
{
    using Knob = std::function<void(wk::RunOptions &)>;
    std::vector<Knob> knobs;
    for (const auto mode :
         {wk::ExecutionMode::kBaseline, wk::ExecutionMode::kMorpheus,
          wk::ExecutionMode::kMorpheusP2p})
        knobs.push_back([=](wk::RunOptions &o) { o.mode = mode; });
    for (const auto backend : {wk::BackendKind::kNvme, wk::BackendKind::kHdd,
                               wk::BackendKind::kRamDrive})
        knobs.push_back([=](wk::RunOptions &o) { o.backend = backend; });
    for (const double hz : {1.2e9, 2.5e9}) {
        for (const auto mode :
             {wk::ExecutionMode::kBaseline, wk::ExecutionMode::kMorpheus})
            knobs.push_back([=](wk::RunOptions &o) {
                o.mode = mode;
                o.cpuFreqHz = hz;
            });
    }
    const auto morpheus = [](Knob knob) {
        return [=](wk::RunOptions &o) {
            o.mode = wk::ExecutionMode::kMorpheus;
            knob(o);
        };
    };
    for (const std::uint32_t blocks : {8u, 16u, 32u, 64u, 128u, 256u})
        knobs.push_back(
            morpheus([=](wk::RunOptions &o) { o.chunkBlocks = blocks; }));
    for (const unsigned n : {1u, 2u, 4u, 8u})
        knobs.push_back(
            morpheus([=](wk::RunOptions &o) { o.sys.ssd.numCores = n; }));
    for (const std::uint32_t kib : {8u, 32u, 128u, 256u})
        knobs.push_back(morpheus([=](wk::RunOptions &o) {
            o.sys.ssd.core.dsramBytes = kib << 10;
        }));
    for (const std::uint16_t depth : {2, 4, 8, 16, 64, 256})
        knobs.push_back(morpheus([=](wk::RunOptions &o) {
            o.chunkBlocks = 32;
            o.sys.queueEntries = depth;
        }));
    for (const double soft : {5.0, 11.0, 22.0, 44.0})
        knobs.push_back(morpheus([=](wk::RunOptions &o) {
            o.sys.ssd.core.hasFpu = false;
            o.sys.ssd.core.cyclesPerFloatOpSoft = soft;
        }));
    knobs.push_back(
        morpheus([](wk::RunOptions &o) { o.sys.ssd.core.hasFpu = true; }));
    for (const bool pipeline : {false, true})
        knobs.push_back(morpheus([=](wk::RunOptions &o) {
            o.sys.queueEntries = 2;
            o.sys.ssd.flash.channels = 2;
            o.sys.ssd.flash.diesPerChannel = 1;
            o.sys.ssd.pipeline.enabled = pipeline;
        }));
    for (const double factor : {0.2, 0.4, 1.0, 2.0, 4.0}) {
        for (const auto mode :
             {wk::ExecutionMode::kMorpheus, wk::ExecutionMode::kMorpheusP2p})
            knobs.push_back([=](wk::RunOptions &o) {
                o.mode = mode;
                o.scale = factor * 0.01;
            });
    }

    const wk::AppSpec &app = wk::findApp("nn");
    for (const Knob &knob : knobs) {
        wk::AppLine line;
        line.app = app.name;
        line.opts.scale = 0.01;
        knob(line.opts);
        const std::string text = wk::printLine(line);
        wk::AppLine replay;
        std::string error;
        ASSERT_EQ(wk::parseLine(words(text), &replay, &error),
                  LineStatus::kRun)
            << text << ": " << error;
        EXPECT_EQ(wk::printLine(replay), text);
        const wk::RunMetrics m = wk::runWorkload(app, line.opts);
        EXPECT_TRUE(m.validated) << text;
        EXPECT_EQ(m, wk::runWorkload(app, replay.opts)) << text;
    }
}
