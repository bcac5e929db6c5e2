/**
 * @file
 * One line per run: the flags of `morpheus-run <app>` and
 * `morpheus-run serve`, each given once in a table whose rows carry
 * the flag, its value's type and range, a line of help and the field
 * it sets. The parser, the range errors, the usage text and the
 * canonical printer all come from those rows, so a printed line
 * parses back to the run it describes; a bench cell's RunOptions
 * prints as the morpheus-run line that replays it.
 */

#ifndef MORPHEUS_WORKLOADS_RUN_LINE_HH
#define MORPHEUS_WORKLOADS_RUN_LINE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads/runner.hh"
#include "workloads/serving.hh"

namespace morpheus::workloads {

/** --scale range. Every app runs validated down to scale 1e-4 and
 *  some kernels' input checks fail below 1e-5, so the floor keeps a
 *  10x margin; above the ceiling the generators' element counts (at
 *  most 1.8M at scale 1) overflow 32 bits. */
inline constexpr double kMinScale = 0.001;
inline constexpr double kMaxScale = 1000.0;

/** `morpheus-run <app>`: the run, and where its outputs go. */
struct AppLine
{
    AppLine() { opts.scale = 0.25; }

    std::string app;
    RunOptions opts;
    // Outputs: they change what is written, not what runs.
    bool stats = false;
    std::string tracePath;
    std::string statsJsonPath;
};

/** `morpheus-run serve`: the run, and where its outputs go. */
struct ServeLine
{
    ServeLine() { opts.seed = 42; }

    /** Everything but the tenants, which options() adds. */
    ServingOptions opts;
    unsigned tenants = 3;
    /** Total open-loop arrivals/s, split skew:1:...:1 across tenants. */
    double rate = 12000.0;
    double skew = 1.0;
    /** Every tenant's spec bar its id and arrival rate. */
    TenantSpec tenant;
    // Outputs: they change what is written, not what runs.
    std::string slowTracesPath;
    std::size_t slowK = obs::FlightRecorderConfig{}.slowestK;
    std::string timelinePath;
    std::string timelineCsvPath;
    std::uint64_t timelineIntervalUs = 100;
    std::string statsJsonPath;
    std::string tracePath;

    /** opts with its tenants filled in. */
    ServingOptions options() const;
};

enum class LineStatus { kRun, kHelp, kRefused };

/**
 * Parse @p args, a morpheus-run command line without the program
 * (args[0] names the app, or is "serve" for a ServeLine), into
 * @p line, which holds the defaults on entry. An unknown app or word,
 * a value outside its row's range, or a flag whose feature is off is
 * refused, with the reason in @p error. Defined for AppLine and
 * ServeLine.
 */
template <typename Line>
LineStatus parseLine(const std::vector<std::string> &args, Line *line,
                     std::string *error);

/**
 * The canonical words that replay @p line: the app (or "serve"), then
 * every row whose value differs from the default, in table order.
 * Doubles print in shortest round-trip form, a fault plan (from
 * MORPHEUS_FAULTS too) as --fault-plan. Outputs, and rows whose
 * feature is off, are left out.
 */
template <typename Line>
std::string printLine(const Line &line);

/** The usage text of Line's command, one row per flag. */
template <typename Line>
std::string usage();

}  // namespace morpheus::workloads

#endif  // MORPHEUS_WORKLOADS_RUN_LINE_HH
