/**
 * @file
 * Benchmark application descriptors (paper Table I).
 *
 * Each spec bundles what the harness needs: the input generator, the
 * object kind (which selects both the host parser and the device
 * StorageApp), the parallel model (number of I/O threads), the
 * baseline read() chunk size, and the functional kernel.
 *
 * Inputs are generated at a configurable scale; scale 1.0 yields a few
 * to a few tens of MiB per app (Table I's multi-GB inputs divided by
 * ~200) so the whole suite runs in seconds. The reported metrics are
 * ratios or size-linear rates, yet they move with the scale (mean
 * Fig 11 speedup 1.24x at bench scale 0.05, 1.42x at 0.25), so
 * results are only compared at one scale.
 *
 * Naming note: the OCR of Table I blanked the two BigDataBench rows'
 * application names. BigDataBench's MPI integer-text workloads are its
 * graph analytics suite; we use PageRank (the 3.6 GB row) and
 * Connected Components (the 602 MB row), and add SSSP for the row the
 * OCR lost entirely ("10 benchmark applications" vs. 9 legible rows).
 */

#ifndef MORPHEUS_WORKLOADS_APP_SPEC_HH
#define MORPHEUS_WORKLOADS_APP_SPEC_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workloads/kernels.hh"
#include "workloads/objects.hh"

namespace morpheus::workloads {

/** How the application parallelizes its computation (Table I). */
enum class ParallelModel { kSerial, kMpi, kCuda };

/** One benchmark application. */
struct AppSpec
{
    std::string name;
    std::string suite;          ///< "BigDataBench", "Rodinia", "N/A".
    ParallelModel parallel = ParallelModel::kSerial;
    unsigned ranks = 1;         ///< I/O threads (MPI ranks; 1 otherwise).
    ObjectKind object = ObjectKind::kEdgeList;
    std::uint64_t paperInputBytes = 0;  ///< Table I input size.
    double floatFraction = 0.0;         ///< Fraction of float tokens.

    /** read() granularity of the unmodified application. */
    std::uint32_t baselineChunkBytes = 64 * 1024;

    /** "Other CPU computation" (Fig 2) as a fraction of deser time. */
    double otherCpuFraction = 0.05;

    /** Build the ground-truth object at @p scale. */
    std::function<AnyObject(std::uint64_t seed, double scale)> generate;

    /** Run the kernel functionally and describe its cost. */
    std::function<KernelResult(const AnyObject &)> kernel;

    bool isGpuApp() const { return parallel == ParallelModel::kCuda; }
};

/** The ten applications of Table I. */
const std::vector<AppSpec> &standardSuite();

/**
 * Extension applications beyond Table I, exercising the CSV and JSON
 * interchange formats §II motivates (the Table I suite is text/token
 * based). Not part of the paper's figures; used by the extension
 * section of bench/ablations.
 */
const std::vector<AppSpec> &extensionSuite();

/** Look up an app by name in both suites (fatal if absent). */
const AppSpec &findApp(const std::string &name);

}  // namespace morpheus::workloads

#endif  // MORPHEUS_WORKLOADS_APP_SPEC_HH
