/**
 * @file
 * Experiment harness: runs one benchmark application end-to-end on a
 * freshly built simulated system, in one of three execution modes:
 *
 *  - kBaseline:    conventional model (paper Fig 1) — the host CPU
 *                  read()s raw text and deserializes it;
 *  - kMorpheus:    Morpheus model (Fig 4) — StorageApps deserialize on
 *                  the SSD, objects DMA to host memory;
 *  - kMorpheusP2p: Morpheus + NVMe-P2P — objects DMA straight into GPU
 *                  device memory (GPU apps only; others fall back to
 *                  kMorpheus).
 *
 * Every run is functional: in every mode each rank's produced object
 * must encode to the same bytes as the generator's ground truth, which
 * is checked by digest, so the kernel checksum matches across modes.
 * A run that fails the check reports validated false and checksum 0.
 * The returned metrics carry everything Figs 2, 3, 8, 9, 10 and the
 * §VII traffic/end-to-end results are built from.
 */

#ifndef MORPHEUS_WORKLOADS_RUNNER_HH
#define MORPHEUS_WORKLOADS_RUNNER_HH

#include <cstdint>
#include <string>

#include "host/host_system.hh"
#include "nvme/driver.hh"
#include "obs/metrics.hh"
#include "sim/digest.hh"
#include "sim/fault.hh"
#include "workloads/app_spec.hh"

namespace morpheus::workloads {

/** Execution mode under test. */
enum class ExecutionMode { kBaseline, kMorpheus, kMorpheusP2p };

/** Which device the baseline reads from (Fig 3). */
enum class BackendKind { kNvme, kHdd, kRamDrive };

/** Per-run knobs. */
struct RunOptions
{
    ExecutionMode mode = ExecutionMode::kBaseline;
    BackendKind backend = BackendKind::kNvme;  ///< Baseline only.
    double cpuFreqHz = 2.5e9;
    double scale = 1.0;
    std::uint64_t seed = 42;
    /** Morpheus MREAD chunk in 512 B blocks (0 = MDTS). */
    std::uint32_t chunkBlocks = 0;
    /** Optional federation target: runWorkload() writes the machine's
     *  counters ("sys.") and the phase breakdown ("run.") into it. */
    obs::MetricsRegistry *metrics = nullptr;
    /** System configuration overrides. */
    host::SystemConfig sys{};
    /** Fault plan installed around the measured phases (ingest runs
     *  clean). Inactive by default: bit-identical to a fault-free run. */
    sim::FaultPlan faults{};
    /** Driver-side recovery (timeouts + bounded retries). */
    nvme::DriverRecoveryConfig recovery{};
};

/** Everything measured in one run. */
struct RunMetrics
{
    // Phase wall times.
    sim::Tick deserTime = 0;
    sim::Tick gpuCopyTime = 0;
    sim::Tick kernelTime = 0;
    sim::Tick otherCpuTime = 0;
    sim::Tick totalTime = 0;

    // Deserialization-phase observables.
    std::uint64_t contextSwitchesDeser = 0;
    double contextSwitchesPerSec = 0.0;
    std::uint64_t pcieBytesDeser = 0;
    std::uint64_t membusBytesDeser = 0;
    double deserPowerWatts = 0.0;
    double deserEnergyJoules = 0.0;
    /** Host cores kept busy during deserialization (0..numCores). */
    double cpuBusyCoresDeser = 0.0;
    double effectiveBandwidthMBps = 0.0;  ///< Per I/O thread (Fig 3).

    // Whole-run observables.
    std::uint64_t pcieBytesTotal = 0;
    std::uint64_t membusBytesTotal = 0;
    std::uint64_t p2pBytes = 0;

    // Sizes.
    std::uint64_t rawTextBytes = 0;
    std::uint64_t objectBytesProduced = 0;

    // Functional outcome. A run that failed validation keeps checksum 0;
    // its copy and kernel phases are timed on the prepared object sizes
    // and kernel work, as if it had validated.
    std::uint64_t kernelChecksum = 0;
    bool validated = false;

    double deserSeconds() const { return sim::ticksToSeconds(deserTime); }

    friend bool operator==(const RunMetrics &,
                           const RunMetrics &) = default;
};

/**
 * Run @p app once under @p opts, on a freshly built system.
 *
 * The input is prepared once per (&app, opts.seed, opts.scale): each
 * rank's serialized text, binary size and binary digest, plus the
 * kernel's result on the ground truth, are kept in a one-entry
 * thread_local slot. The truth object itself is not kept. So
 * back-to-back calls on the same key (an app's three modes, a sweep
 * over one app) skip generate, partition, serialize and the kernel. A
 * call on another key drops the slot before it builds. Each call still
 * ingests the text into its own simulated flash and checks each
 * rank's produced object against its digest: the parsed object's
 * encoding in baseline mode, the DMA target in place (targetMatches)
 * otherwise. A mismatch only clears RunMetrics::validated and the
 * checksum: nothing is decoded or re-run. Reuse is invisible only
 * because AppSpec::generate and AppSpec::kernel are pure functions of
 * their arguments. An app is known by its address, so an AppSpec must not
 * be changed, or replaced by another at the same address, between
 * runs.
 */
RunMetrics runWorkload(const AppSpec &app, const RunOptions &opts);

/**
 * Whether the @p bytes at @p addr of @p mem digest to @p expected: how
 * runWorkload validates a Morpheus or P2P rank's DMA target, read in
 * place chunk by chunk, with no copy made.
 */
bool targetMatches(const host::SparseMemory &mem, std::uint64_t addr,
                   std::uint64_t bytes, const sim::Digest128 &expected);

}  // namespace morpheus::workloads

#endif  // MORPHEUS_WORKLOADS_RUNNER_HH
