/**
 * @file
 * Host-side NVMe driver.
 *
 * Builds commands, manages CIDs, pushes SQ entries, rings doorbells,
 * and collects completions. This is the layer the paper extends for
 * Morpheus: the driver accepts the four extension commands and (with
 * the NvmeP2p module, see core/nvme_p2p.hh) DMA targets in GPU device
 * memory. OS-level costs (syscalls, context switches while blocked) are
 * charged by the host model, not here.
 */

#ifndef MORPHEUS_NVME_DRIVER_HH
#define MORPHEUS_NVME_DRIVER_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nvme/controller.hh"
#include "obs/trace.hh"
#include "sim/rng.hh"

namespace morpheus::nvme {

/** Handle for an in-flight command. */
struct Submitted
{
    std::uint16_t qid = 0;
    std::uint16_t cid = 0;
    /** Trace id the driver stamped on this command. */
    obs::TraceId traceId = 0;
};

/** Simulated time after the doorbell ring before wait() gives up on
 *  a command and synthesizes a kCommandTimeout completion. */
inline constexpr sim::Tick kCommandTimeout = 1000 * sim::kPsPerUs;
/** First retry backoff delay; doubles per attempt. */
inline constexpr sim::Tick kBackoffBase = 20 * sim::kPsPerUs;
/** Uniform jitter fraction applied to each backoff (+/-). */
inline constexpr double kBackoffJitter = 0.25;
/** Seed for the jitter stream (deterministic like everything). */
inline constexpr std::uint64_t kJitterSeed = 0x6a697474ull;  // "jitt"

/**
 * Driver-side fault recovery knobs. Disabled by default: wait() panics
 * on a missing completion (a dropped CQE is a simulator bug unless
 * faults are being injected) and ioRetry() degenerates to io().
 */
struct DriverRecoveryConfig
{
    bool enabled = false;

    /** Max resubmissions of one command for retryable statuses. */
    unsigned maxRetries = 4;
};

/** Host-side driver bound to one controller. */
class NvmeDriver
{
  public:
    explicit NvmeDriver(NvmeController &controller);

    /** Create an I/O queue pair (rings at the given host addresses). */
    std::uint16_t openQueue(std::uint16_t entries, pcie::Addr sq_base,
                            pcie::Addr cq_base);

    /** Controller's MDTS in logical blocks. */
    std::uint32_t
    maxTransferBlocks() const
    {
        return _controller.config().maxTransferBlocks;
    }

    /**
     * Enqueue @p cmd (the driver assigns the CID). Does not ring the
     * doorbell; batch several submissions per doorbell if desired.
     */
    Submitted submit(std::uint16_t qid, Command cmd);

    /** Ring the SQ tail doorbell. @return controller-finished tick. */
    sim::Tick ring(std::uint16_t qid, sim::Tick now);

    /**
     * Retrieve the completion for @p token. Consumes CQ entries in
     * order, caching those for other CIDs. The returned completion's
     * postedAt is when its interrupt fired. Fatal if the command was
     * never submitted/rung.
     */
    Completion wait(const Submitted &token);

    /** submit + ring + wait for simple synchronous callers. */
    Completion io(std::uint16_t qid, Command cmd, sim::Tick now);

    /**
     * io() plus bounded recovery: retryable failures (isRetryable())
     * are resubmitted after the completion's retry-after hint (DW0, in
     * microseconds, on busy/over-budget bounces) or, absent a hint,
     * exponential backoff with seeded jitter. Returns the first
     * success, the first fatal completion, or the last retryable one
     * when the retry budget runs out. With recovery disabled this is
     * exactly io().
     */
    Completion ioRetry(std::uint16_t qid, Command cmd, sim::Tick now);

    /** Enable/configure fault recovery (timeout synthesis + retries). */
    void setRecovery(const DriverRecoveryConfig &cfg);

    const DriverRecoveryConfig &recovery() const { return _recovery; }

    /** Backoff before resubmission attempt @p attempt (0-based). */
    sim::Tick backoffDelay(unsigned attempt);

    /** Count a caller-driven resubmission of a failed command in
     *  retriesIssued(). ioRetry() counts its internal loop itself; a
     *  session that reaps a failure via wait() and resubmits through a
     *  fresh ioRetry() calls this so the retry shows up too. */
    void noteRetry() { ++_retries; }

    /**
     * Fleet runs: prefix every span track this driver emits (e.g.
     * "dev1.host.queue[0]") so two devices' host-side queue activity
     * never interleaves on one Perfetto track. Empty (device 0, the
     * default) leaves the classic track names untouched.
     */
    void setTrackPrefix(const std::string &prefix)
    {
        _trackPrefix = prefix;
    }
    const std::string &trackPrefix() const { return _trackPrefix; }

    /**
     * Partition the trace-id space per device. Trace ids ride the
     * SQE's spare CDW2 bytes, so ids from two drivers would collide in
     * a fleet trace; giving driver d base d<<24 keeps every id unique
     * device-wide (16M commands per device before wrap). Device 0's
     * ids (base 0) are bit-identical to the single-SSD ones.
     */
    void setTraceIdBase(obs::TraceId base) { _nextTraceId = base + 1; }

    /** The id the next submit() will stamp. [before, after) brackets
     *  around driver calls give sessions the exact id range a
     *  high-level operation consumed (the sim is single-threaded). */
    obs::TraceId nextTraceId() const { return _nextTraceId; }

    std::uint64_t completionsReaped() const { return _reaped.value(); }
    std::uint64_t retriesIssued() const { return _retries.value(); }
    std::uint64_t timeoutsSynthesized() const { return _timeouts.value(); }

  private:
    /** Emit the host-side span for a just-reaped completion. */
    void noteReaped(std::uint16_t qid, const Completion &cqe);

    NvmeController &_controller;
    /** Span-track prefix ("" for device 0, "dev1." etc. in a fleet). */
    std::string _trackPrefix;
    std::unordered_map<std::uint16_t, std::uint16_t> _nextCid;
    /** (qid << 16 | cid) -> completion already reaped out of order. */
    std::unordered_map<std::uint32_t, Completion> _pending;
    sim::stats::Counter _reaped;

    /** Next trace id to stamp (always assigned; 0 means untraced). */
    obs::TraceId _nextTraceId = 1;
    /** Host-side view of a traced command, kept only while a sink is
     *  attached (the no-sink path never touches these containers). */
    struct InflightTrace
    {
        obs::TraceId trace = 0;
        Opcode opcode = Opcode::kFlush;
        std::uint64_t bytes = 0;
        sim::Tick rungAt = 0;
    };
    /** (qid << 16 | cid) -> host-side trace bookkeeping. */
    std::unordered_map<std::uint32_t, InflightTrace> _inflight;
    /** Per-qid keys submitted but not yet rung (rungAt unstamped). */
    std::unordered_map<std::uint16_t, std::vector<std::uint32_t>> _unrung;

    DriverRecoveryConfig _recovery;
    /** Jitter stream; engaged by setRecovery(). */
    std::optional<sim::Rng> _jitterRng;
    /** (qid << 16 | cid) -> doorbell tick; recovery-enabled only, so
     *  wait() can place the synthesized timeout abort in time. */
    std::unordered_map<std::uint32_t, sim::Tick> _issuedAt;
    /** Per-qid keys awaiting their doorbell tick (recovery only). */
    std::unordered_map<std::uint16_t, std::vector<std::uint32_t>>
        _unrungIssued;
    sim::stats::Counter _retries;
    sim::stats::Counter _timeouts;
};

}  // namespace morpheus::nvme

#endif  // MORPHEUS_NVME_DRIVER_HH
