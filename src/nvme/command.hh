/**
 * @file
 * NVMe command set: standard I/O opcodes plus the four Morpheus
 * extensions (paper §IV-A), and the 64-byte wire format.
 *
 * The Morpheus commands reuse the one-byte opcode space left free by
 * the NVMe standard (vendor-specific range):
 *  - MINIT:   install a StorageApp (PRP1 points at the code image;
 *             CDW13 carries the code length, CDW14 the argument word,
 *             CDW15 the submitting tenant, SLBA the declared stream
 *             length, and PRP2's low dword — MINIT carries no second
 *             data pointer — the requested per-instance D-SRAM budget
 *             in bytes, 0 for the device default share).
 *  - MREAD:   like Read, but the data is routed through the StorageApp
 *             selected by the instance ID before being DMAed out.
 *  - MWRITE:  like Write, with StorageApp processing on the inbound
 *             data.
 *  - MDEINIT: tear down the instance; the completion's DW0 returns the
 *             StorageApp's return value.
 */

#ifndef MORPHEUS_NVME_COMMAND_HH
#define MORPHEUS_NVME_COMMAND_HH

#include <array>
#include <cstdint>

#include "sim/types.hh"

namespace morpheus::nvme {

/** Bytes per logical block (LBA). */
constexpr std::uint32_t kBlockBytes = 512;

/** Size of an encoded submission queue entry. */
constexpr std::size_t kCommandBytes = 64;

/** Size of an encoded completion queue entry. */
constexpr std::size_t kCompletionBytes = 16;

/** I/O command set opcodes (plus Morpheus vendor extensions). */
enum class Opcode : std::uint8_t {
    kFlush = 0x00,
    kWrite = 0x01,
    kRead = 0x02,
    kDsm = 0x09,  ///< Dataset Management (deallocate/TRIM).

    // Morpheus extensions (vendor-specific opcode space).
    kMInit = 0x80,
    kMRead = 0x81,
    kMWrite = 0x82,
    kMDeinit = 0x83,
};

/** True for the four Morpheus extension opcodes. */
constexpr bool
isMorpheusOpcode(Opcode op)
{
    return op == Opcode::kMInit || op == Opcode::kMRead ||
           op == Opcode::kMWrite || op == Opcode::kMDeinit;
}

/** Human-readable opcode mnemonic ("MREAD", "Write", ...). */
const char *opcodeName(Opcode op);

/** Completion status codes (subset). */
enum class Status : std::uint16_t {
    kSuccess = 0x0,
    kInvalidOpcode = 0x1,
    kInvalidField = 0x2,
    kTransientTransferError = 0x22,  // transient PCIe/DMA fault; retryable
    kLbaOutOfRange = 0x80,
    kNoSuchInstance = 0x1C0,   // Morpheus: unknown instance ID
    kAppLoadFailed = 0x1C1,    // Morpheus: image too big for I-SRAM
    kInstanceBusy = 0x1C2,     // Morpheus: no room for the instance / retry
    kDsramExhausted = 0x1C4,   // Morpheus: no D-SRAM budget on the core
    kAppFault = 0x1C5,         // Morpheus: StorageApp crashed mid-command
    /** Morpheus: MREAD chunk arrived out of stream order. The parse is
     *  a stateful stream, so after one chunk fails the firmware bounces
     *  any later chunk of the same instance instead of feeding the
     *  parser across the gap. Retryable: resubmit once the missing
     *  chunk has landed. */
    kSequenceError = 0x1C6,
    kMediaError = 0x281,       // uncorrectable flash read; retryable
    /** Host-synthesized: no CQE arrived before the command deadline.
     *  Never produced by the device; the driver fabricates it when it
     *  aborts a timed-out command (dropped CQE, hung StorageApp). */
    kCommandTimeout = 0x3F1,
};

/** Human-readable status mnemonic ("MediaError", "Success", ...). */
const char *statusName(Status s);

/**
 * Driver-side classification: true when a command that completed with
 * this status may succeed if simply resubmitted. Retryable statuses
 * model transient conditions (media retry-recoverable reads, link
 * glitches, busy/over-budget bounces); everything else is treated as
 * fatal for the command — resubmitting the same bytes would fail the
 * same way (bad opcode/field, crashed app, missing instance) or has
 * unknown device-side state (timeout abort).
 */
bool isRetryable(Status s);

/**
 * A decoded submission queue entry. Field names follow the NVMe spec
 * loosely; Morpheus-specific meanings are noted per command above.
 */
struct Command
{
    Opcode opcode = Opcode::kFlush;
    std::uint16_t cid = 0;        ///< Command identifier.
    std::uint32_t nsid = 1;       ///< Namespace.
    std::uint64_t prp1 = 0;       ///< Data pointer (bus address).
    std::uint64_t prp2 = 0;       ///< Second data pointer.
    std::uint64_t slba = 0;       ///< Starting LBA.
    std::uint16_t nlb = 0;        ///< Number of blocks, 0's based.
    std::uint32_t instanceId = 0; ///< Morpheus instance (CDW12 high bits).
    std::uint32_t cdw13 = 0;      ///< MINIT: code length in bytes.
    std::uint32_t cdw14 = 0;      ///< MINIT: argument word.
    std::uint32_t cdw15 = 0;      ///< MINIT: submitting tenant ID.
    /** Observability trace id, stamped by the driver at submission.
     *  Rides in the SQE's spare CDW2 bytes so every layer that decodes
     *  the command can attribute its work (0 = untraced). In a
     *  multi-SSD fleet each device's driver stamps ids from its own
     *  block (device d uses d<<24 | counter, see
     *  NvmeDriver::setTraceIdBase), so ids stay unique fleet-wide and
     *  a merged trace never attributes one device's work to another. */
    std::uint32_t traceId = 0;

    /** Number of logical blocks (NVMe encodes nlb as 0-based). */
    std::uint32_t numBlocks() const { return std::uint32_t(nlb) + 1; }

    /** Payload size in bytes for read/write style commands. */
    std::uint64_t
    dataBytes() const
    {
        return std::uint64_t(numBlocks()) * kBlockBytes;
    }

    /** Encode to the 64-byte wire format. */
    std::array<std::uint8_t, kCommandBytes> encode() const;

    /** Decode from the 64-byte wire format. */
    static Command decode(
        const std::array<std::uint8_t, kCommandBytes> &raw);

    bool operator==(const Command &) const = default;
};

/** Controller identification data (admin Identify, abridged). */
struct IdentifyData
{
    char model[24] = "Morpheus-SSD 512GB";
    std::uint64_t capacityBlocks = 0;
    std::uint32_t maxTransferBlocks = 0;
    std::uint16_t numQueues = 0;
    /** Vendor flag: the four Morpheus extension opcodes are live. */
    bool morpheusCapable = false;
};

/** A decoded completion queue entry. */
struct Completion
{
    std::uint32_t dw0 = 0;       ///< Command-specific result.
    std::uint16_t sqHead = 0;    ///< SQ head pointer echo.
    std::uint16_t sqId = 0;
    std::uint16_t cid = 0;
    Status status = Status::kSuccess;
    bool phase = false;          ///< Phase tag (flips per CQ wrap).

    /** Tick at which the entry was posted (simulation metadata). */
    sim::Tick postedAt = 0;

    bool ok() const { return status == Status::kSuccess; }

    /** Encode to the 16-byte wire format (postedAt is not on the wire). */
    std::array<std::uint8_t, kCompletionBytes> encode() const;

    /** Decode from the 16-byte wire format. */
    static Completion decode(
        const std::array<std::uint8_t, kCompletionBytes> &raw);
};

}  // namespace morpheus::nvme

#endif  // MORPHEUS_NVME_COMMAND_HH
