#include "nvme/command.hh"

#include <cstring>

namespace morpheus::nvme {

namespace {

template <typename T>
void
put(std::array<std::uint8_t, kCommandBytes> &raw, std::size_t off, T v)
{
    std::memcpy(raw.data() + off, &v, sizeof(T));
}

template <typename T>
T
get(const std::array<std::uint8_t, kCommandBytes> &raw, std::size_t off)
{
    T v;
    std::memcpy(&v, raw.data() + off, sizeof(T));
    return v;
}

}  // namespace

// Layout (little-endian, byte offsets):
//   0  opcode        1  flags (0)     2  cid          4  nsid
//   8  cdw15 (tenant; spare spec-reserved bytes)
//  12  traceId (spare CDW2 bytes; observability attribution)
//  16  metadata (0) 24  prp1         32  prp2
//  40  slba (cdw10/11)               48  nlb (cdw12 low 16)
//  50  instanceId (cdw12 high 16 + cdw12b; we use 4 bytes at 50)
//  54  reserved
//  56  cdw13        60  cdw14 truncated to fit 64 bytes
//
// The exact packing is internal to this simulator; what matters for
// fidelity is that every command round-trips through exactly 64 bytes.
std::array<std::uint8_t, kCommandBytes>
Command::encode() const
{
    std::array<std::uint8_t, kCommandBytes> raw{};
    put(raw, 0, static_cast<std::uint8_t>(opcode));
    put(raw, 2, cid);
    put(raw, 4, nsid);
    put(raw, 8, cdw15);
    put(raw, 12, traceId);
    put(raw, 24, prp1);
    put(raw, 32, prp2);
    put(raw, 40, slba);
    put(raw, 48, nlb);
    put(raw, 50, instanceId);
    put(raw, 56, cdw13);
    put(raw, 60, cdw14);
    return raw;
}

Command
Command::decode(const std::array<std::uint8_t, kCommandBytes> &raw)
{
    Command c;
    c.opcode = static_cast<Opcode>(get<std::uint8_t>(raw, 0));
    c.cid = get<std::uint16_t>(raw, 2);
    c.nsid = get<std::uint32_t>(raw, 4);
    c.cdw15 = get<std::uint32_t>(raw, 8);
    c.traceId = get<std::uint32_t>(raw, 12);
    c.prp1 = get<std::uint64_t>(raw, 24);
    c.prp2 = get<std::uint64_t>(raw, 32);
    c.slba = get<std::uint64_t>(raw, 40);
    c.nlb = get<std::uint16_t>(raw, 48);
    c.instanceId = get<std::uint32_t>(raw, 50);
    c.cdw13 = get<std::uint32_t>(raw, 56);
    c.cdw14 = get<std::uint32_t>(raw, 60);
    return c;
}

// Completion layout follows the NVMe CQE (little-endian, byte offsets):
//   0  dw0 (command-specific)   4  dw1 (reserved, 0)
//   8  sqHead   10  sqId   12  cid   14  phase (bit 0) | status << 1
// postedAt is simulation metadata and does not cross the wire.
std::array<std::uint8_t, kCompletionBytes>
Completion::encode() const
{
    std::array<std::uint8_t, kCompletionBytes> raw{};
    std::memcpy(raw.data() + 0, &dw0, sizeof(dw0));
    std::memcpy(raw.data() + 8, &sqHead, sizeof(sqHead));
    std::memcpy(raw.data() + 10, &sqId, sizeof(sqId));
    std::memcpy(raw.data() + 12, &cid, sizeof(cid));
    const std::uint16_t sf = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(status) << 1) | (phase ? 1 : 0));
    std::memcpy(raw.data() + 14, &sf, sizeof(sf));
    return raw;
}

Completion
Completion::decode(const std::array<std::uint8_t, kCompletionBytes> &raw)
{
    Completion c;
    std::memcpy(&c.dw0, raw.data() + 0, sizeof(c.dw0));
    std::memcpy(&c.sqHead, raw.data() + 8, sizeof(c.sqHead));
    std::memcpy(&c.sqId, raw.data() + 10, sizeof(c.sqId));
    std::memcpy(&c.cid, raw.data() + 12, sizeof(c.cid));
    std::uint16_t sf = 0;
    std::memcpy(&sf, raw.data() + 14, sizeof(sf));
    c.phase = (sf & 1) != 0;
    c.status = static_cast<Status>(sf >> 1);
    return c;
}

const char *
statusName(Status s)
{
    switch (s) {
      case Status::kSuccess: return "Success";
      case Status::kInvalidOpcode: return "InvalidOpcode";
      case Status::kInvalidField: return "InvalidField";
      case Status::kTransientTransferError: return "TransientTransferError";
      case Status::kLbaOutOfRange: return "LbaOutOfRange";
      case Status::kNoSuchInstance: return "NoSuchInstance";
      case Status::kAppLoadFailed: return "AppLoadFailed";
      case Status::kInstanceBusy: return "InstanceBusy";
      case Status::kDsramExhausted: return "DsramExhausted";
      case Status::kAppFault: return "AppFault";
      case Status::kSequenceError: return "SequenceError";
      case Status::kMediaError: return "MediaError";
      case Status::kCommandTimeout: return "CommandTimeout";
    }
    return "Unknown";
}

bool
isRetryable(Status s)
{
    switch (s) {
      case Status::kTransientTransferError:  // link glitch; resubmit
      case Status::kInstanceBusy:            // no room yet; wait + retry
      case Status::kDsramExhausted:          // budget pressure; wait + retry
      case Status::kMediaError:              // read-retry recoverable
      case Status::kSequenceError:           // gap fills, then resubmit
        return true;
      default:
        return false;
    }
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::kFlush: return "Flush";
      case Opcode::kWrite: return "Write";
      case Opcode::kRead: return "Read";
      case Opcode::kDsm: return "Dsm";
      case Opcode::kMInit: return "MINIT";
      case Opcode::kMRead: return "MREAD";
      case Opcode::kMWrite: return "MWRITE";
      case Opcode::kMDeinit: return "MDEINIT";
    }
    return "Unknown";
}

}  // namespace morpheus::nvme
