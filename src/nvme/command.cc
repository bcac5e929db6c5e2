#include "nvme/command.hh"

namespace morpheus::nvme {

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
      case Opcode::kMInit: return "MINIT";
      case Opcode::kMRead: return "MREAD";
      case Opcode::kMWrite: return "MWRITE";
      case Opcode::kMDeinit: return "MDEINIT";
    }
    return "Unknown";
}

}  // namespace morpheus::nvme
