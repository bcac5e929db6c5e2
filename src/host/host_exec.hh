/**
 * @file
 * The host path: the paper's conventional object creation (Fig 1(b) —
 * blocking read() of the raw text into a staging buffer X, then CPU
 * conversion into the object buffer Y) on the modeled host CPU, OS and
 * storage backend.
 *
 * This is the one host path of the simulator. The paper runs' baseline
 * mode converts each rank's file with it, and serving runs it for the
 * circuit breaker's fallback, the hybrid placement policy's overload
 * spill and the host half of a split request. The two differ only in
 * the request: the backend read from and the read-chunk size.
 *
 * Host CPU queueing is modeled by HostCpu's per-core timelines: every
 * call acquires its core, so concurrent host-path work serializes per
 * core like any other host CPU charge, and HostCpu::minBacklogUs()
 * exposes that backlog as the placement policy's host load signal.
 */

#ifndef MORPHEUS_HOST_HOST_EXEC_HH
#define MORPHEUS_HOST_HOST_EXEC_HH

#include <cstdint>

#include "host/host_system.hh"
#include "host/storage_backend.hh"
#include "obs/trace.hh"
#include "serde/parse.hh"

namespace morpheus::host {

/** One host-path execution request. */
struct HostExecRequest
{
    /** Backend holding the file (an SSD, the HDD or the RAM drive). */
    StorageBackend &backend;
    /** Byte range to read and convert — the whole file, or the suffix
     *  the device is not covering in a split. */
    FileExtent extent;
    /** Whole-file length (0 = the extent is the whole file); the
     *  conversion charge and delivered object bytes are prorated by
     *  extent.sizeBytes / fileBytes. */
    std::uint64_t fileBytes = 0;
    /** Whole-object size (prorated like the conversion). */
    std::uint64_t objectBytes = 0;
    /** Reference parse cost of the whole file. */
    serde::ParseCost cost{};
    /** Bytes of each read() (required; whole 512 B blocks). The
     *  staging buffer X holds one chunk plus the extent's skew into
     *  its first block. */
    std::uint64_t chunkBytes = 0;
    /** Multiplies the conversion cycles (models a relatively slower
     *  host; 1.0 = the reference model). */
    double costScale = 1.0;
    /** Tenant the execution belongs to (span annotation). */
    std::uint32_t tenant = 0;
    /** Trace id the host_exec span is recorded under (0 = none). */
    obs::TraceId trace = 0;
};

/**
 * Run @p req's range on host @p core starting at @p when: open()
 * syscall, first-touch faults on Y, then a chunked loop of backend
 * read -> blocking-read overhead -> prorated conversion cycles ->
 * memory traffic; X and Y are freed before return. A read that fails
 * ends the loop: the result then carries its status, and its tick is
 * when the host saw the failure. @return the completion tick. Records
 * a "host_exec" span under req.trace while a trace sink is attached.
 */
IoResult hostExecute(HostSystem &sys, const HostExecRequest &req,
                     unsigned core, sim::Tick when);

}  // namespace morpheus::host

#endif  // MORPHEUS_HOST_HOST_EXEC_HH
