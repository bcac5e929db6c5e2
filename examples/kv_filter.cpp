/**
 * @file
 * Extension scenario (paper §III: "emitting key-value pairs from
 * flash-based key-value store"): a sorted key-value table lives on the
 * Morpheus-SSD; the host wants one key range.
 *
 * Conventional path: read the whole table over PCIe, parse it on the
 * CPU, filter in host memory. Morpheus path: a KvRangeEmitApp scans
 * the table on the embedded cores and DMAs out only the matching
 * pairs — the strongest form of the paper's "deliver only the objects
 * that are useful" bandwidth argument.
 */

#include <cstdio>

#include "core/host_runtime.hh"
#include "core/kv_store.hh"
#include "host/host_system.hh"
#include "serde/scanner.hh"

using namespace morpheus;

int
main()
{
    host::HostSystem sys;
    core::MorpheusDeviceRuntime device(sys.ssd());
    core::NvmeP2p p2p(sys);
    core::MorpheusRuntime runtime(sys, device, p2p);

    // A 400k-pair sorted table on flash.
    const core::KvTable table = core::genKvTable(99, 400000);
    serde::TextWriter w;
    table.serialize(w);
    const host::FileExtent file = sys.createFile("kv.tbl", w.bytes());
    std::printf("table: %zu pairs, %.2f MB of text on flash\n",
                table.size(), file.sizeBytes / 1e6);

    // Query: one bucket-aligned 16-bit key window (~10%% of the keys).
    const std::uint32_t max_key = table.keys.back();
    const std::uint32_t lo = ((max_key / 2) >> 16) << 16;
    const std::uint32_t hi = lo + ((max_key / 10) | 0xFFFF);
    const auto expected = core::KvTable::fromPairBinary(
        table.rangeBinary(lo, hi));
    std::printf("query: keys [%u, %u] -> %zu pairs (%.1f%% of table)\n",
                lo, hi, expected.size(),
                100.0 * expected.size() / table.size());

    // --- Conventional: whole table crosses PCIe, host parses+filters.
    const auto pcie_before = sys.fabric().fabricBytes();
    const pcie::Addr raw_buf = sys.allocHost(file.sizeBytes);
    const sim::Tick io_done = sys.ssdBackend().read(
        file.startByte, file.sizeBytes, raw_buf, file.readyAt).done;
    const auto raw =
        sys.mem().store().readVec(raw_buf, file.sizeBytes);
    serde::TextScanner scan(raw.data(), raw.size());
    core::KvTable host_table;
    if (!host_table.parse(scan)) {
        std::fprintf(stderr, "host parse failed\n");
        return 1;
    }
    serde::ParseCost cost;
    cost += scan.cost();
    const double host_cycles =
        sys.cpu().convertCycles(cost) +
        sys.os().config().fsCyclesPerByte *
            static_cast<double>(file.sizeBytes);
    const sim::Tick conv_done =
        io_done + sys.cpu().cyclesToTime(host_cycles);
    const auto conv_pcie = sys.fabric().fabricBytes() - pcie_before;
    std::printf("conventional: %.2f ms, %.2f MB over PCIe\n",
                sim::ticksToSeconds(conv_done - file.readyAt) * 1e3,
                conv_pcie / 1e6);

    // --- Morpheus: the device filters; only matches cross PCIe.
    const auto pcie_mid = sys.fabric().fabricBytes();
    const core::StorageAppImage image = core::makeKvRangeEmitImage();
    const core::MsStream stream =
        runtime.streamCreate(file, file.readyAt);
    const core::DmaTarget target = runtime.hostTarget(
        (expected.size() + 64) * core::KvTable::kPairBytes);
    core::InvokeOptions opts;
    opts.arg = core::packKvRange(lo, hi);
    const core::InvokeResult res = runtime.invoke(
        image, stream, target, file.readyAt, opts);
    const auto morph_pcie = sys.fabric().fabricBytes() - pcie_mid;
    std::printf("morpheus:     %.2f ms, %.2f MB over PCIe "
                "(%u pairs emitted on-device)\n",
                sim::ticksToSeconds(res.elapsed()) * 1e3,
                morph_pcie / 1e6, res.returnValue);

    // --- Validate: the DMA buffer holds exactly the expected pairs.
    const auto bin = sys.mem().store().readVec(
        target.addr,
        res.returnValue * core::KvTable::kPairBytes);
    const core::KvTable got = core::KvTable::fromPairBinary(bin);
    if (!(got == expected)) {
        std::fprintf(stderr, "filter result mismatch!\n");
        return 1;
    }
    std::printf("validated: device result == host filter "
                "(PCIe traffic %.1fx lower)\n",
                static_cast<double>(conv_pcie) /
                    static_cast<double>(morph_pcie));
    return 0;
}
