/**
 * @file
 * Columnar format + pushdown tests: flash codec round-trip, the scan
 * kernel against a naive reference, device/host bit-identity across
 * chunk sizes and pipeline settings, edge cases (empty projection,
 * all-rows-filtered, row groups straddling chunk boundaries,
 * dictionary miss, mid-scan media error), descriptor integrity, the
 * pushdown-aware object-cache key, and seeded mutation fuzzing of the
 * two parsers that read untrusted bytes: the pushdown descriptor
 * decode and the flash image scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/device_runtime.hh"
#include "core/host_runtime.hh"
#include "core/nvme_p2p.hh"
#include "core/standard_apps.hh"
#include "host/host_system.hh"
#include "serde/columnar.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"

namespace co = morpheus::core;
namespace ho = morpheus::host;
namespace nv = morpheus::nvme;
namespace sd = morpheus::serde;

namespace {

/** Full host-side rig: driver, device runtime, high-level runtime. */
struct Rig
{
    ho::HostSystem sys;
    co::MorpheusDeviceRuntime device;
    co::NvmeP2p p2p;
    co::MorpheusRuntime runtime;
    co::StandardImages images = co::StandardImages::make();

    Rig() : device(sys.ssd()), p2p(sys), runtime(sys, device, p2p) {}
    explicit Rig(const ho::SystemConfig &cfg)
        : sys(cfg), device(sys.ssd()), p2p(sys), runtime(sys, device, p2p)
    {
    }

    nv::Completion
    io(nv::Command cmd, morpheus::sim::Tick now = 0)
    {
        return sys.nvmeDriver().io(sys.ioQueue(), cmd, now);
    }

    /** Stage + MINIT a columnar scan instance carrying @p desc. */
    nv::Completion
    minitScan(std::uint32_t instance, co::DmaTarget target,
              const std::vector<std::uint32_t> &desc,
              std::uint64_t stream_bytes = 0,
              std::uint32_t digest_override = 0)
    {
        co::InstanceSetup setup;
        setup.image = &images.columnarScan;
        setup.target = target;
        setup.pushdown = desc;
        device.stageInstance(instance, setup);
        nv::Command c;
        c.opcode = nv::Opcode::kMInit;
        c.instanceId = instance;
        c.prp1 = sys.allocHost(images.columnarScan.textBytes +
                               4 * desc.size());
        c.cdw13 = images.columnarScan.textBytes;
        c.slba = stream_bytes;
        if (!desc.empty()) {
            c.nlb = static_cast<std::uint16_t>(desc.size());
            const std::uint32_t digest =
                digest_override ? digest_override
                                : sd::pushdownDigest(desc);
            c.prp2 = std::uint64_t(digest) << 32;
        }
        return io(c);
    }

    /** One MREAD chunk of [@p off, @p off + @p len) of @p extent. */
    nv::Completion
    mread(std::uint32_t instance, const ho::FileExtent &extent,
          std::uint64_t off, std::uint64_t len,
          morpheus::sim::Tick now = 0)
    {
        nv::Command c;
        c.opcode = nv::Opcode::kMRead;
        c.instanceId = instance;
        c.slba = (extent.startByte + off) / nv::kBlockBytes;
        c.nlb = static_cast<std::uint16_t>(
            (len + nv::kBlockBytes - 1) / nv::kBlockBytes - 1);
        c.cdw13 = static_cast<std::uint32_t>(len);
        return io(c, now);
    }

    nv::Completion
    mdeinit(std::uint32_t instance, morpheus::sim::Tick now = 0)
    {
        nv::Command fin;
        fin.opcode = nv::Opcode::kMDeinit;
        fin.instanceId = instance;
        return io(fin, now);
    }
};

/** High-level invoke of the scan applet; returns the DMAed payload. */
std::vector<std::uint8_t>
invokeScan(Rig &rig, const ho::FileExtent &extent,
           const std::vector<std::uint32_t> &desc,
           std::uint64_t out_bytes, std::uint64_t *surviving = nullptr,
           std::uint32_t chunk_blocks = 0)
{
    co::InvokeOptions opts;
    opts.pushdown = desc;
    opts.chunkBlocks = chunk_blocks;
    const co::DmaTarget target = rig.runtime.hostTarget(out_bytes + 64);
    const co::MsStream stream =
        rig.runtime.streamCreate(extent, extent.readyAt);
    const co::InvokeResult res = rig.runtime.invoke(
        rig.images.columnarScan, stream, target, extent.readyAt, opts);
    if (surviving != nullptr)
        *surviving = res.returnValue;
    return rig.sys.mem().store().readVec(
        target.addr, static_cast<std::size_t>(res.objectBytes));
}

/** Rows of @p t whose key column passes @p spec's predicates. */
std::uint64_t
naiveSurvivors(const sd::ColumnarTableObject &t, const sd::ScanSpec &spec)
{
    std::uint64_t n = 0;
    for (std::uint64_t r = 0; r < t.rows(); ++r) {
        bool keep = true;
        for (const auto &p : spec.preds) {
            const std::uint64_t bits = t.cells[p.column][r];
            const auto type = t.schema[p.column].type;
            bool hold = false;
            if (type == sd::ColumnType::kFloat64) {
                double v, lit;
                std::memcpy(&v, &bits, 8);
                std::memcpy(&lit, &p.literalBits, 8);
                hold = (p.op == sd::PredOp::kEq && v == lit) ||
                       (p.op == sd::PredOp::kNe && v != lit) ||
                       (p.op == sd::PredOp::kLt && v < lit) ||
                       (p.op == sd::PredOp::kLe && v <= lit) ||
                       (p.op == sd::PredOp::kGt && v > lit) ||
                       (p.op == sd::PredOp::kGe && v >= lit);
            } else {
                const auto v = static_cast<std::int64_t>(bits);
                const auto lit =
                    static_cast<std::int64_t>(p.literalBits);
                hold = (p.op == sd::PredOp::kEq && v == lit) ||
                       (p.op == sd::PredOp::kNe && v != lit) ||
                       (p.op == sd::PredOp::kLt && v < lit) ||
                       (p.op == sd::PredOp::kLe && v <= lit) ||
                       (p.op == sd::PredOp::kGt && v > lit) ||
                       (p.op == sd::PredOp::kGe && v >= lit);
            }
            if (!hold) {
                keep = false;
                break;
            }
        }
        if (keep)
            ++n;
    }
    return n;
}

}  // namespace

TEST(Columnar, FlashRoundTrip)
{
    const auto t = sd::genColumnarTable(11, 1000, 5);
    const auto flash = t.toFlash();
    sd::ColumnarTableObject back;
    ASSERT_TRUE(sd::ColumnarTableObject::fromFlash(flash, &back));
    EXPECT_EQ(back, t);

    // Corruption is detected, not silently accepted.
    auto bad = flash;
    bad[0] ^= 0xFF;  // magic
    EXPECT_FALSE(sd::ColumnarTableObject::fromFlash(bad, &back));
    auto trunc = flash;
    trunc.resize(trunc.size() - 1);
    EXPECT_FALSE(sd::ColumnarTableObject::fromFlash(trunc, &back));
}

TEST(Columnar, ScanMatchesNaiveReference)
{
    const auto t = sd::genColumnarTable(12, 3000, 6);
    const auto flash = t.toFlash();
    const auto spec = sd::makeSelectivitySpec(0.25, 3, 6);

    const auto res = sd::scanTable(flash.data(), flash.size(), spec);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.survivingRows, naiveSurvivors(t, spec));

    // The emitted stream decodes to the projected view of exactly the
    // surviving rows, in file order.
    sd::ColumnarTableObject view;
    ASSERT_TRUE(sd::columnarFromScanBytes(res.out, &view));
    ASSERT_EQ(view.schema.size(), 3u);
    EXPECT_EQ(view.rows(), res.survivingRows);
    std::uint64_t vr = 0;
    for (std::uint64_t r = 0; r < t.rows(); ++r) {
        if (static_cast<std::int64_t>(t.cells[0][r]) >=
            static_cast<std::int64_t>(0.25 * 1e6))
            continue;
        for (std::uint32_t c = 0; c < 3; ++c)
            ASSERT_EQ(view.cells[c][vr], t.cells[c][r]) << r;
        ++vr;
    }
    EXPECT_EQ(vr, view.rows());
}

TEST(Columnar, DeviceMatchesHostBitIdentical)
{
    const auto t = sd::genColumnarTable(13, 2500, 5);
    const auto flash = t.toFlash();
    const auto spec = sd::makeSelectivitySpec(0.10, 2, 5);
    const auto desc = spec.encode();
    const auto ref = sd::scanTable(flash.data(), flash.size(), spec);
    ASSERT_TRUE(ref.ok);

    // Chunk sizes that divide, straddle, and exceed a row group, with
    // the streaming chunk pipeline both off and on: every combination
    // must reproduce the host scan byte for byte.
    for (const bool pipeline : {false, true}) {
        ho::SystemConfig cfg;
        cfg.ssd.pipeline.enabled = pipeline;
        for (const std::uint32_t chunk_blocks : {0u, 3u, 16u, 128u}) {
            Rig rig(cfg);
            const auto extent = rig.sys.createFile("t", flash);
            std::uint64_t surviving = 0;
            const auto payload = invokeScan(
                rig, extent, desc, ref.out.size(), &surviving,
                chunk_blocks);
            EXPECT_EQ(payload, ref.out)
                << "pipeline=" << pipeline
                << " chunkBlocks=" << chunk_blocks;
            EXPECT_EQ(surviving, ref.survivingRows);
        }
    }
}

TEST(Columnar, EmptyProjectionCountsRowsWithoutRowBytes)
{
    const auto t = sd::genColumnarTable(14, 2000, 4);
    const auto flash = t.toFlash();
    sd::ScanSpec spec = sd::makeSelectivitySpec(0.50, 1, 4);
    spec.projectionMask = 0;  // count(*) pushdown: no columns emitted
    const auto ref =
        sd::scanTable(flash.data(), flash.size(), spec);
    ASSERT_TRUE(ref.ok);
    EXPECT_EQ(ref.survivingRows, naiveSurvivors(t, spec));

    Rig rig;
    const auto extent = rig.sys.createFile("t", flash);
    std::uint64_t surviving = 0;
    const auto payload = invokeScan(rig, extent, spec.encode(),
                                    ref.out.size(), &surviving);
    EXPECT_EQ(payload, ref.out);
    EXPECT_EQ(surviving, ref.survivingRows);
    EXPECT_GT(surviving, 0u);
}

TEST(Columnar, AllRowsFilteredCompletesWithZeroRowEmit)
{
    const auto t = sd::genColumnarTable(15, 2000, 4);
    const auto flash = t.toFlash();
    sd::ScanSpec spec;
    spec.projectionMask = 0x3;
    sd::Predicate none;
    none.column = 0;
    none.op = sd::PredOp::kLt;
    none.literalBits = 0;  // keys are >= 0: nothing survives
    spec.preds.push_back(none);
    const auto ref = sd::scanTable(flash.data(), flash.size(), spec);
    ASSERT_TRUE(ref.ok);
    ASSERT_EQ(ref.survivingRows, 0u);

    // The device still runs MDEINIT to completion: the result is the
    // header + trailer framing with zero row bytes.
    Rig rig;
    const auto extent = rig.sys.createFile("t", flash);
    std::uint64_t surviving = 1;
    const auto payload = invokeScan(rig, extent, spec.encode(),
                                    ref.out.size(), &surviving);
    EXPECT_EQ(payload, ref.out);
    EXPECT_EQ(surviving, 0u);
}

TEST(Columnar, RowGroupStraddlingFeedBoundaries)
{
    // 256-row groups fed to the streaming scanner in sizes that never
    // align with a group: the carry buffer must reassemble groups
    // exactly as a one-shot scan sees them.
    const auto t = sd::genColumnarTable(16, 2100, 5);
    const auto flash = t.toFlash();
    const auto spec = sd::makeSelectivitySpec(0.30, 4, 5);
    const auto ref = sd::scanTable(flash.data(), flash.size(), spec);
    ASSERT_TRUE(ref.ok);

    for (const std::size_t piece : {1u, 7u, 1536u, 10000u}) {
        sd::ColumnarScanner scanner(spec);
        std::vector<std::uint8_t> out;
        std::size_t off = 0;
        while (off < flash.size()) {
            const std::size_t n = std::min(piece, flash.size() - off);
            scanner.feed(flash.data() + off, n);
            const auto part = scanner.takeEmitted();
            out.insert(out.end(), part.begin(), part.end());
            off += n;
        }
        scanner.finish();
        const auto tail = scanner.takeEmitted();
        out.insert(out.end(), tail.begin(), tail.end());
        ASSERT_FALSE(scanner.error()) << piece;
        EXPECT_EQ(out, ref.out) << piece;
        EXPECT_EQ(scanner.survivingRows(), ref.survivingRows);
    }
}

TEST(Columnar, DictionaryMissPoisonsTheScan)
{
    auto t = sd::genColumnarTable(17, 1000, 4);
    const std::uint32_t dict_col =
        static_cast<std::uint32_t>(t.schema.size()) - 1;
    ASSERT_EQ(t.schema[dict_col].type, sd::ColumnType::kDictString);
    t.cells[dict_col][500] = 9999;  // no such dictionary entry
    const auto flash = t.toFlash();

    sd::ScanSpec spec;
    spec.projectionMask = 1u << dict_col;
    const auto res = sd::scanTable(flash.data(), flash.size(), spec);
    EXPECT_FALSE(res.ok);

    // Device side: the applet stops emitting and reports kScanError
    // in MDEINIT DW0 instead of returning a half-lying row count.
    Rig rig;
    const auto extent = rig.sys.createFile("t", flash);
    const co::DmaTarget target = rig.runtime.hostTarget(flash.size());
    ASSERT_TRUE(rig.minitScan(1, target, spec.encode()).ok());
    morpheus::sim::Tick now = 0;
    std::uint64_t off = 0;
    while (off < flash.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(16 * 1024, flash.size() - off);
        const auto cqe = rig.mread(1, extent, off, n, now);
        ASSERT_TRUE(cqe.ok());
        now = cqe.postedAt;
        off += n;
    }
    const auto fin = rig.mdeinit(1, now);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(fin.dw0, co::ColumnarScanApp::kScanError);
}

TEST(Columnar, MediaErrorMidScanRestreamsWithoutDuplicateRows)
{
    const auto t = sd::genColumnarTable(18, 2048, 5);
    const auto flash = t.toFlash();
    const auto spec = sd::makeSelectivitySpec(0.40, 3, 5);
    const auto ref = sd::scanTable(flash.data(), flash.size(), spec);
    ASSERT_TRUE(ref.ok);

    Rig rig;
    const auto extent = rig.sys.createFile("t", flash);
    const co::DmaTarget target =
        rig.runtime.hostTarget(ref.out.size() + 64);
    ASSERT_TRUE(rig.minitScan(3, target, spec.encode()).ok());

    const std::uint64_t chunk = 16 * 1024;
    morpheus::sim::Tick now = 0;
    std::uint64_t off = 0;
    bool injected = false;
    while (off < flash.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(chunk, flash.size() - off);
        if (!injected && off >= chunk) {
            // Second chunk: every flash page read is uncorrectable.
            morpheus::sim::FaultPlan plan;
            plan.mediaRate = 1.0;
            morpheus::sim::FaultInjector fi(plan);
            morpheus::sim::ScopedFaultInjector scope(&fi);
            const auto bad = rig.mread(3, extent, off, n, now);
            EXPECT_EQ(bad.status, nv::Status::kMediaError);
            now = bad.postedAt;
            injected = true;
            continue;  // resubmit the same chunk, fault cleared
        }
        const auto cqe = rig.mread(3, extent, off, n, now);
        ASSERT_TRUE(cqe.ok());
        now = cqe.postedAt;
        off += n;
    }
    ASSERT_TRUE(injected);
    const auto fin = rig.mdeinit(3, now);
    ASSERT_TRUE(fin.ok());
    EXPECT_EQ(fin.dw0, ref.survivingRows);
    const auto payload = rig.sys.mem().store().readVec(
        target.addr, ref.out.size());
    EXPECT_EQ(payload, ref.out);
}

TEST(Columnar, DescriptorIntegrityIsValidated)
{
    const auto t = sd::genColumnarTable(19, 512, 4);
    const auto flash = t.toFlash();
    const auto desc = sd::makeSelectivitySpec(0.10, 2, 4).encode();

    // Digest mismatch: staged program != what MINIT claims.
    Rig rig;
    const co::DmaTarget target = rig.runtime.hostTarget(flash.size());
    const std::uint32_t wrong = sd::pushdownDigest(desc) ^ 1u;
    EXPECT_EQ(rig.minitScan(1, target, desc, 0, wrong).status,
              nv::Status::kInvalidField);

    // Count mismatch: NLB disagrees with the staged dwords.
    co::InstanceSetup setup;
    setup.image = &rig.images.columnarScan;
    setup.target = target;
    setup.pushdown = desc;
    rig.device.stageInstance(2, setup);
    nv::Command c;
    c.opcode = nv::Opcode::kMInit;
    c.instanceId = 2;
    c.prp1 = rig.sys.allocHost(rig.images.columnarScan.textBytes);
    c.cdw13 = rig.images.columnarScan.textBytes;
    c.nlb = static_cast<std::uint16_t>(desc.size() - 1);
    c.prp2 = std::uint64_t(sd::pushdownDigest(desc)) << 32;
    EXPECT_EQ(rig.io(c).status, nv::Status::kInvalidField);
}

TEST(Columnar, ObjectCacheKeysPredicatePrograms)
{
    // Two pushdown invocations over the same raw range with different
    // predicate programs must occupy distinct cache entries; a write
    // into the range invalidates both.
    ho::SystemConfig cfg;
    cfg.ssd.cache.enabled = true;
    Rig rig(cfg);
    auto &cache = rig.sys.ssd().objectCache();

    const auto t = sd::genColumnarTable(20, 2048, 4);
    const auto flash = t.toFlash();
    const auto extent = rig.sys.createFile("t", flash);
    const auto spec_a = sd::makeSelectivitySpec(0.10, 2, 4);
    const auto spec_b = sd::makeSelectivitySpec(0.50, 2, 4);
    const auto ref_a =
        sd::scanTable(flash.data(), flash.size(), spec_a);
    const auto ref_b =
        sd::scanTable(flash.data(), flash.size(), spec_b);

    invokeScan(rig, extent, spec_a.encode(), ref_a.out.size());
    EXPECT_EQ(cache.insertions(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    // Same bytes, different program: a distinct key, not a false hit.
    invokeScan(rig, extent, spec_b.encode(), ref_b.out.size());
    EXPECT_EQ(cache.insertions(), 2u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.entries(), 2u);

    // Re-running program A is a hit with identical payload bytes.
    const auto hit =
        invokeScan(rig, extent, spec_a.encode(), ref_a.out.size());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(hit, ref_a.out);

    // An MWRITE landing inside the raw range drops both entries.
    const std::vector<std::uint8_t> wtext(1024, 'x');
    const morpheus::pcie::Addr src =
        rig.sys.allocHost(wtext.size());
    rig.sys.mem().store().writeVec(src, wtext);
    co::InvokeOptions wopts;
    wopts.serialize = true;
    wopts.writeSrc = src;
    wopts.writeDstByte = extent.startByte;
    ho::FileExtent wext = extent;
    wext.sizeBytes = wtext.size();
    const co::MsStream ws =
        rig.runtime.streamCreate(wext, extent.readyAt);
    rig.runtime.invoke(rig.images.int64Serializer, ws,
                       co::DmaTarget{src, false}, extent.readyAt,
                       wopts);
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.invalidations(), 2u);
}

TEST(Columnar, ReservedDescriptorBitsAreRefused)
{
    // A predicate term with reserved bit 27 set; ignoring that bit
    // would decode it to the same spec as its clean twin below.
    const std::vector<std::uint32_t> reserved_term = {
        0x50431001, 0x00000003, 0x08020000, 0xc10e9437, 0x00000000};
    std::vector<std::uint32_t> clean = reserved_term;
    clean[2] = 0x00020000;
    sd::ScanSpec spec;
    ASSERT_TRUE(sd::ScanSpec::decode(clean, &spec));
    EXPECT_EQ(spec.encode(), clean);
    EXPECT_FALSE(sd::ScanSpec::decode(reserved_term, &spec));

    // Head flag bits beyond kScanNoTrailer | kScanNoHeader.
    std::vector<std::uint32_t> bad_flag = clean;
    bad_flag[0] |= 4u << 8;
    EXPECT_FALSE(sd::ScanSpec::decode(bad_flag, &spec));

    // MINIT refuses the reserved-bit descriptor even with a matching
    // count and digest.
    Rig rig;
    const co::DmaTarget target = rig.runtime.hostTarget(4096);
    EXPECT_EQ(rig.minitScan(1, target, reserved_term).status,
              nv::Status::kInvalidField);
    EXPECT_EQ(rig.minitScan(2, target, clean).status,
              nv::Status::kSuccess);
}

TEST(ColumnarFuzz, DescriptorMutantsAreRejectedOrRoundTrip)
{
    // Flip bits of, overwrite, insert and truncate the dwords of valid
    // pushdown descriptors. decode() must refuse a mutant or yield a
    // spec that encodes back to exactly the mutant's dwords: the
    // decode is canonical, so one program has one object-cache key.
    const std::vector<std::uint32_t> seeds[] = {
        sd::ScanSpec{}.encode(),
        sd::makeSelectivitySpec(0.10, 2, 6).encode(),
        sd::makeSelectivitySpec(0.50, 0, 4).encode(),
    };
    morpheus::sim::Rng rng(34);
    unsigned accepted = 0;
    unsigned rejected = 0;
    for (int round = 0; round < 20000; ++round) {
        std::vector<std::uint32_t> dw = seeds[rng.nextBelow(std::size(seeds))];
        for (std::uint64_t e = rng.nextBelow(3) + 1; e > 0; --e) {
            const std::size_t at = rng.nextBelow(dw.size() + 1);
            const auto word = static_cast<std::uint32_t>(rng.next());
            switch (rng.nextBelow(4)) {
              case 0:
                if (at < dw.size())
                    dw[at] ^= 1u << rng.nextBelow(32);
                break;
              case 1:
                if (at < dw.size())
                    dw[at] = word;
                break;
              case 2:
                dw.insert(dw.begin() + static_cast<std::ptrdiff_t>(at),
                          word);
                break;
              default:
                dw.resize(at);
                break;
            }
        }
        sd::ScanSpec spec;
        if (!sd::ScanSpec::decode(dw, &spec)) {
            ++rejected;
            continue;
        }
        ++accepted;
        EXPECT_EQ(spec.encode(), dw) << round;
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(ColumnarFuzz, FlashMutantsFailOrMatchTheStreamingScan)
{
    // Flip bits anywhere in a valid flash image, overwrite header and
    // footer bytes, and truncate it. The one-shot scan must fail
    // exactly when a ColumnarScanner fed the same bytes in random-size
    // pieces fails, otherwise return the same bytes, and never emit
    // more bytes than it read.
    const auto table = sd::genColumnarTable(34, 700, 5, 64);
    const std::vector<std::uint8_t> image = table.toFlash();
    std::uint64_t header_bytes = 0;
    std::memcpy(&header_bytes, image.data() + image.size() - 28, 8);
    const sd::ScanSpec specs[] = {
        sd::ScanSpec{},
        sd::makeSelectivitySpec(0.10, 2, 5),
        sd::makeSelectivitySpec(0.50, 0, 5),  // projects the dictionary
    };
    morpheus::sim::Rng rng(4000);
    unsigned scanned = 0;
    unsigned failed = 0;
    for (int round = 0; round < 4000; ++round) {
        std::vector<std::uint8_t> bytes = image;
        for (std::uint64_t e = rng.nextBelow(3) + 1;
             e > 0 && !bytes.empty(); --e) {
            const auto byte = static_cast<std::uint8_t>(rng.nextBelow(256));
            switch (rng.nextBelow(4)) {
              case 0:
                bytes[rng.nextBelow(bytes.size())] ^=
                    static_cast<std::uint8_t>(1u << rng.nextBelow(8));
                break;
              case 1:
                bytes[rng.nextBelow(
                    std::min<std::uint64_t>(header_bytes, bytes.size()))] =
                    byte;
                break;
              case 2:
                bytes[bytes.size() - 1 -
                      rng.nextBelow(
                          std::min<std::size_t>(28, bytes.size()))] = byte;
                break;
              default:
                bytes.resize(rng.nextBelow(bytes.size() + 1));
                break;
            }
        }
        const sd::ScanSpec &spec = specs[rng.nextBelow(std::size(specs))];
        const sd::ScanResult res =
            sd::scanTable(bytes.data(), bytes.size(), spec);

        sd::ColumnarScanner scanner(spec);
        std::vector<std::uint8_t> out;
        for (std::size_t off = 0; off < bytes.size();) {
            const std::size_t n = std::min<std::size_t>(
                rng.nextBelow(4096) + 1, bytes.size() - off);
            scanner.feed(bytes.data() + off, n);
            off += n;
            const auto part = scanner.takeEmitted();
            out.insert(out.end(), part.begin(), part.end());
        }
        scanner.finish();
        const auto tail = scanner.takeEmitted();
        out.insert(out.end(), tail.begin(), tail.end());

        ASSERT_EQ(scanner.error(), !res.ok) << round;
        if (!res.ok) {
            ++failed;
            continue;
        }
        ++scanned;
        EXPECT_LE(res.out.size(), bytes.size()) << round;
        EXPECT_EQ(out, res.out) << round;
        EXPECT_EQ(scanner.survivingRows(), res.survivingRows) << round;
    }
    EXPECT_GT(scanned, 0u);
    EXPECT_GT(failed, 0u);
}
