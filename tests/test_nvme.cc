/**
 * @file
 * NVMe layer tests: queue rings (phase tags), controller dispatch,
 * driver CID bookkeeping, and MDTS enforcement.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "nvme/driver.hh"

namespace nv = morpheus::nvme;
namespace pc = morpheus::pcie;
namespace ms = morpheus::sim;

namespace {

struct Rig
{
    pc::PcieSwitch sw;
    pc::PortId host, ssd;
    nv::NvmeController ctrl;
    nv::NvmeDriver driver;

    explicit Rig(const nv::ControllerConfig &cfg = {})
        : host(sw.addPort("host", pc::LinkConfig{3, 16})),
          ssd(sw.addPort("ssd", pc::LinkConfig{3, 4})),
          ctrl(sw, ssd, cfg), driver(ctrl)
    {
        sw.mapWindow(0, 1ULL << 30, host, "host-dram");
    }
};

}  // namespace

TEST(NvmeCommand, BlockArithmetic)
{
    nv::Command c;
    c.nlb = 0;  // 0-based: one block
    EXPECT_EQ(c.numBlocks(), 1u);
    EXPECT_EQ(c.dataBytes(), 512u);
    c.nlb = 255;
    EXPECT_EQ(c.dataBytes(), 128u * 1024u);
}

TEST(NvmeCommand, MorpheusOpcodeClassification)
{
    EXPECT_TRUE(nv::isMorpheusOpcode(nv::Opcode::kMInit));
    EXPECT_TRUE(nv::isMorpheusOpcode(nv::Opcode::kMDeinit));
    EXPECT_FALSE(nv::isMorpheusOpcode(nv::Opcode::kRead));
    EXPECT_FALSE(nv::isMorpheusOpcode(nv::Opcode::kFlush));
}

TEST(SubmissionQueue, WrapsAndTracksOccupancy)
{
    nv::SubmissionQueue sq(4);
    EXPECT_TRUE(sq.empty());
    EXPECT_EQ(sq.freeSlots(), 3u);  // one sacrificial slot
    nv::Command c;
    sq.push(c);
    sq.push(c);
    sq.push(c);
    EXPECT_TRUE(sq.full());
    sq.pop();
    sq.push(c);  // wraps
    EXPECT_TRUE(sq.full());
    sq.pop();
    sq.pop();
    sq.pop();
    EXPECT_TRUE(sq.empty());
}

TEST(SubmissionQueueDeath, OverflowAndUnderflow)
{
    nv::SubmissionQueue sq(2);
    nv::Command c;
    sq.push(c);
    EXPECT_DEATH(sq.push(c), "full");
    sq.pop();
    EXPECT_DEATH(sq.pop(), "empty");
}

TEST(CompletionQueue, PhaseTagFlipsOnWrap)
{
    nv::CompletionQueue cq(3);
    for (int round = 0; round < 4; ++round) {
        nv::Completion e;
        e.cid = static_cast<std::uint16_t>(round);
        cq.post(e);
        ASSERT_TRUE(cq.hasNew());
        const auto got = cq.take();
        EXPECT_EQ(got.cid, round);
        EXPECT_FALSE(cq.hasNew());
    }
}

TEST(NvmeController, DispatchesToHandler)
{
    Rig rig;
    int calls = 0;
    rig.ctrl.setHandler(
        [&](const nv::Command &cmd, ms::Tick start) {
            ++calls;
            EXPECT_EQ(cmd.opcode, nv::Opcode::kRead);
            return nv::CommandResult{start + 100, nv::Status::kSuccess,
                                     7};
        });
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kRead;
    const auto cqe = rig.driver.io(qid, c, 0);
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(cqe.ok());
    EXPECT_EQ(cqe.dw0, 7u);
    EXPECT_GT(cqe.postedAt, 100u);
    EXPECT_EQ(rig.ctrl.commandsProcessed(), 1u);
}

TEST(NvmeController, MdtsRejectsOversizedReads)
{
    nv::ControllerConfig cfg;
    cfg.maxTransferBlocks = 8;
    Rig rig(cfg);
    rig.ctrl.setHandler([](const nv::Command &, ms::Tick start) {
        return nv::CommandResult{start, nv::Status::kSuccess, 0};
    });
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kRead;
    c.nlb = 8;  // 9 blocks > MDTS of 8
    const auto cqe = rig.driver.io(qid, c, 0);
    EXPECT_EQ(cqe.status, nv::Status::kInvalidField);
}

TEST(NvmeController, UnknownOpcodeRejected)
{
    Rig rig;
    rig.ctrl.setHandler([](const nv::Command &, ms::Tick start) {
        return nv::CommandResult{start, nv::Status::kSuccess, 0};
    });
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = static_cast<nv::Opcode>(0x55);
    const auto cqe = rig.driver.io(qid, c, 0);
    EXPECT_EQ(cqe.status, nv::Status::kInvalidOpcode);
}

TEST(NvmeDriver, BatchedSubmissionsCompleteOutOfOrderSafely)
{
    Rig rig;
    // Handler finishes later commands earlier.
    int n = 0;
    rig.ctrl.setHandler([&](const nv::Command &, ms::Tick start) {
        const ms::Tick dur = (3 - n) * 1000;
        ++n;
        return nv::CommandResult{start + dur, nv::Status::kSuccess,
                                 static_cast<std::uint32_t>(n)};
    });
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    const auto t1 = rig.driver.submit(qid, c);
    const auto t2 = rig.driver.submit(qid, c);
    const auto t3 = rig.driver.submit(qid, c);
    rig.driver.ring(qid, 0);
    // Wait in reverse order; the driver caches mismatched CQEs.
    EXPECT_EQ(rig.driver.wait(t3).dw0, 3u);
    EXPECT_EQ(rig.driver.wait(t1).dw0, 1u);
    EXPECT_EQ(rig.driver.wait(t2).dw0, 2u);
}

TEST(NvmeDriver, CommandsCarryDistinctCids)
{
    Rig rig;
    rig.ctrl.setHandler([](const nv::Command &, ms::Tick start) {
        return nv::CommandResult{start, nv::Status::kSuccess, 0};
    });
    const auto qid = rig.driver.openQueue(16, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    const auto a = rig.driver.submit(qid, c);
    const auto b = rig.driver.submit(qid, c);
    EXPECT_NE(a.cid, b.cid);
    rig.driver.ring(qid, 0);
    rig.driver.wait(a);
    rig.driver.wait(b);
}

TEST(NvmeController, DoorbellCostsAndInterruptsAccrue)
{
    Rig rig;
    rig.ctrl.setHandler([](const nv::Command &, ms::Tick start) {
        return nv::CommandResult{start, nv::Status::kSuccess, 0};
    });
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    const auto cqe = rig.driver.io(qid, c, 1000);
    // Completion strictly after submission: doorbell + fetch +
    // dispatch + CQE write + interrupt.
    EXPECT_GT(cqe.postedAt, 1000u);
}

TEST(NvmeDriver, IndependentQueuePairsDoNotInterfere)
{
    Rig rig;
    int handled = 0;
    rig.ctrl.setHandler([&](const nv::Command &, ms::Tick start) {
        ++handled;
        return nv::CommandResult{start + 100, nv::Status::kSuccess,
                                 static_cast<std::uint32_t>(handled)};
    });
    const auto q1 = rig.driver.openQueue(8, 0x1000, 0x2000);
    const auto q2 = rig.driver.openQueue(8, 0x3000, 0x4000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    const auto t1 = rig.driver.submit(q1, c);
    const auto t2 = rig.driver.submit(q2, c);
    // Ring q2 first: q1's command must stay pending until its own
    // doorbell.
    rig.driver.ring(q2, 0);
    EXPECT_EQ(rig.driver.wait(t2).dw0, 1u);
    rig.driver.ring(q1, 0);
    EXPECT_EQ(rig.driver.wait(t1).dw0, 2u);
}

TEST(NvmeDriver, QueueWrapStress)
{
    Rig rig;
    rig.ctrl.setHandler([](const nv::Command &cmd, ms::Tick start) {
        return nv::CommandResult{start + 10, nv::Status::kSuccess,
                                 cmd.cdw14};
    });
    const auto qid = rig.driver.openQueue(4, 0x1000, 0x2000);
    // Far more commands than ring slots: wraps both rings many times.
    ms::Tick t = 0;
    for (std::uint32_t i = 0; i < 100; ++i) {
        nv::Command c;
        c.opcode = nv::Opcode::kFlush;
        c.cdw14 = i;
        const auto cqe = rig.driver.io(qid, c, t);
        ASSERT_TRUE(cqe.ok());
        ASSERT_EQ(cqe.dw0, i);
        t = cqe.postedAt;
    }
    EXPECT_EQ(rig.ctrl.commandsProcessed(), 100u);
}

TEST(NvmeStatus, EveryStatusHasAUniqueName)
{
    const nv::Status all[] = {
        nv::Status::kSuccess,         nv::Status::kInvalidOpcode,
        nv::Status::kInvalidField,    nv::Status::kTransientTransferError,
        nv::Status::kLbaOutOfRange,   nv::Status::kNoSuchInstance,
        nv::Status::kAppLoadFailed,   nv::Status::kInstanceBusy,
        nv::Status::kDsramExhausted,  nv::Status::kAppFault,
        nv::Status::kSequenceError,   nv::Status::kMediaError,
        nv::Status::kCommandTimeout};
    std::set<std::string> names;
    for (const nv::Status s : all) {
        const char *name = nv::statusName(s);
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "Unknown");
        names.insert(name);
    }
    EXPECT_EQ(names.size(), std::size(all));
}

TEST(NvmeStatus, RetryabilityClassification)
{
    // Transient conditions a resubmission can clear...
    EXPECT_TRUE(nv::isRetryable(nv::Status::kTransientTransferError));
    EXPECT_TRUE(nv::isRetryable(nv::Status::kInstanceBusy));
    EXPECT_TRUE(nv::isRetryable(nv::Status::kDsramExhausted));
    EXPECT_TRUE(nv::isRetryable(nv::Status::kMediaError));
    EXPECT_TRUE(nv::isRetryable(nv::Status::kSequenceError));
    // ...vs. deterministic failures and unknown device-side state.
    EXPECT_FALSE(nv::isRetryable(nv::Status::kSuccess));
    EXPECT_FALSE(nv::isRetryable(nv::Status::kInvalidOpcode));
    EXPECT_FALSE(nv::isRetryable(nv::Status::kInvalidField));
    EXPECT_FALSE(nv::isRetryable(nv::Status::kLbaOutOfRange));
    EXPECT_FALSE(nv::isRetryable(nv::Status::kNoSuchInstance));
    EXPECT_FALSE(nv::isRetryable(nv::Status::kAppLoadFailed));
    EXPECT_FALSE(nv::isRetryable(nv::Status::kAppFault));
    EXPECT_FALSE(nv::isRetryable(nv::Status::kCommandTimeout));
}

TEST(NvmeDriver, SynthesizesTimeoutForDroppedCqe)
{
    Rig rig;
    rig.ctrl.setHandler([](const nv::Command &, ms::Tick start) {
        // Executed, but the firmware never posts the CQE.
        return nv::CommandResult{start + 100, nv::Status::kSuccess, 0,
                                 /*dropped=*/true};
    });
    nv::DriverRecoveryConfig rec;
    rec.enabled = true;
    rig.driver.setRecovery(rec);
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    const auto cqe = rig.driver.io(qid, c, 5000);
    EXPECT_EQ(cqe.status, nv::Status::kCommandTimeout);
    // Aborted at the deadline: doorbell tick + the command timeout.
    EXPECT_EQ(cqe.postedAt, 5000 + nv::kCommandTimeout);
    EXPECT_EQ(rig.driver.timeoutsSynthesized(), 1u);
    // The synthesized abort is fatal by classification: the command's
    // device-side effects may have happened, resubmitting is not safe.
    EXPECT_FALSE(nv::isRetryable(cqe.status));
}

TEST(NvmeDriverDeath, DroppedCqeWithoutRecoveryPanics)
{
    Rig rig;
    rig.ctrl.setHandler([](const nv::Command &, ms::Tick start) {
        return nv::CommandResult{start + 100, nv::Status::kSuccess, 0,
                                 /*dropped=*/true};
    });
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    EXPECT_DEATH(rig.driver.io(qid, c, 0), "no completion");
}

TEST(NvmeDriver, IoRetryHonorsRetryAfterHint)
{
    Rig rig;
    std::vector<ms::Tick> starts;
    rig.ctrl.setHandler([&](const nv::Command &, ms::Tick start) {
        starts.push_back(start);
        if (starts.size() < 3) {
            // Busy bounce carrying a 40 us retry-after hint in DW0.
            return nv::CommandResult{start + 10,
                                     nv::Status::kInstanceBusy, 40};
        }
        return nv::CommandResult{start + 10, nv::Status::kSuccess, 0};
    });
    nv::DriverRecoveryConfig rec;
    rec.enabled = true;
    rig.driver.setRecovery(rec);
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    const auto cqe = rig.driver.ioRetry(qid, c, 0);
    EXPECT_TRUE(cqe.ok());
    ASSERT_EQ(starts.size(), 3u);
    EXPECT_EQ(rig.driver.retriesIssued(), 2u);
    // Each resubmission waited at least the hinted 40 us beyond the
    // previous attempt's completion.
    EXPECT_GE(starts[1], starts[0] + 40 * ms::kPsPerUs);
    EXPECT_GE(starts[2], starts[1] + 40 * ms::kPsPerUs);
}

TEST(NvmeDriver, IoRetryBacksOffExponentiallyWithoutHint)
{
    Rig rig;
    std::vector<ms::Tick> starts;
    rig.ctrl.setHandler([&](const nv::Command &, ms::Tick start) {
        starts.push_back(start);
        if (starts.size() < 3) {
            // Media errors carry no retry-after hint (dw0 == 0).
            return nv::CommandResult{start + 10,
                                     nv::Status::kMediaError, 0};
        }
        return nv::CommandResult{start + 10, nv::Status::kSuccess, 0};
    });
    nv::DriverRecoveryConfig rec;
    rec.enabled = true;
    rig.driver.setRecovery(rec);
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    const auto cqe = rig.driver.ioRetry(qid, c, 0);
    EXPECT_TRUE(cqe.ok());
    ASSERT_EQ(starts.size(), 3u);
    // The base delay doubles per attempt; +/-25% jitter cannot close a
    // 2x gap, so inter-attempt spacing must strictly grow.
    const ms::Tick gap1 = starts[1] - starts[0];
    const ms::Tick gap2 = starts[2] - starts[1];
    EXPECT_GT(gap2, gap1);
}

TEST(NvmeDriver, IoRetryStopsAtBudgetAndOnFatalStatus)
{
    Rig rig;
    int calls = 0;
    rig.ctrl.setHandler([&](const nv::Command &, ms::Tick start) {
        ++calls;
        return nv::CommandResult{start + 10, nv::Status::kMediaError,
                                 0};
    });
    nv::DriverRecoveryConfig rec;
    rec.enabled = true;
    rec.maxRetries = 2;
    rig.driver.setRecovery(rec);
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    const auto cqe = rig.driver.ioRetry(qid, c, 0);
    EXPECT_EQ(cqe.status, nv::Status::kMediaError);
    EXPECT_EQ(calls, 3);  // initial + 2 retries
    EXPECT_EQ(rig.driver.retriesIssued(), 2u);

    // A fatal status is returned immediately, no retry at all.
    calls = 0;
    rig.ctrl.setHandler([&](const nv::Command &, ms::Tick start) {
        ++calls;
        return nv::CommandResult{start + 10, nv::Status::kAppFault, 0};
    });
    const auto fatal = rig.driver.ioRetry(qid, c, 0);
    EXPECT_EQ(fatal.status, nv::Status::kAppFault);
    EXPECT_EQ(calls, 1);
}

TEST(NvmeDriver, IoRetryIsPlainIoWithRecoveryDisabled)
{
    Rig rig;
    int calls = 0;
    rig.ctrl.setHandler([&](const nv::Command &, ms::Tick start) {
        ++calls;
        return nv::CommandResult{start + 10, nv::Status::kMediaError,
                                 0};
    });
    const auto qid = rig.driver.openQueue(8, 0x1000, 0x2000);
    nv::Command c;
    c.opcode = nv::Opcode::kFlush;
    const auto cqe = rig.driver.ioRetry(qid, c, 0);
    EXPECT_EQ(cqe.status, nv::Status::kMediaError);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(rig.driver.retriesIssued(), 0u);
}
