/**
 * @file
 * Fault-injection tests: plan parsing (flag and environment forms,
 * malformed numbers, a seeded mutation fuzz), per-class stream
 * independence, the no-draw guarantees that keep a fault-free run
 * bit-identical, and the scoped global installation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "host/host_system.hh"
#include "obs/metrics.hh"
#include "sim/fault.hh"

namespace ms = morpheus::sim;

TEST(FaultPlan, DefaultConstructedIsInactive)
{
    const ms::FaultPlan plan;
    EXPECT_FALSE(plan.active());
    EXPECT_EQ(plan.dmaMinBytes, 512u);
    EXPECT_EQ(plan.seed, 1u);
}

TEST(FaultPlan, ParsesFullSpec)
{
    const ms::FaultPlan plan = ms::FaultPlan::parse(
        "media=2e-3,dma=1e-3,crash=5e-4,hang=1e-4,drop=1e-3,"
        "dma_min=4096,watchdog_us=500,seed=7");
    EXPECT_DOUBLE_EQ(plan.mediaRate, 2e-3);
    EXPECT_DOUBLE_EQ(plan.dmaRate, 1e-3);
    EXPECT_DOUBLE_EQ(plan.crashRate, 5e-4);
    EXPECT_DOUBLE_EQ(plan.hangRate, 1e-4);
    EXPECT_DOUBLE_EQ(plan.dropRate, 1e-3);
    EXPECT_EQ(plan.dmaMinBytes, 4096u);
    EXPECT_EQ(plan.watchdogTicks, ms::Tick(500) * ms::kPsPerUs);
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_TRUE(plan.active());
}

TEST(FaultPlan, ParsesPartialAndEmptySpecs)
{
    const ms::FaultPlan partial = ms::FaultPlan::parse("media=0.5");
    EXPECT_DOUBLE_EQ(partial.mediaRate, 0.5);
    EXPECT_DOUBLE_EQ(partial.dmaRate, 0.0);
    EXPECT_TRUE(partial.active());

    const ms::FaultPlan empty = ms::FaultPlan::parse("");
    EXPECT_FALSE(empty.active());

    // Stray commas are tolerated (trailing comma from shell quoting).
    const ms::FaultPlan trailing = ms::FaultPlan::parse("drop=1e-2,");
    EXPECT_DOUBLE_EQ(trailing.dropRate, 1e-2);
}

TEST(FaultPlanDeath, RejectsMalformedSpecs)
{
    EXPECT_DEATH(ms::FaultPlan::parse("bogus=1"), "unknown");
    EXPECT_DEATH(ms::FaultPlan::parse("media"), "key=value");
    EXPECT_DEATH(ms::FaultPlan::parse("media=1.5"), "out of");
    EXPECT_DEATH(ms::FaultPlan::parse("media=-0.1"), "out of");
    EXPECT_DEATH(ms::FaultPlan::parse("media=abc"), "not a number");
    EXPECT_DEATH(ms::FaultPlan::parse("dma_min=-1"), "dma_min");
}

namespace {

/** Malformed values a lenient number parser lets through: junk,
 *  NaN, a numeric prefix, a negative unsigned, and an overflowing
 *  microsecond-to-tick conversion. */
const char *const kMalformedSpecs[] = {
    "media=abc",
    "media=nan",
    "media=0.5junk",
    "dma_min=-1",
    "watchdog_us=99999999999999",
};

/** A spec that parses back to @p plan exactly (%.17g round-trips a
 *  double; a parsed watchdog is a whole number of microseconds). */
std::string
specOf(const ms::FaultPlan &plan)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "media=%.17g,dma=%.17g,crash=%.17g,hang=%.17g,"
                  "drop=%.17g,dma_min=%llu,watchdog_us=%llu,seed=%llu",
                  plan.mediaRate, plan.dmaRate, plan.crashRate,
                  plan.hangRate, plan.dropRate,
                  static_cast<unsigned long long>(plan.dmaMinBytes),
                  static_cast<unsigned long long>(plan.watchdogTicks /
                                                  ms::kPsPerUs),
                  static_cast<unsigned long long>(plan.seed));
    return buf;
}

void
expectSamePlan(const ms::FaultPlan &a, const ms::FaultPlan &b)
{
    EXPECT_EQ(a.mediaRate, b.mediaRate);
    EXPECT_EQ(a.dmaRate, b.dmaRate);
    EXPECT_EQ(a.crashRate, b.crashRate);
    EXPECT_EQ(a.hangRate, b.hangRate);
    EXPECT_EQ(a.dropRate, b.dropRate);
    EXPECT_EQ(a.dmaMinBytes, b.dmaMinBytes);
    EXPECT_EQ(a.watchdogTicks, b.watchdogTicks);
    EXPECT_EQ(a.seed, b.seed);
}

}  // namespace

TEST(FaultPlan, TryParseRejectsMalformedNumbers)
{
    for (const char *spec : kMalformedSpecs) {
        SCOPED_TRACE(spec);
        ms::FaultPlan plan;
        plan.seed = 99;
        std::string error;
        EXPECT_FALSE(ms::FaultPlan::tryParse(spec, &plan, &error));
        EXPECT_FALSE(error.empty());
        EXPECT_EQ(plan.seed, 99u);  // the output is left untouched
    }
}

TEST(FaultPlanDeath, ParseDiesOnMalformedNumbers)
{
    for (const char *spec : kMalformedSpecs) {
        SCOPED_TRACE(spec);
        EXPECT_DEATH(ms::FaultPlan::parse(spec), "fault");
    }
}

TEST(FaultPlan, WatchdogAcceptsTheLargestRepresentableDuration)
{
    const ms::Tick max_us = ~ms::Tick{0} / ms::kPsPerUs;
    ms::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(ms::FaultPlan::tryParse(
        "watchdog_us=" + std::to_string(max_us), &plan, &error))
        << error;
    EXPECT_EQ(plan.watchdogTicks, max_us * ms::kPsPerUs);
    EXPECT_FALSE(ms::FaultPlan::tryParse(
        "watchdog_us=" + std::to_string(max_us + 1), &plan, &error));
}

TEST(FaultPlanFuzz, MutantsAreRejectedOrRoundTrip)
{
    // Flip, insert and truncate bytes of valid specs, and splice in
    // tokens a lenient number parser mishandles. Every mutant is either
    // rejected with a message or yields finite rates in [0,1] that
    // re-parse to the same plan.
    const std::string seeds[] = {
        "media=2e-3,dma=1e-3,crash=5e-4,hang=1e-4,drop=1e-3,"
        "dma_min=4096,watchdog_us=500,seed=7",
        "media=0.5",
        "drop=1e-2,",
        "crash=1,hang=0,seed=18446744073709551615",
        "watchdog_us=18446744073709,dma_min=0",
    };
    // Bytes that keep a mutant close to the grammar, so it gets past
    // the key and into the number parser often.
    const std::string near = "0123456789.,=eE+-xnaif_ ";
    const std::string tokens[] = {"nan", "inf", "-", "1e400", "0x1",
                                  "18446744073709551616"};
    ms::Rng rng(2024);
    unsigned accepted = 0;
    unsigned rejected = 0;
    for (int round = 0; round < 20000; ++round) {
        std::string spec = seeds[rng.nextBelow(std::size(seeds))];
        const auto any_byte = [&] {
            return rng.nextBool(0.5)
                       ? near[rng.nextBelow(near.size())]
                       : static_cast<char>(rng.nextBelow(256));
        };
        for (std::uint64_t e = rng.nextBelow(4) + 1; e > 0; --e) {
            const std::size_t at = rng.nextBelow(spec.size() + 1);
            switch (rng.nextBelow(4)) {
              case 0:
                if (at < spec.size())
                    spec[at] = any_byte();
                break;
              case 1:
                spec.insert(at, 1, any_byte());
                break;
              case 2:
                spec.insert(at, tokens[rng.nextBelow(std::size(tokens))]);
                break;
              default:
                spec.resize(at);
                break;
            }
        }
        SCOPED_TRACE(spec);
        ms::FaultPlan plan;
        std::string error;
        if (!ms::FaultPlan::tryParse(spec, &plan, &error)) {
            EXPECT_FALSE(error.empty());
            ++rejected;
            continue;
        }
        ++accepted;
        for (const double rate : {plan.mediaRate, plan.dmaRate,
                                  plan.crashRate, plan.hangRate,
                                  plan.dropRate}) {
            EXPECT_TRUE(std::isfinite(rate));
            EXPECT_GE(rate, 0.0);
            EXPECT_LE(rate, 1.0);
        }
        ms::FaultPlan again;
        ASSERT_TRUE(ms::FaultPlan::tryParse(specOf(plan), &again, &error))
            << error;
        expectSamePlan(plan, again);
    }
    // The budget must reach both outcomes, or it tests nothing.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

TEST(FaultPlan, FromEnvReadsMorpheusFaults)
{
    ::unsetenv("MORPHEUS_FAULTS");
    EXPECT_FALSE(ms::FaultPlan::fromEnv().active());

    ::setenv("MORPHEUS_FAULTS", "media=1e-2,seed=3", 1);
    const ms::FaultPlan plan = ms::FaultPlan::fromEnv();
    EXPECT_DOUBLE_EQ(plan.mediaRate, 1e-2);
    EXPECT_EQ(plan.seed, 3u);

    ::setenv("MORPHEUS_FAULTS", "", 1);
    EXPECT_FALSE(ms::FaultPlan::fromEnv().active());
    ::unsetenv("MORPHEUS_FAULTS");
}

TEST(FaultInjector, ZeroRateNeverFires)
{
    ms::FaultPlan plan;  // all rates zero
    ms::FaultInjector fi(plan);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(fi.mediaError());
        EXPECT_FALSE(fi.dmaFault(1 << 20));
        EXPECT_FALSE(fi.appCrash());
        EXPECT_FALSE(fi.appHang());
        EXPECT_FALSE(fi.dropCqe());
    }
    EXPECT_EQ(fi.mediaErrors(), 0u);
    EXPECT_EQ(fi.dmaFaults(), 0u);
    EXPECT_EQ(fi.appCrashes(), 0u);
    EXPECT_EQ(fi.appHangs(), 0u);
    EXPECT_EQ(fi.droppedCqes(), 0u);
}

TEST(FaultInjector, RateOneAlwaysFires)
{
    ms::FaultPlan plan;
    plan.mediaRate = 1.0;
    plan.dropRate = 1.0;
    ms::FaultInjector fi(plan);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(fi.mediaError());
        EXPECT_TRUE(fi.dropCqe());
    }
    EXPECT_EQ(fi.mediaErrors(), 100u);
    EXPECT_EQ(fi.droppedCqes(), 100u);
}

TEST(FaultInjector, DeterministicInSeed)
{
    ms::FaultPlan plan;
    plan.mediaRate = 0.3;
    plan.seed = 42;
    ms::FaultInjector a(plan);
    ms::FaultInjector b(plan);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(a.mediaError(), b.mediaError()) << "draw " << i;

    plan.seed = 43;
    ms::FaultInjector c(plan);
    ms::FaultInjector d(plan);
    bool diverged = false;
    for (int i = 0; i < 500; ++i) {
        const bool ci = c.mediaError();
        if (ci != d.mediaError())
            ADD_FAILURE() << "same-seed divergence at draw " << i;
        diverged |= ci;
    }
    EXPECT_TRUE(diverged) << "rate 0.3 never fired in 500 draws";
}

TEST(FaultInjector, ClassStreamsAreIndependent)
{
    // The media schedule at a given seed must not move when the DMA
    // class is enabled alongside it (distinct Rng streams per class).
    ms::FaultPlan media_only;
    media_only.mediaRate = 0.2;
    media_only.seed = 7;
    ms::FaultPlan both = media_only;
    both.dmaRate = 0.9;

    ms::FaultInjector a(media_only);
    ms::FaultInjector b(both);
    for (int i = 0; i < 300; ++i) {
        EXPECT_EQ(a.mediaError(), b.mediaError()) << "draw " << i;
        // Interleave DMA draws in b only: must not perturb its media
        // stream.
        (void)b.dmaFault(4096);
    }
}

TEST(FaultInjector, SmallDmaMovesAreExemptWithoutConsumingDraws)
{
    ms::FaultPlan plan;
    plan.dmaRate = 0.5;
    plan.dmaMinBytes = 512;
    plan.seed = 11;
    ms::FaultInjector a(plan);
    ms::FaultInjector b(plan);
    std::vector<bool> a_seq;
    std::vector<bool> b_seq;
    for (int i = 0; i < 200; ++i) {
        // a sees a control-path move (no draw) before every data move.
        EXPECT_FALSE(a.dmaFault(64));
        a_seq.push_back(a.dmaFault(4096));
        b_seq.push_back(b.dmaFault(4096));
    }
    EXPECT_EQ(a_seq, b_seq);
}

TEST(FaultInjector, ScopedInstallAndRestore)
{
    EXPECT_EQ(ms::faultInjector(), nullptr);
    ms::FaultPlan plan;
    plan.mediaRate = 1.0;
    ms::FaultInjector outer(plan);
    {
        ms::ScopedFaultInjector scope(&outer);
        EXPECT_EQ(ms::faultInjector(), &outer);
        ms::FaultInjector inner(plan);
        {
            ms::ScopedFaultInjector nested(&inner);
            EXPECT_EQ(ms::faultInjector(), &inner);
        }
        EXPECT_EQ(ms::faultInjector(), &outer);
    }
    EXPECT_EQ(ms::faultInjector(), nullptr);
}

TEST(FaultInjector, HostSystemWritesCountersUnderFaults)
{
    ms::FaultPlan plan;
    plan.mediaRate = 1.0;
    ms::FaultInjector fi(plan);
    (void)fi.mediaError();
    fi.noteWatchdogKill();
    fi.noteDmaRetry();

    morpheus::obs::MetricsRegistry reg;
    {
        ms::ScopedFaultInjector scope(&fi);
        morpheus::host::HostSystem sys;
        sys.writeStats(reg, "sys");
    }
    EXPECT_EQ(reg.counter("sys.faults.mediaErrors"), 1u);
    EXPECT_EQ(reg.counter("sys.faults.watchdogKills"), 1u);
    EXPECT_EQ(reg.counter("sys.faults.dmaRetries"), 1u);
    EXPECT_EQ(reg.counter("sys.faults.dmaFaults"), 0u);
    EXPECT_EQ(reg.counter("sys.faults.appCrashes"), 0u);
    EXPECT_EQ(reg.counter("sys.faults.appHangs"), 0u);
    EXPECT_EQ(reg.counter("sys.faults.droppedCqes"), 0u);
    std::ostringstream os;
    reg.report(os);
    EXPECT_NE(os.str().find("sys.faults.droppedCqes 0\n"),
              std::string::npos);

    // Without an injector installed the machine writes no fault keys.
    morpheus::obs::MetricsRegistry none;
    morpheus::host::HostSystem sys;
    sys.writeStats(none, "sys");
    std::ostringstream none_os;
    none.report(none_os);
    EXPECT_EQ(none_os.str().find("sys.faults."), std::string::npos);
}
