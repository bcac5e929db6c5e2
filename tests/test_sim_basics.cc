/**
 * @file
 * Unit tests for the simulator basics: tick conversions and logging.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace ms = morpheus::sim;

TEST(SimTypes, TickConversionHelpers)
{
    EXPECT_EQ(ms::secondsToTicks(1.0), ms::kPsPerSec);
    EXPECT_DOUBLE_EQ(ms::ticksToSeconds(ms::kPsPerSec), 1.0);
    EXPECT_DOUBLE_EQ(ms::ticksToUs(ms::kPsPerUs), 1.0);
    EXPECT_DOUBLE_EQ(ms::ticksToMs(ms::kPsPerMs), 1.0);
    // Transfers round up: a nonzero payload never takes zero time.
    EXPECT_EQ(ms::transferTicks(0, 1e9), 0u);
    EXPECT_GE(ms::transferTicks(1, 1e15), 1u);
    // 1 GB at 1 GB/s = 1 second.
    EXPECT_EQ(ms::transferTicks(1000000000ULL, 1e9), ms::kPsPerSec);
    // Cycles: 1000 cycles at 1 GHz = 1 us.
    EXPECT_EQ(ms::cyclesToTicks(1000.0, 1e9), ms::kPsPerUs);
}

TEST(LoggingDeath, PanicAbortsAndFatalExits)
{
    // gem5 semantics: panic() = simulator bug -> abort (SIGABRT);
    // fatal() = user error -> exit(1).
    EXPECT_DEATH(MORPHEUS_PANIC("boom ", 42), "panic: boom 42");
    EXPECT_EXIT(MORPHEUS_FATAL("bad config ", 7),
                ::testing::ExitedWithCode(1), "fatal: bad config 7");
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    MORPHEUS_ASSERT(1 + 1 == 2, "arithmetic works");
    EXPECT_DEATH(MORPHEUS_ASSERT(false, "ctx ", 99),
                 "assertion failed");
}

TEST(Logging, LogLevelRoundTrips)
{
    using morpheus::sim::LogLevel;
    const auto old = morpheus::sim::logLevel();
    morpheus::sim::setLogLevel(LogLevel::kQuiet);
    EXPECT_EQ(morpheus::sim::logLevel(), LogLevel::kQuiet);
    morpheus::sim::setLogLevel(old);
}
