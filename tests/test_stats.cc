/**
 * @file
 * Unit tests for the statistics package: Counter, and components
 * writing their counters into obs::MetricsRegistry.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "host/cpu_model.hh"
#include "host/host_memory.hh"
#include "obs/metrics.hh"
#include "sim/stats.hh"

namespace ho = morpheus::host;
namespace ob = morpheus::obs;
namespace st = morpheus::sim::stats;

TEST(Counter, Accumulates)
{
    st::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
}

TEST(ComponentStats, WritesAreSortedAndComplete)
{
    ho::HostMemory mem(ho::HostMemoryConfig{});
    ho::HostCpu cpu(ho::CpuConfig{});
    (void)mem.cpuAccess(3, 5, 0);
    (void)cpu.execute(0, 1000, 0);

    // Written in either order, the registry dumps every key of both
    // components sorted by name.
    ob::MetricsRegistry reg;
    mem.writeStats(reg, "zeta");
    cpu.writeStats(reg, "alpha");
    std::ostringstream os;
    reg.report(os);
    EXPECT_EQ(os.str(), "alpha.cycles 1000\n"
                        "zeta.busBytesRead 3\n"
                        "zeta.busBytesWritten 5\n"
                        "zeta.residentBytes 0\n");
    EXPECT_EQ(reg.counter("zeta.busBytesWritten"), 5u);
    EXPECT_EQ(reg.counter("zeta.missing"), 0u);
}

TEST(ComponentStats, EachWriteReadsCurrentValues)
{
    ho::HostMemory mem(ho::HostMemoryConfig{});
    const std::vector<std::uint8_t> page(4096, 1);
    mem.busWrite(0, page.data(), page.size());

    ob::MetricsRegistry first;
    mem.writeStats(first, "mem");
    const std::uint64_t resident = mem.store().residentBytes();
    EXPECT_GT(resident, 0u);
    EXPECT_EQ(first.counter("mem.residentBytes"), resident);
    EXPECT_EQ(first.counter("mem.busBytesWritten"), 4096u);

    // The next write sees the counters and the resident level as they
    // are then; the first registry keeps what it read.
    mem.busWrite(1ULL << 30, page.data(), page.size());
    ob::MetricsRegistry second;
    mem.writeStats(second, "mem");
    EXPECT_GT(second.counter("mem.residentBytes"), resident);
    EXPECT_EQ(second.counter("mem.residentBytes"),
              mem.store().residentBytes());
    EXPECT_EQ(second.counter("mem.busBytesWritten"), 8192u);
    EXPECT_EQ(first.counter("mem.residentBytes"), resident);
    EXPECT_EQ(first.counter("mem.busBytesWritten"), 4096u);
}

TEST(ComponentStatsDeath, DuplicateKeyPanics)
{
    ho::HostMemory mem(ho::HostMemoryConfig{});
    ob::MetricsRegistry reg;
    mem.writeStats(reg, "mem");
    // Two components claiming one key is a wiring bug, not a refresh.
    EXPECT_DEATH(mem.writeStats(reg, "mem"), "duplicate");
}
