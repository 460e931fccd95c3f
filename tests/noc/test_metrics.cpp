#include <gtest/gtest.h>

#include "noc/metrics.h"

namespace taqos {
namespace {

TEST(Metrics, WindowPredicate)
{
    SimMetrics m(4);
    m.measureStart = 100;
    m.measureEnd = 200;
    EXPECT_FALSE(m.inWindow(99));
    EXPECT_TRUE(m.inWindow(100));
    EXPECT_TRUE(m.inWindow(199));
    EXPECT_FALSE(m.inWindow(200));
}

TEST(Metrics, RatesGuardAgainstZeroDenominators)
{
    SimMetrics m(4);
    EXPECT_DOUBLE_EQ(m.preemptionPacketRate(), 0.0);
    EXPECT_DOUBLE_EQ(m.preemptionHopRate(), 0.0);
    EXPECT_DOUBLE_EQ(m.throughputFlitsPerCycle(0), 0.0);
}

TEST(Metrics, HopRateComposition)
{
    SimMetrics m(4);
    m.usefulHops = 90.0;
    m.wastedHops = 10.0;
    EXPECT_DOUBLE_EQ(m.preemptionHopRate(), 0.1);
}

TEST(Metrics, WindowFlitsSumsFlows)
{
    SimMetrics m(3);
    m.flowFlits = {5, 0, 7};
    EXPECT_EQ(m.windowFlits(), 12u);
    EXPECT_DOUBLE_EQ(m.throughputFlitsPerCycle(6), 2.0);
}

TEST(Metrics, SummaryMentionsKeyNumbers)
{
    SimMetrics m(2);
    m.generatedPackets = 42;
    m.deliveredPackets = 40;
    m.preemptionEvents = 3;
    m.latency.push(10.0);
    const std::string s = m.summary();
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("40"), std::string::npos);
    EXPECT_NE(s.find("10.0"), std::string::npos);
}

} // namespace
} // namespace taqos
