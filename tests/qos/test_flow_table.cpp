#include <gtest/gtest.h>

#include "qos/flow_table.h"

namespace taqos {
namespace {

TEST(FlowTable, DisabledByDefault)
{
    FlowTable t;
    EXPECT_FALSE(t.enabled());
}

TEST(FlowTable, ChargesPerOutputIndependently)
{
    PvcParams p;
    p.numFlows = 4;
    FlowTable t(p, 3);
    t.charge(0, 1, 4);
    t.charge(2, 1, 2);
    EXPECT_EQ(t.countOf(0, 1), 4u);
    EXPECT_EQ(t.countOf(1, 1), 0u);
    EXPECT_EQ(t.countOf(2, 1), 2u);
}

TEST(FlowTable, PriorityScalesInverselyWithWeight)
{
    PvcParams p;
    p.numFlows = 2;
    p.setWeights({1, 4}); // flow 1 provisioned 4x the service
    FlowTable t(p, 1);
    t.charge(0, 0, 8);
    t.charge(0, 1, 8);
    // Equal consumption: the heavier flow has the lower (better) virtual
    // clock value.
    EXPECT_GT(t.priorityOf(0, 0), t.priorityOf(0, 1));
    EXPECT_EQ(t.priorityOf(0, 0), 8u * 5u / 1u);
    EXPECT_EQ(t.priorityOf(0, 1), 8u * 5u / 4u);
}

TEST(FlowTable, LowerConsumptionWinsAtEqualWeight)
{
    PvcParams p;
    p.numFlows = 2;
    FlowTable t(p, 1);
    t.charge(0, 0, 10);
    t.charge(0, 1, 3);
    EXPECT_LT(t.priorityOf(0, 1), t.priorityOf(0, 0));
}

TEST(FlowTable, FlushClearsEverything)
{
    PvcParams p;
    p.numFlows = 3;
    FlowTable t(p, 2);
    t.charge(0, 0, 5);
    t.charge(1, 2, 7);
    t.flush();
    for (int out = 0; out < 2; ++out)
        for (FlowId f = 0; f < 3; ++f)
            EXPECT_EQ(t.countOf(out, f), 0u);
}

TEST(FlowTable, WindowTakesGlobalFlowIds)
{
    // A table over flows [8, 11) of 12: counters only for its window,
    // addressed and weighted by global flow id.
    PvcParams p;
    p.numFlows = 12;
    std::vector<std::uint32_t> weights(12, 1);
    weights[9] = 4;
    p.setWeights(std::move(weights));
    FlowTable t(p, 2, 8, 3);
    EXPECT_EQ(t.counts().size(), 2u * 3u);
    t.charge(0, 8, 8);
    t.charge(0, 9, 8);
    t.charge(1, 10, 6);
    EXPECT_EQ(t.countOf(0, 8), 8u);
    EXPECT_EQ(t.countOf(1, 8), 0u);
    EXPECT_EQ(t.countOf(1, 10), 6u);
    EXPECT_EQ(t.priorityOf(0, 8), 8u * 15u / 1u);
    EXPECT_EQ(t.priorityOf(0, 9), 8u * 15u / 4u);
    t.uncharge(1, 10, 2);
    EXPECT_EQ(t.countOf(1, 10), 4u);
    EXPECT_DEATH(t.countOf(0, 7), "outside the table's window");
    EXPECT_DEATH(t.countOf(0, 11), "outside the table's window");
}

TEST(FlowTable, FreshTableAllZero)
{
    PvcParams p;
    p.numFlows = 8;
    FlowTable t(p, 4);
    EXPECT_TRUE(t.enabled());
    for (FlowId f = 0; f < 8; ++f)
        EXPECT_EQ(t.priorityOf(3, f), 0u);
}

} // namespace
} // namespace taqos
