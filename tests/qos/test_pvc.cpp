#include <gtest/gtest.h>

#include "qos/pvc.h"

namespace taqos {
namespace {

TEST(PvcParams, EqualWeightsByDefault)
{
    PvcParams p;
    p.numFlows = 64;
    EXPECT_EQ(p.weightOf(0), 1u);
    EXPECT_EQ(p.weightOf(63), 1u);
    EXPECT_EQ(p.sumWeights(), 64u);
}

TEST(PvcParams, QuotaIsFairShareOfFrame)
{
    PvcParams p;
    p.numFlows = 64;
    p.frameLen = 50000;
    // 50000 / 64 = 781 flits: the reserved non-preemptable share.
    EXPECT_EQ(p.quotaFlits(0), 781u);
}

TEST(PvcParams, WeightedQuota)
{
    PvcParams p;
    p.numFlows = 4;
    p.frameLen = 1000;
    p.setWeights({1, 1, 2, 4});
    EXPECT_EQ(p.sumWeights(), 8u);
    EXPECT_EQ(p.quotaFlits(0), 125u);
    EXPECT_EQ(p.quotaFlits(3), 500u);
}

TEST(PvcParams, SumFollowsEveryWeightWrite)
{
    PvcParams p;
    p.numFlows = 4;
    p.setWeights({1, 1, 2, 4});
    PvcParams copy = p;
    EXPECT_EQ(copy.sumWeights(), 8u);
    p.setWeights({3, 3, 3, 3});
    EXPECT_EQ(p.sumWeights(), 12u);
    EXPECT_EQ(p.quotaFlits(0), p.frameLen / 4);
    EXPECT_EQ(copy.sumWeights(), 8u);
    // Back to empty: every flow weighs 1 again.
    p.setWeights({});
    EXPECT_EQ(p.sumWeights(), 4u);
}

TEST(PvcParams, QuotaDisabled)
{
    PvcParams p;
    p.quotaEnabled = false;
    EXPECT_EQ(p.quotaFlits(0), 0u);
}

TEST(PvcParams, GapScaling)
{
    PvcParams p;
    p.numFlows = 64;
    p.preemptGapFlits = 48;
    EXPECT_EQ(p.preemptGapScaled(), 48u * 64u);
}

TEST(QuotaTracker, ComplianceBoundary)
{
    PvcParams p;
    p.numFlows = 2;
    p.frameLen = 100; // quota = 50 flits per flow
    QuotaTracker q(p);

    EXPECT_TRUE(q.compliant(0, 50));
    EXPECT_FALSE(q.compliant(0, 51));
    q.charge(0, 48);
    EXPECT_TRUE(q.compliant(0, 2));
    EXPECT_FALSE(q.compliant(0, 3));
    // Flow 1 unaffected.
    EXPECT_TRUE(q.compliant(1, 50));
}

TEST(QuotaTracker, FlushResets)
{
    PvcParams p;
    p.numFlows = 1;
    p.frameLen = 100;
    QuotaTracker q(p);
    q.charge(0, 100);
    EXPECT_FALSE(q.compliant(0, 1));
    q.flush();
    EXPECT_TRUE(q.compliant(0, 1));
    EXPECT_EQ(q.injectedThisFrame(0), 0u);
}

TEST(QuotaTracker, DisabledQuotaNeverCompliant)
{
    PvcParams p;
    p.numFlows = 1;
    p.quotaEnabled = false;
    QuotaTracker q(p);
    EXPECT_FALSE(q.compliant(0, 1));
}

TEST(QosMode, Names)
{
    EXPECT_STREQ(qosModeName(QosMode::Pvc), "pvc");
    EXPECT_STREQ(qosModeName(QosMode::PerFlowQueue), "per-flow");
    EXPECT_STREQ(qosModeName(QosMode::NoQos), "no-qos");
}

} // namespace
} // namespace taqos
