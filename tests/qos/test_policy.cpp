/// The QosPolicy layer: name/parse round-trips, the structural properties
/// each mode advertises, the default comparator, and the GSF source gate's
/// frame-window accounting.
#include <gtest/gtest.h>

#include "noc/packet.h"
#include "qos/policy.h"
#include "qos/pvc.h"

namespace taqos {
namespace {

TEST(QosPolicy, NameParseRoundTrip)
{
    for (QosMode mode : kAllQosModes) {
        const auto parsed = parseQosMode(qosModeName(mode));
        ASSERT_TRUE(parsed.has_value()) << qosModeName(mode);
        EXPECT_EQ(*parsed, mode);
    }
    // Aliases and normalization.
    EXPECT_EQ(parseQosMode("PFQ"), QosMode::PerFlowQueue);
    EXPECT_EQ(parseQosMode(" noqos "), QosMode::NoQos);
    EXPECT_EQ(parseQosMode("none"), QosMode::NoQos);
    EXPECT_EQ(parseQosMode("oldest-first"), QosMode::AgeArb);
    EXPECT_EQ(parseQosMode("weighted-rr"), QosMode::Wrr);
    EXPECT_FALSE(parseQosMode("vc").has_value());
    EXPECT_FALSE(parseQosMode("").has_value());
}

TEST(QosPolicy, FactoryRoundTripsMode)
{
    PvcParams params;
    for (QosMode mode : kAllQosModes) {
        const auto policy = makeQosPolicy(mode, params);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->mode(), mode);
    }
}

TEST(QosPolicy, StructuralProperties)
{
    PvcParams params;
    const auto has = [&params](QosMode mode, auto member) {
        return (makeQosPolicy(mode, params).get()->*member)();
    };

    // Flow-state tables: the virtual-clock schemes and WRR's round meter.
    EXPECT_TRUE(has(QosMode::Pvc, &QosPolicy::usesFlowTable));
    EXPECT_TRUE(has(QosMode::PerFlowQueue, &QosPolicy::usesFlowTable));
    EXPECT_TRUE(has(QosMode::Wrr, &QosPolicy::usesFlowTable));
    EXPECT_FALSE(has(QosMode::NoQos, &QosPolicy::usesFlowTable));
    EXPECT_FALSE(has(QosMode::Gsf, &QosPolicy::usesFlowTable));
    EXPECT_FALSE(has(QosMode::AgeArb, &QosPolicy::usesFlowTable));

    // Reserved escape VC and the source quota are PVC-only.
    for (QosMode mode : kAllQosModes) {
        EXPECT_EQ(has(mode, &QosPolicy::usesReservedVc),
                  mode == QosMode::Pvc);
        EXPECT_EQ(has(mode, &QosPolicy::usesSourceQuota),
                  mode == QosMode::Pvc);
        EXPECT_EQ(has(mode, &QosPolicy::unboundedVcs),
                  mode == QosMode::PerFlowQueue);
    }
    // ... and PVC's reserved VC honours the config switch.
    params.reservedVcEnabled = false;
    EXPECT_FALSE(has(QosMode::Pvc, &QosPolicy::usesReservedVc));

    // Router-state frames: only PVC flushes counters on the frame clock
    // (GSF's frames live in the source gate, not the routers).
    params.reservedVcEnabled = true;
    for (QosMode mode : kAllQosModes) {
        const auto policy = makeQosPolicy(mode, params);
        EXPECT_EQ(policy->frameLen(),
                  mode == QosMode::Pvc ? params.frameLen : Cycle{0})
            << qosModeName(mode);
    }
}

/// Ranking is reachable only on a concrete policy class: were rank() or
/// better() callable through a QosPolicy, the virtual-clock defaults
/// would rank GSF, age, no-qos and WRR routers without an error.
template <class T>
concept Ranks = requires(const T &p, const NetPacket &pkt,
                         const FlowTable &table, const ArbKey &key) {
    p.rank(pkt, false, table, 0);
    p.better(key, key, 0);
};
static_assert(!Ranks<QosPolicy>);
static_assert(Ranks<PvcPolicy> && Ranks<GsfPolicy> && Ranks<WrrPolicy>);

TEST(QosPolicy, DefaultComparatorOrder)
{
    PvcParams params;
    const PvcPolicy policy(params);
    const ArbKey base{10, 100, 3, 7};

    EXPECT_TRUE(policy.better(ArbKey{9, 200, 5, 9}, base, 0));
    EXPECT_FALSE(policy.better(ArbKey{11, 0, 0, 0}, base, 0));
    // Equal priority: older wins; then lower flow; then position.
    EXPECT_TRUE(policy.better(ArbKey{10, 99, 5, 9}, base, 0));
    EXPECT_TRUE(policy.better(ArbKey{10, 100, 2, 9}, base, 0));
    EXPECT_TRUE(policy.better(ArbKey{10, 100, 3, 6}, base, 0));
    EXPECT_FALSE(policy.better(base, base, 0));
}

TEST(QosPolicy, OnlyPvcPreempts)
{
    PvcParams params;
    for (QosMode mode : kAllQosModes) {
        const auto policy = makeQosPolicy(mode, params);
        const bool expect = mode == QosMode::Pvc;
        EXPECT_EQ(policy->onAllocFail(1000, false), expect)
            << qosModeName(mode);
        EXPECT_EQ(policy->onAllocFail(1000, true), expect)
            << qosModeName(mode);
    }
    // PVC respects its wait thresholds (transients are not inversions).
    const auto pvc = makeQosPolicy(QosMode::Pvc, params);
    EXPECT_FALSE(pvc->onAllocFail(
        static_cast<Cycle>(params.preemptWaitCycles - 1), false));
    EXPECT_TRUE(pvc->onAllocFail(
        static_cast<Cycle>(params.preemptWaitCycles), false));
    EXPECT_FALSE(pvc->onAllocFail(
        static_cast<Cycle>(params.preemptXferWaitCycles - 1), true));
    EXPECT_TRUE(pvc->onAllocFail(
        static_cast<Cycle>(params.preemptXferWaitCycles), true));
}

TEST(SourceGate, OnlyGsfGates)
{
    PvcParams params;
    for (QosMode mode : kAllQosModes) {
        const auto gate = makeSourceGate(mode, params);
        EXPECT_EQ(gate != nullptr, mode == QosMode::Gsf)
            << qosModeName(mode);
    }
}

TEST(SourceGate, GsfBudgetExhaustsTheWindow)
{
    PvcParams params;
    params.numFlows = 2;
    params.gsfFrameLen = 8; // budget: 8 * 1/2 = 4 flits per flow per frame
    params.gsfFrames = 3;
    const auto gate = makeSourceGate(QosMode::Gsf, params);

    // One flow may stamp its budget into each of the 3 window frames,
    // then stalls; frame tags are monotonically non-decreasing.
    std::vector<NetPacket> pkts(4 * 3 + 1);
    std::uint64_t lastTag = 0;
    for (std::size_t i = 0; i < pkts.size(); ++i) {
        pkts[i].flow = 0;
        pkts[i].sizeFlits = 1;
        const bool admitted = gate->admit(pkts[i], /*now=*/0);
        EXPECT_EQ(admitted, i < 12) << "packet " << i;
        if (admitted) {
            EXPECT_GE(pkts[i].frameTag, lastTag);
            EXPECT_LT(pkts[i].frameTag, 3u);
            lastTag = pkts[i].frameTag;
        }
    }
    // The other flow's budget is untouched.
    NetPacket other;
    other.flow = 1;
    other.sizeFlits = 1;
    EXPECT_TRUE(gate->admit(other, 0));
    // Re-admitting an already-stamped packet never blocks.
    EXPECT_TRUE(gate->admit(pkts[0], 0));
}

TEST(SourceGate, GsfReclaimsDrainedFrames)
{
    PvcParams params;
    params.numFlows = 1;
    params.gsfFrameLen = 4; // budget: 4 flits per frame
    params.gsfFrames = 2;
    const auto gate = makeSourceGate(QosMode::Gsf, params);

    std::vector<NetPacket> pkts(8);
    for (auto &p : pkts) {
        p.flow = 0;
        p.sizeFlits = 1;
    }
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(gate->admit(pkts[static_cast<std::size_t>(i)], 0));
    NetPacket blocked;
    blocked.flow = 0;
    blocked.sizeFlits = 1;
    EXPECT_FALSE(gate->admit(blocked, 0));

    // Delivering frame 0 reclaims it early (no timeout needed): the
    // window slides and the blocked packet is admitted into frame 2.
    for (int i = 0; i < 4; ++i)
        gate->onDeliver(pkts[static_cast<std::size_t>(i)], 1);
    gate->rollover(/*now=*/1);
    EXPECT_TRUE(gate->admit(blocked, 1));
    EXPECT_EQ(blocked.frameTag, 2u);
}

TEST(SourceGate, GsfIdleFramesAdvanceOnTheTimer)
{
    PvcParams params;
    params.numFlows = 1;
    params.gsfFrameLen = 10;
    params.gsfFrames = 2;
    const auto gate = makeSourceGate(QosMode::Gsf, params);

    // Nothing was ever injected: an idle head frame is reclaimed on the
    // timer alone, so a long-quiet network does not pin the window.
    gate->rollover(9); // timer not elapsed yet: head stays at frame 0
    gate->rollover(25); // elapsed: frame 0 reclaimed (head restarts at 25)
    NetPacket a;
    a.flow = 0;
    a.sizeFlits = 1;
    ASSERT_TRUE(gate->admit(a, 25));
    EXPECT_EQ(a.frameTag, 1u);
}

} // namespace
} // namespace taqos
