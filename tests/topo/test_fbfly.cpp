/// The flattened-butterfly extension: structural and behavioural checks.

#include <cstdlib>
#include <set>
#include <gtest/gtest.h>

#include "sim/column_sim.h"
#include "topo/geometry.h"

namespace taqos {
namespace {

ColumnConfig
fbColumn()
{
    ColumnConfig col;
    col.topology = TopologyKind::FlatButterfly;
    return col;
}

TEST(FlatButterfly, ParseAndName)
{
    EXPECT_EQ(parseTopology("fbfly"), TopologyKind::FlatButterfly);
    EXPECT_STREQ(topologyName(TopologyKind::FlatButterfly), "fbfly");
}

TEST(FlatButterfly, DedicatedChannelPerPair)
{
    auto net = FabricNetwork::build(columnFabricSpec(fbColumn()));
    NetPacket pkt;
    for (NodeId n = 0; n < 8; ++n) {
        // 7 network outputs + terminal.
        EXPECT_EQ(net->router(n)->outputs().size(), 8u);
        for (NodeId d = 0; d < 8; ++d) {
            if (n == d)
                continue;
            pkt.dst = d;
            const RouteEntry e = net->router(n)->routeFor(pkt);
            const OutputPort &out =
                *net->router(n)->outputs()[static_cast<std::size_t>(
                    e.outPort)];
            ASSERT_EQ(out.drops.size(), 1u);
            EXPECT_EQ(out.drops[0].down->node, d);
            EXPECT_EQ(out.drops[0].wireDelay, std::abs(n - d));
        }
    }
}

TEST(FlatButterfly, EveryInputHasOwnXbarPort)
{
    auto net = FabricNetwork::build(columnFabricSpec(fbColumn()));
    std::set<XbarGroup *> groups;
    int netPorts = 0;
    for (const auto &in : net->router(4)->inputs()) {
        if (in->kind != InputPort::Kind::Network)
            continue;
        ++netPorts;
        EXPECT_NE(in->group, nullptr);
        EXPECT_TRUE(groups.insert(in->group).second)
            << "inputs must not share switch ports";
    }
    EXPECT_EQ(netPorts, 7);
}

TEST(FlatButterfly, SingleHopDelivery)
{
    TrafficConfig t;
    t.injectionRate = 0.0;
    ColumnSim sim(fbColumn(), t);
    NetPacket *pkt = sim.pool().alloc();
    pkt->flow = 0;
    pkt->src = 0;
    pkt->dst = 7;
    pkt->sizeFlits = 1;
    pkt->genCycle = pkt->queuedCycle = 0;
    sim.network().injector(0).enqueue(pkt);
    sim.run(60);
    EXPECT_EQ(pkt->state, PacketState::Delivered);
    // One network hop of span 7 + ejection.
    EXPECT_LT(pkt->deliverCycle, 25u);
    sim.checkInvariants();
}

TEST(FlatButterfly, ResistsTornado)
{
    ColumnConfig col = fbColumn();
    TrafficConfig t;
    t.pattern = TrafficPattern::Tornado;
    t.injectionRate = 0.10;
    ColumnSim sim(col, t);
    sim.setMeasureWindow(4000, 20000);
    sim.run(22000);
    EXPECT_NEAR(sim.metrics().throughputFlitsPerCycle(16000) / 64.0, 0.10,
                0.01);
}

TEST(FlatButterfly, HotspotFairness)
{
    ColumnConfig col = fbColumn();
    TrafficConfig t;
    t.pattern = TrafficPattern::Hotspot;
    t.injectionRate = 0.05;
    ColumnSim sim(col, t);
    sim.setMeasureWindow(10000, 60000);
    sim.run(60000);
    RunningStat rs;
    for (auto f : sim.metrics().flowFlits)
        rs.push(static_cast<double>(f));
    EXPECT_LT(rs.stddev() / rs.mean(), 0.015);
}

TEST(FlatButterfly, LargestCrossbarOfTheRichTopologies)
{
    ColumnConfig col = fbColumn();
    const AreaBreakdown fb = computeRouterArea(
        representativeGeometry(TopologyKind::FlatButterfly, col),
        tech32nm());
    col.topology = TopologyKind::Mecs;
    const AreaBreakdown mecs = computeRouterArea(
        representativeGeometry(TopologyKind::Mecs, col), tech32nm());
    col.topology = TopologyKind::Dps;
    const AreaBreakdown dps = computeRouterArea(
        representativeGeometry(TopologyKind::Dps, col), tech32nm());
    EXPECT_GT(fb.xbarMm2, mecs.xbarMm2);
    EXPECT_GT(fb.xbarMm2, dps.xbarMm2);
}

} // namespace
} // namespace taqos
