/// Structural checks of the wired column for every topology: port counts,
/// VC provisioning, route validity, crossbar-port sharing, pipeline depths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "topo/fabric.h"

namespace taqos {
namespace {

class BuildTest : public ::testing::TestWithParam<TopologyKind> {
  protected:
    std::unique_ptr<FabricNetwork> build(QosMode mode = QosMode::Pvc)
    {
        ColumnConfig col;
        col.topology = GetParam();
        col.mode = mode;
        return FabricNetwork::build(columnFabricSpec(col));
    }
};

TEST_P(BuildTest, EveryDestinationRoutable)
{
    auto net = build();
    NetPacket pkt;
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        for (NodeId d = 0; d < net->numNodes(); ++d) {
            pkt.dst = d;
            pkt.id = 3; // exercise parallel-channel spreading
            const RouteEntry e = net->router(n)->routeFor(pkt);
            ASSERT_GE(e.outPort, 0);
            ASSERT_LT(e.outPort,
                      static_cast<int>(net->router(n)->outputs().size()));
            const OutputPort &out =
                *net->router(n)->outputs()[static_cast<std::size_t>(
                    e.outPort)];
            ASSERT_LT(e.dropIdx, static_cast<int>(out.drops.size()));
        }
    }
}

TEST_P(BuildTest, SelfRouteIsTerminal)
{
    auto net = build();
    NetPacket pkt;
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        pkt.dst = n;
        const RouteEntry e = net->router(n)->routeFor(pkt);
        const OutputPort &out =
            *net->router(n)->outputs()[static_cast<std::size_t>(e.outPort)];
        EXPECT_EQ(out.drops[0].down, net->termPort(n));
    }
}

TEST_P(BuildTest, InjectionPortsCoverAllFlows)
{
    auto net = build();
    std::vector<int> seen(static_cast<std::size_t>(net->numFlows()), 0);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        for (const auto &in : net->router(n)->inputs()) {
            if (in->kind != InputPort::Kind::Injection)
                continue;
            EXPECT_NE(in->group, nullptr);
            for (const auto *inj : in->injectors) {
                EXPECT_EQ(inj->node, n);
                ++seen[static_cast<std::size_t>(inj->flow)];
            }
        }
    }
    for (int count : seen)
        EXPECT_EQ(count, 1);
}

TEST_P(BuildTest, VcCountsMatchTable1)
{
    auto net = build();
    const int expect = defaultVcsPerPort(GetParam());
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        for (const auto &in : net->router(n)->inputs()) {
            if (in->kind != InputPort::Kind::Network)
                continue;
            EXPECT_EQ(static_cast<int>(in->vcs.size()), expect)
                << in->name;
        }
        EXPECT_EQ(static_cast<int>(net->termPort(n)->vcs.size()), 2);
    }
}

TEST_P(BuildTest, ReservedVcOnlyUnderPvc)
{
    for (auto mode : {QosMode::Pvc, QosMode::PerFlowQueue, QosMode::NoQos}) {
        auto net = build(mode);
        for (const auto &in : net->router(3)->inputs()) {
            if (in->kind != InputPort::Kind::Network)
                continue;
            if (mode == QosMode::Pvc)
                EXPECT_EQ(in->reservedVc, 0) << in->name;
            else
                EXPECT_EQ(in->reservedVc, -1) << in->name;
            EXPECT_EQ(in->unboundedVcs, mode == QosMode::PerFlowQueue);
        }
    }
}

TEST_P(BuildTest, PipelineDepthsMatchTable1)
{
    auto net = build();
    const int depth = pipelineDepth(GetParam());
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        for (const auto &in : net->router(n)->inputs()) {
            if (in->kind == InputPort::Kind::Injection) {
                EXPECT_EQ(in->pipelineDelay, depth) << in->name;
            } else if (in->usesCarriedPrio) {
                // DPS intermediate hop: single-cycle traversal.
                EXPECT_EQ(in->pipelineDelay, 1) << in->name;
            }
        }
    }
}

TEST_P(BuildTest, DropsPointBackToThisColumn)
{
    auto net = build();
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        for (const auto &out : net->router(n)->outputs()) {
            ASSERT_FALSE(out->drops.empty()) << out->name;
            EXPECT_GE(out->tableIdx, 0) << out->name;
            for (const auto &drop : out->drops) {
                ASSERT_NE(drop.down, nullptr);
                EXPECT_GE(drop.wireDelay, 0);
                EXPECT_GT(drop.meshHops, 0.0);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, BuildTest,
                         ::testing::ValuesIn(kAllTopologies),
                         [](const auto &info) {
                             return std::string(topologyName(info.param));
                         });

TEST(BuildMesh, ParallelChannelsShareDirectionTable)
{
    ColumnConfig col;
    col.topology = TopologyKind::MeshX4;
    auto net = FabricNetwork::build(columnFabricSpec(col));
    Router *r = net->router(3); // interior node: north + south + term
    std::vector<int> tables;
    for (const auto &out : r->outputs())
        tables.push_back(out->tableIdx);
    // 4 north + 4 south + terminal = 9 outputs but only 3 logical tables.
    ASSERT_EQ(tables.size(), 9u);
    EXPECT_EQ(tables[0], tables[1]);
    EXPECT_EQ(tables[0], tables[3]);
    EXPECT_EQ(tables[4], tables[7]);
    EXPECT_NE(tables[0], tables[4]);
    EXPECT_NE(tables[8], tables[0]);
}

TEST(BuildMesh, ParallelSpreadUsesAllChannels)
{
    ColumnConfig col;
    col.topology = TopologyKind::MeshX4;
    auto net = FabricNetwork::build(columnFabricSpec(col));
    NetPacket pkt;
    pkt.dst = 0;
    std::set<int> ports;
    for (PacketId id = 0; id < 16; ++id) {
        pkt.id = id;
        ports.insert(net->router(5)->routeFor(pkt).outPort);
    }
    EXPECT_EQ(ports.size(), 4u);
}

TEST(BuildMesh, ColumnTallerThanTheChargeLogIsRejected)
{
    // A mesh route charges a flow-table entry at every router it
    // crosses, so under PVC a 13-row column would overflow the packet's
    // 12-entry charge log mid-run: the build refuses it up front.
    ColumnConfig col;
    col.topology = TopologyKind::MeshX1;
    col.mode = QosMode::Pvc;
    col.numNodes = NetPacket::kMaxCharges + 1;
    EXPECT_DEATH(FabricNetwork::build(columnFabricSpec(col)),
                 "mesh_x1 column of 13 rows under pvc.*charge log holds 12");

    // Policies without flow tables log no charges; 12 rows fit the log.
    col.mode = QosMode::NoQos;
    EXPECT_NE(FabricNetwork::build(columnFabricSpec(col)), nullptr);
    col.mode = QosMode::Pvc;
    col.numNodes = NetPacket::kMaxCharges;
    EXPECT_NE(FabricNetwork::build(columnFabricSpec(col)), nullptr);
}

TEST(BuildMecs, SingleNetworkHopToEveryDestination)
{
    ColumnConfig col;
    col.topology = TopologyKind::Mecs;
    auto net = FabricNetwork::build(columnFabricSpec(col));
    NetPacket pkt;
    for (NodeId n = 0; n < 8; ++n) {
        for (NodeId d = 0; d < 8; ++d) {
            if (n == d)
                continue;
            pkt.dst = d;
            const RouteEntry e = net->router(n)->routeFor(pkt);
            const OutputPort &out =
                *net->router(n)->outputs()[static_cast<std::size_t>(
                    e.outPort)];
            const auto &drop =
                out.drops[static_cast<std::size_t>(e.dropIdx)];
            // The drop lands at the destination router directly, with
            // distance-proportional wire delay and mesh-hop weight.
            EXPECT_EQ(drop.down->node, d);
            EXPECT_EQ(drop.wireDelay, std::abs(n - d));
            EXPECT_DOUBLE_EQ(drop.meshHops, std::abs(n - d));
        }
    }
}

TEST(BuildMecs, SameDirectionInputsShareXbarPort)
{
    ColumnConfig col;
    col.topology = TopologyKind::Mecs;
    auto net = FabricNetwork::build(columnFabricSpec(col));
    Router *r = net->router(4);
    std::map<XbarGroup *, int> groupSizes;
    for (const auto &in : r->inputs()) {
        if (in->kind == InputPort::Kind::Network)
            ++groupSizes[in->group];
    }
    // 4 inputs from the north side share one group, 3 from the south the
    // other.
    ASSERT_EQ(groupSizes.size(), 2u);
    std::vector<int> sizes;
    for (auto &[g, n] : groupSizes)
        sizes.push_back(n);
    std::sort(sizes.begin(), sizes.end());
    EXPECT_EQ(sizes[0], 3);
    EXPECT_EQ(sizes[1], 4);
}

TEST(BuildDps, IntermediateHopsArePassThrough)
{
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    auto net = FabricNetwork::build(columnFabricSpec(col));
    // Node 3 lies on the chains of subnets 0,1,2 (from the south side)
    // and 4,5,6,7 (from the north side): 7 pass-through ports.
    int passPorts = 0;
    for (const auto &in : net->router(3)->inputs()) {
        if (!in->usesCarriedPrio)
            continue;
        ++passPorts;
        EXPECT_EQ(in->group, nullptr) << "pass hop must bypass the crossbar";
        EXPECT_EQ(in->pipelineDelay, 1);
    }
    EXPECT_EQ(passPorts, 7);
    // End nodes have fewer: node 0 passes nothing northward.
    int passAt0 = 0;
    for (const auto &in : net->router(0)->inputs())
        passAt0 += in->usesCarriedPrio;
    EXPECT_EQ(passAt0, 0);
}

TEST(BuildDps, SubnetChainReachesDestination)
{
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    auto net = FabricNetwork::build(columnFabricSpec(col));
    // Follow subnet 0 from node 7: each hop must step one node closer.
    NetPacket pkt;
    pkt.dst = 0;
    NodeId cur = 7;
    int steps = 0;
    while (cur != 0 && steps < 16) {
        const RouteEntry e = net->router(cur)->routeFor(pkt);
        const OutputPort &out =
            *net->router(cur)->outputs()[static_cast<std::size_t>(
                e.outPort)];
        const NodeId next = out.drops[0].down->node;
        EXPECT_EQ(next, cur - 1);
        cur = next;
        ++steps;
    }
    EXPECT_EQ(cur, 0);
    EXPECT_EQ(steps, 7);
}

TEST(BuildDps, PerSubnetFlowTables)
{
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    auto net = FabricNetwork::build(columnFabricSpec(col));
    std::set<int> tables;
    for (const auto &out : net->router(3)->outputs())
        tables.insert(out->tableIdx);
    // 7 subnet outputs + terminal, each with its own table (Sec. 3.2's
    // flow-state scale-up).
    EXPECT_EQ(tables.size(), net->router(3)->outputs().size());
}

TEST(Build, ColumnRejectsMoreEastInjectorsThanRowInjectors)
{
    ColumnConfig col;
    col.injectorsPerNode = 2; // terminal + one row injector
    EXPECT_DEATH(FabricNetwork::build(columnFabricSpec(col)),
                 "4 east row injectors, but the column has 1 row injectors");
    col.eastRowInjectors = 1;
    auto net = FabricNetwork::build(columnFabricSpec(col));
    EXPECT_EQ(net->numFlows(), 16);
}

TEST(Build, SmallColumns)
{
    for (auto kind : kAllTopologies) {
        ColumnConfig col;
        col.topology = kind;
        col.numNodes = 2;
        auto net = FabricNetwork::build(columnFabricSpec(col));
        NetPacket pkt;
        pkt.dst = 1;
        EXPECT_GE(net->router(0)->routeFor(pkt).outPort, 0);
    }
}

} // namespace
} // namespace taqos
