/// Structure of the whole-chip network — the one-chip, one-column
/// fabric: node-id mapping, the compute-node/row-injector correspondence
/// the OS flow registers rely on, row wiring into the handoff buffers,
/// and column intactness.
#include <gtest/gtest.h>

#include <set>

#include "chip/os.h"
#include "topo/fabric.h"

namespace taqos {
namespace {

ChipNetConfig
defaultChip(TopologyKind kind = TopologyKind::Dps)
{
    ChipNetConfig cc;
    cc.column.topology = kind;
    cc.column.mode = QosMode::Pvc;
    return cc;
}

std::unique_ptr<FabricNetwork>
buildChip(const ChipNetConfig &cc)
{
    return FabricNetwork::build(cc.fabricSpec());
}

/// Node id of grid position (x, y): the column node or a compute node.
NodeId
nodeIdAt(const FabricNetwork &net, int columnX, int x, int y)
{
    return x == columnX ? net.blockNodeId(0, 0, y)
                        : net.computeNodeId(0, x, y);
}

TEST(ChipNetwork, GridCoversAllNodesExactlyOnce)
{
    const ChipNetConfig cc = defaultChip();
    auto net = buildChip(cc);
    const ChipConfig &chip = cc.chip;
    EXPECT_EQ(net->numNodes(), chip.numNodes());

    std::set<NodeId> seen;
    for (int y = 0; y < chip.nodesY(); ++y) {
        for (int x = 0; x < chip.nodesX(); ++x) {
            const NodeId id = nodeIdAt(*net, cc.columnX(), x, y);
            EXPECT_TRUE(seen.insert(id).second) << x << "," << y;
            EXPECT_GE(id, 0);
            EXPECT_LT(id, net->numNodes());
            EXPECT_NE(net->router(id), nullptr);
        }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), chip.numNodes());
}

TEST(ChipNetwork, ColumnNodesKeepColumnIds)
{
    const ChipNetConfig cc = defaultChip();
    auto net = buildChip(cc);
    for (int y = 0; y < cc.chip.nodesY(); ++y)
        EXPECT_EQ(nodeIdAt(*net, cc.columnX(), cc.columnX(), y), y);
}

TEST(ChipNetwork, InjectorIndexMatchesOsFlowRegisterMapping)
{
    const ChipNetConfig cc = defaultChip();
    auto net = buildChip(cc);
    const ChipConfig &chip = cc.chip;
    EXPECT_EQ(net->slotsPerNode(), cc.column.injectorsPerNode);

    // Slot k of every row is the row's k-th compute node by x, and the
    // wiring gave that node the flow's origin queue.
    for (int y = 0; y < chip.nodesY(); ++y) {
        int k = 1;
        for (int x = 0; x < chip.nodesX(); ++x) {
            if (x == cc.columnX())
                continue;
            const auto origin = net->originOf(net->flowOf(0, y, k++));
            ASSERT_TRUE(origin.has_value()) << x << "," << y;
            EXPECT_EQ(origin->node.x, x);
            EXPECT_EQ(origin->node.y, y);
        }
    }
    int compute = 0;
    for (FlowId f = 0; f < net->totalFlows(); ++f) {
        const auto origin = net->originOf(f);
        if (!origin.has_value()) {
            EXPECT_EQ(net->slotOfFlow(f), 0) << "flow " << f;
            continue;
        }
        ++compute;
        EXPECT_EQ(origin->chip, 0);
        EXPECT_FALSE(origin->remote);
        EXPECT_EQ(net->sourceQueue(f).node,
                  net->computeNodeId(0, origin->node.x, origin->node.y))
            << "flow " << f;
    }
    EXPECT_EQ(compute, chip.nodesY() * net->computePerRow());

    // A VM's weight lands on the flow its compute nodes originate.
    OsScheduler os(chip);
    ASSERT_TRUE(os.createVm(0, 16, 3).has_value());
    const PvcParams regs = os.flowRegisters(*net, cc.column.pvc);
    ASSERT_EQ(static_cast<int>(regs.weights().size()), net->totalFlows());
    int heavy = 0;
    for (FlowId f = 0; f < net->totalFlows(); ++f) {
        const auto origin = net->originOf(f);
        const int owner = origin.has_value() ? os.ownerOf(origin->node) : -1;
        EXPECT_EQ(regs.weights()[static_cast<std::size_t>(f)],
                  owner == 0 ? 3u : 1u)
            << "flow " << f;
        heavy += owner == 0 ? 1 : 0;
    }
    EXPECT_EQ(heavy, 4); // 16 threads on 4-terminal nodes
}

TEST(ChipNetwork, EveryRowHandsOffIntoTheColumn)
{
    const ChipNetConfig cc = defaultChip();
    auto net = buildChip(cc);
    const ChipConfig &chip = cc.chip;
    const int c = cc.columnX();
    const int sides = (c > 0 ? 1 : 0) + (c < chip.nodesX() - 1 ? 1 : 0);
    EXPECT_EQ(static_cast<int>(net->auxPorts().size()),
              sides * chip.nodesY());
    for (const InputPort *p : net->auxPorts()) {
        EXPECT_FALSE(p->vcs.empty());
        EXPECT_LT(p->node, chip.nodesY()); // anchored at a column node
    }
}

TEST(ChipNetwork, ComputeRoutersRouteTowardTheirColumnNode)
{
    const ChipNetConfig cc = defaultChip();
    auto net = buildChip(cc);
    const ChipConfig &chip = cc.chip;
    const int c = cc.columnX();
    for (int y = 0; y < chip.nodesY(); ++y) {
        for (int x = 0; x < chip.nodesX(); ++x) {
            if (x == c)
                continue;
            NetPacket pkt;
            pkt.dst = net->blockNodeId(0, 0, y);
            const RouteEntry e =
                net->router(net->computeNodeId(0, x, y))->routeFor(pkt);
            EXPECT_GE(e.outPort, 0);
        }
    }
}

TEST(ChipNetwork, SourceQueuesCoverEveryRowInjectorFlow)
{
    const ChipNetConfig cc = defaultChip();
    auto net = buildChip(cc);
    for (FlowId f = 0; f < net->totalFlows(); ++f) {
        InjectorQueue &q = net->sourceQueue(f);
        if (f % net->slotsPerNode() == 0) {
            // Terminal flows originate at the column entrance itself.
            EXPECT_EQ(&q, &net->injector(f));
        } else {
            EXPECT_NE(&q, &net->injector(f));
            EXPECT_EQ(q.flow, f);
            EXPECT_GE(q.node, cc.chip.nodesY());
        }
    }
}

} // namespace
} // namespace taqos
