/// FabricSpec finalization: catchment partitioning, the chip-major
/// node/flow id spaces, remote-slot mapping and the structural counts of
/// the built multi-chip network.
#include <gtest/gtest.h>

#include "topo/fabric.h"

namespace taqos {
namespace {

FabricSpec
wideSpec(int chips)
{
    // 16x16-node chips with two shared columns: the asymmetric-catchment
    // geometry (8 vs 6 compute columns).
    FabricSpec spec;
    spec.chips = chips;
    spec.chip.tilesX = 32;
    spec.chip.tilesY = 32;
    spec.chip.sharedColumns = {4, 12};
    return spec;
}

TEST(FabricGeometry, DefaultChipHasOneFullCatchment)
{
    auto net = FabricNetwork::build(FabricSpec{});
    EXPECT_EQ(net->chips(), 1);
    EXPECT_EQ(net->blocks(), 1);
    EXPECT_EQ(net->gridHeight(), 8);
    EXPECT_EQ(net->computePerRow(), 7);
    const std::vector<int> want = {0, 1, 2, 3, 5, 6, 7};
    EXPECT_EQ(net->catchment(0), want);
    EXPECT_EQ(net->slotsPerNode(), 8); // terminal + 7, no remote slots
    EXPECT_EQ(net->remoteSlots(), 0);
    EXPECT_EQ(net->totalFlows(), 64);
    EXPECT_EQ(net->numNodes(), 64);
}

TEST(FabricGeometry, TwoColumnsSplitTheGridByNearestColumn)
{
    auto net = FabricNetwork::build(wideSpec(1));
    ASSERT_EQ(net->blocksPerChip(), 2);
    const std::vector<int> cat0 = {0, 1, 2, 3, 5, 6, 7, 8};
    const std::vector<int> cat1 = {9, 10, 11, 13, 14, 15};
    EXPECT_EQ(net->catchment(0), cat0);
    EXPECT_EQ(net->catchment(1), cat1);
    // Slots size to the LARGEST catchment; block 1's trailing slots pad.
    EXPECT_EQ(net->slotsPerNode(), 9);
    EXPECT_TRUE(net->slotUsable(1, 6));
    EXPECT_FALSE(net->slotUsable(1, 7));
    EXPECT_FALSE(net->slotUsable(1, 8));
    EXPECT_TRUE(net->slotUsable(0, 8));
    for (int x : cat0)
        EXPECT_EQ(net->blockOfX(x), 0) << "x=" << x;
    for (int x : cat1)
        EXPECT_EQ(net->blockOfX(x), 1) << "x=" << x;
}

TEST(FabricGeometry, MultiChipIdSpacesAreChipMajor)
{
    auto net = FabricNetwork::build(wideSpec(4));
    EXPECT_EQ(net->numNodes(), 4 * 256);
    EXPECT_GE(net->numNodes(), 1024); // the kilo-node acceptance floor
    EXPECT_EQ(net->blocks(), 8);
    // 1 terminal + max catchment 8 + 3 remote chips.
    EXPECT_EQ(net->slotsPerNode(), 12);
    EXPECT_EQ(net->totalFlows(), 8 * 16 * 12);

    // Block nodes come first within a chip, then compute nodes row-major.
    for (int c = 0; c < 4; ++c) {
        for (int j = 0; j < 2; ++j) {
            const int g = c * 2 + j;
            EXPECT_EQ(net->blockBase(g), c * 256 + j * 16);
            for (int y = 0; y < 16; ++y) {
                const NodeId n = net->blockNodeId(c, j, y);
                EXPECT_TRUE(net->isBlockNode(n));
                EXPECT_EQ(net->chipOfNode(n), c);
                EXPECT_EQ(net->blockOfNode(n), g);
            }
        }
        EXPECT_FALSE(net->isBlockNode(net->computeNodeId(c, 0, 0)));
        EXPECT_EQ(net->chipOfNode(net->computeNodeId(c, 15, 15)), c);
    }
    // Compute ids are dense after the block nodes, ascending by rank.
    EXPECT_EQ(net->computeNodeId(0, 0, 0), 32);
    EXPECT_EQ(net->computeNodeId(0, 5, 0), 36); // rank skips shared col 4
    EXPECT_EQ(net->computeNodeId(1, 0, 0), 256 + 32);
}

TEST(FabricGeometry, FlowSlotsRoundTrip)
{
    auto net = FabricNetwork::build(wideSpec(4));
    const int fpb = net->flowsPerBlock();
    const int slots = net->slotsPerNode();
    for (FlowId f : {0, 17, fpb - 1, fpb, 3 * fpb + 5 * slots + 2,
                     net->totalFlows() - 1}) {
        const int g = net->blockOfFlow(f);
        const int y = net->rowOfFlow(f);
        const int k = net->slotOfFlow(f);
        EXPECT_EQ(f, g * fpb + y * slots + k) << "f=" << f;
        EXPECT_EQ(net->flowOf(g, y, k), f) << "f=" << f;
    }
}

TEST(FabricGeometry, RemoteSlotMapsEveryOrderedChipPairOnce)
{
    auto net = FabricNetwork::build(wideSpec(4));
    const int first = 1 + 8; // terminal + max catchment
    for (int dest = 0; dest < 4; ++dest) {
        std::vector<bool> seen(4, false);
        for (int k = first; k < net->slotsPerNode(); ++k) {
            const int src = net->remoteSourceChip(dest, k);
            EXPECT_NE(src, dest);
            EXPECT_FALSE(seen[static_cast<std::size_t>(src)]);
            seen[static_cast<std::size_t>(src)] = true;
        }
    }
    // The wiring inverse: source chip c originating toward dest chip cd
    // computes slot k; remoteSourceChip(cd, k) must give c back.
    for (int c = 0; c < 4; ++c) {
        for (int cd = 0; cd < 4; ++cd) {
            if (cd == c)
                continue;
            const int k = first + (c - cd - 1 + 4) % 4;
            EXPECT_EQ(net->remoteSlot(c, cd), k);
            EXPECT_EQ(net->remoteSourceChip(cd, k), c)
                << "c=" << c << " cd=" << cd;
        }
    }
}

TEST(FabricLayout, OriginIsTheNodeTheWiringQueuesTheFlowAt)
{
    auto net = FabricNetwork::build(wideSpec(2));
    int local = 0, remote = 0;
    for (FlowId f = 0; f < net->totalFlows(); ++f) {
        const int j = net->blockOfFlow(f) % net->blocksPerChip();
        const int k = net->slotOfFlow(f);
        const auto origin = net->originOf(f);
        ASSERT_EQ(origin.has_value(), k != 0 && net->slotUsable(j, k))
            << "flow " << f;
        if (!origin.has_value())
            continue;
        (origin->remote ? remote : local) += 1;
        const NodeCoord at = origin->node;
        EXPECT_EQ(at.y, net->rowOfFlow(f));
        EXPECT_EQ(net->blockOfX(at.x), j);
        EXPECT_EQ(net->sourceQueue(f).node,
                  net->computeNodeId(origin->chip, at.x, at.y))
            << "flow " << f;
    }
    // Every compute node originates one local flow; each (block, row)
    // sends one flow to the other chip.
    EXPECT_EQ(local, 2 * 16 * net->computePerRow());
    EXPECT_EQ(remote, 2 * 2 * 16);
}

TEST(FabricLayout, ColumnOrderDoesNotChangeTheLayout)
{
    FabricSpec spec = wideSpec(4);
    spec.chip.sharedColumns = {12, 4};
    const FabricLayout reversed(spec);
    const FabricLayout ascending(wideSpec(4));
    EXPECT_EQ(reversed.spec().chip.sharedColumns, std::vector<int>({4, 12}));
    EXPECT_EQ(reversed.slotsPerNode(), ascending.slotsPerNode());
    ASSERT_EQ(reversed.totalFlows(), ascending.totalFlows());
    for (int j = 0; j < 2; ++j)
        EXPECT_EQ(reversed.catchment(j), ascending.catchment(j));
    for (FlowId f = 0; f < ascending.totalFlows(); ++f) {
        const auto a = ascending.originOf(f);
        const auto r = reversed.originOf(f);
        ASSERT_EQ(a.has_value(), r.has_value()) << "flow " << f;
        if (a.has_value()) {
            EXPECT_EQ(r->chip, a->chip);
            EXPECT_EQ(r->node, a->node);
            EXPECT_EQ(r->remote, a->remote);
        }
    }
}

TEST(FabricBuild, StructuralCountsMatchTheSpec)
{
    auto net = FabricNetwork::build(wideSpec(2));
    EXPECT_EQ(net->numNodes(), 512);
    EXPECT_EQ(static_cast<int>(net->injectors().size()),
              net->totalFlows());
    // Two handoffs per (chip, block, row): each catchment has compute
    // nodes on both sides of its column.
    EXPECT_EQ(net->auxPorts().size(),
              static_cast<std::size_t>(2 * 2 * 16 * 2));
    // Every injector the column wiring touched got its flow id.
    for (FlowId f = 0; f < net->totalFlows(); ++f)
        EXPECT_EQ(net->injector(f).flow, f);
    // Row queues exist exactly for the usable non-terminal slots.
    for (FlowId f = 0; f < net->totalFlows(); ++f) {
        const int j = net->blockOfFlow(f) % net->blocksPerChip();
        const int k = net->slotOfFlow(f);
        const bool expectQueue = k != 0 && net->slotUsable(j, k);
        EXPECT_EQ(net->rowQueues()[static_cast<std::size_t>(f)].flow,
                  expectQueue ? f : kInvalidFlow)
            << "flow " << f;
    }
}

TEST(FabricBuild, FrameLenScalesWithTheBlockCount)
{
    FabricSpec spec = wideSpec(2); // 4 blocks
    spec.column.pvc.frameLen = 1000;
    auto scaled = FabricNetwork::build(spec);
    EXPECT_EQ(scaled->pvcParams().frameLen, 4000u);
}

TEST(FabricBuild, FlowTablesHoldOnlyTheirBlocksFlows)
{
    // Per-flow state grows with the block, not the machine: a router
    // with a flow table keeps one counter per table per flow of its own
    // block.
    for (int chips : {1, 2, 4}) {
        FabricSpec spec = wideSpec(chips);
        spec.column.topology = TopologyKind::Dps;
        spec.column.mode = QosMode::Pvc;
        auto net = FabricNetwork::build(spec);
        ASSERT_LT(net->flowsPerBlock(), net->totalFlows());
        int withTable = 0;
        for (NodeId n = 0; n < net->numNodes(); ++n) {
            Router *r = net->router(n);
            if (!r->flowTable().enabled())
                continue;
            ++withTable;
            const auto tables =
                static_cast<std::size_t>(Network::nextTableIdx(r));
            EXPECT_EQ(r->flowTable().counts().size(),
                      tables * static_cast<std::size_t>(net->flowsPerBlock()))
                << chips << " chips, node " << n;
        }
        EXPECT_EQ(withTable, net->blocks() * net->gridHeight());
    }
}

TEST(FabricSpecError, BoundsIdsAndTheFlowTables)
{
    // The fabrics CI runs build: 4 chips (1024 routers) and 8 chips.
    EXPECT_EQ(fabricSpecError(wideSpec(4)), "");
    EXPECT_EQ(fabricSpecError(wideSpec(8)), "");

    // 16-node columns, 8 + chips slots per node: 41 chips need
    // 64,288 x 256 = 16,457,728 counters, 42 chips 67,200 x 256.
    EXPECT_EQ(fabricSpecError(wideSpec(41)), "");
    EXPECT_EQ(fabricSpecError(wideSpec(42)),
              "67200 flows need 256 flow-table counters each; the build "
              "allocates at most 16777216");
    EXPECT_EQ(fabricSpecError(wideSpec(3000)),
              "288768000 flows need 256 flow-table counters each; the "
              "build allocates at most 16777216");

    // Past an int, where FabricLayout::totalFlows() used to wrap.
    EXPECT_EQ(fabricSpecError(wideSpec(100000)),
              "320025600000 flows; flow ids must fit an int (at most "
              "2147483647)");

    FabricSpec huge = wideSpec(2);
    huge.chip.tilesX = huge.chip.tilesY = 65536;
    EXPECT_EQ(fabricSpecError(huge),
              "2147483648 nodes; node ids must fit an int (at most "
              "2147483647)");
}

TEST(FabricSpecError, BoundsAMeshColumnByThePacketChargeLog)
{
    // A mesh route charges a flow-table entry at every row, and the
    // packet logs at most NetPacket::kMaxCharges of them: 32x32 tiles
    // make 16-row columns, 16x16 tiles 8-row ones.
    for (TopologyKind topo : {TopologyKind::MeshX1, TopologyKind::MeshX2,
                              TopologyKind::MeshX4}) {
        FabricSpec spec = wideSpec(1);
        spec.column.topology = topo;
        for (QosMode mode : kAllQosModes) {
            spec.column.mode = mode;
            const bool tables = mode == QosMode::Pvc ||
                                mode == QosMode::PerFlowQueue ||
                                mode == QosMode::Wrr;
            const std::string want =
                tables ? std::string("a ") + topologyName(topo) +
                             " column of 16 rows under " +
                             qosModeName(mode) +
                             " charges a flow-table entry per row, but a "
                             "packet's charge log holds 12"
                       : "";
            EXPECT_EQ(fabricSpecError(spec), want);
        }
        spec.column.mode = QosMode::Pvc;
        spec.chip.sharedColumns = {4};
        spec.chip.tilesX = spec.chip.tilesY = 24; // 12 rows
        EXPECT_EQ(fabricSpecError(spec), "");
        spec.chip.tilesX = spec.chip.tilesY = 26; // 13 rows
        EXPECT_EQ(fabricSpecError(spec),
                  std::string("a ") + topologyName(topo) +
                      " column of 13 rows under pvc charges a flow-table "
                      "entry per row, but a packet's charge log holds "
                      "12");
    }
    // Columns whose routes charge once per hop are not bounded by it.
    FabricSpec dps = wideSpec(1);
    dps.column.topology = TopologyKind::Dps;
    dps.column.mode = QosMode::Pvc;
    EXPECT_EQ(fabricSpecError(dps), "");
}

TEST(FabricLinks, TopologyNamesRoundTrip)
{
    for (LinkTopology k : {LinkTopology::PointToPoint, LinkTopology::Ring})
        EXPECT_EQ(parseLinkTopology(linkTopologyName(k)), k);
    EXPECT_EQ(parseLinkTopology("point-to-point"),
              LinkTopology::PointToPoint);
    EXPECT_FALSE(parseLinkTopology("torus").has_value());
}

} // namespace
} // namespace taqos
