#include <gtest/gtest.h>

#include "chip/os.h"
#include "topo/fabric.h"

namespace taqos {
namespace {

/// The hypervisor's flow registers for `col`, the chip's one shared
/// column.
PvcParams
columnRegisters(const OsScheduler &os, const ColumnConfig &col)
{
    const FabricLayout layout(ChipNetConfig{os.chip(), col}.fabricSpec());
    return os.flowRegisters(layout, col.pvc);
}

TEST(Os, CreateVmPlacesAllThreads)
{
    OsScheduler os{ChipConfig{}};
    const auto vm = os.createVm(1, 10, 2);
    ASSERT_TRUE(vm.has_value());
    EXPECT_EQ(vm->threads.size(), 10u);
    // ceil(10/4) = 3 nodes.
    EXPECT_EQ(vm->domain.size(), 3u);
    EXPECT_TRUE(vm->domain.isConvex());
    for (const auto &t : vm->threads) {
        EXPECT_TRUE(vm->domain.contains(t.node));
        EXPECT_LT(t.terminal, 4);
    }
}

TEST(Os, CoSchedulingInvariant)
{
    OsScheduler os{ChipConfig{}};
    // Thread counts that do not fill nodes exactly still may not mix VMs
    // on a node.
    ASSERT_TRUE(os.createVm(1, 5).has_value());
    ASSERT_TRUE(os.createVm(2, 3).has_value());
    ASSERT_TRUE(os.createVm(3, 9).has_value());
    EXPECT_TRUE(os.coScheduleInvariant());
}

TEST(Os, OwnerLookup)
{
    OsScheduler os{ChipConfig{}};
    const auto vm = os.createVm(7, 8);
    ASSERT_TRUE(vm.has_value());
    for (const auto &node : vm->domain.nodes())
        EXPECT_EQ(os.ownerOf(node), 7);
    EXPECT_EQ(os.ownerOf(NodeCoord{4, 0}), -1); // shared column
}

TEST(Os, DestroyVmFreesNodes)
{
    OsScheduler os{ChipConfig{}};
    const int before = os.allocator().freeNodes();
    ASSERT_TRUE(os.createVm(1, 16).has_value());
    EXPECT_TRUE(os.destroyVm(1));
    EXPECT_FALSE(os.destroyVm(1));
    EXPECT_EQ(os.allocator().freeNodes(), before);
    EXPECT_EQ(os.vm(1), nullptr);
}

TEST(Os, AdmissionFailsWhenFull)
{
    OsScheduler os{ChipConfig{}};
    ASSERT_TRUE(os.createVm(1, 32 * 4).has_value()); // one whole side
    ASSERT_TRUE(os.createVm(2, 16 * 4).has_value()); // 2x8 of the other
    EXPECT_FALSE(os.createVm(3, 40).has_value());    // 10 nodes > 8 free
    EXPECT_TRUE(os.createVm(4, 32).has_value());     // 8 nodes: exact fit
    EXPECT_EQ(os.allocator().freeNodes(), 0);
}

TEST(Os, FlowRegistersCarryVmWeights)
{
    const ChipConfig chip;
    OsScheduler os{chip};
    // Force a known placement: VM 1 takes the whole west side with
    // weight 4.
    const auto vm = os.createVm(1, 32 * 4, 4);
    ASSERT_TRUE(vm.has_value());

    ColumnConfig col;
    col.numNodes = chip.nodesY();
    const PvcParams params = columnRegisters(os, col);
    ASSERT_EQ(static_cast<int>(params.weights().size()), col.numFlows());

    int heavy = 0, unity = 0;
    for (auto w : params.weights()) {
        if (w == 4)
            ++heavy;
        else if (w == 1)
            ++unity;
    }
    // Each of the 8 rows has 4 west compute nodes owned by VM 1; the
    // east-side nodes and the terminal flows stay at weight 1.
    EXPECT_EQ(heavy, 8 * 4);
    EXPECT_EQ(heavy + unity, col.numFlows());

    // The terminal injector of every column node keeps weight 1.
    for (int row = 0; row < chip.nodesY(); ++row)
        EXPECT_EQ(params.weights()[static_cast<std::size_t>(
                      col.flowOf(row, 0))],
                  1u);
}

TEST(Os, WeightsFeedQuota)
{
    const ChipConfig chip;
    OsScheduler os{chip};
    ASSERT_TRUE(os.createVm(1, 128, 3).has_value());
    ColumnConfig col;
    col.numNodes = chip.nodesY();
    PvcParams params = columnRegisters(os, col);
    params.frameLen = 50000;
    // A weight-3 flow's reserved quota is 3x a weight-1 flow's.
    FlowId heavyFlow = -1, lightFlow = -1;
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        if (params.weights()[static_cast<std::size_t>(f)] == 3 &&
            heavyFlow < 0)
            heavyFlow = f;
        if (params.weights()[static_cast<std::size_t>(f)] == 1 &&
            lightFlow < 0)
            lightFlow = f;
    }
    ASSERT_GE(heavyFlow, 0);
    ASSERT_GE(lightFlow, 0);
    // Integer frame division makes the ratio approximate.
    EXPECT_NEAR(static_cast<double>(params.quotaFlits(heavyFlow)),
                3.0 * static_cast<double>(params.quotaFlits(lightFlow)),
                0.01 * static_cast<double>(params.quotaFlits(heavyFlow)));
}

} // namespace
} // namespace taqos
