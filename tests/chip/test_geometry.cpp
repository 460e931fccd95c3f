#include <gtest/gtest.h>

#include "chip/geometry.h"

namespace taqos {
namespace {

TEST(ChipGeometry, PaperConfiguration)
{
    const ChipConfig chip;
    EXPECT_EQ(chip.numTiles(), 256);
    EXPECT_EQ(chip.nodesX(), 8);
    EXPECT_EQ(chip.nodesY(), 8);
    EXPECT_EQ(chip.numNodes(), 64);
    EXPECT_EQ(chip.terminalsPerNode(), 4);
    EXPECT_EQ(chip.computeNodes(), 56);
}

TEST(ChipGeometry, SharedColumnMembership)
{
    const ChipConfig chip;
    EXPECT_TRUE(chip.isSharedColumn(4));
    EXPECT_FALSE(chip.isSharedColumn(3));
    EXPECT_TRUE(chip.isSharedNode(NodeCoord{4, 7}));
    EXPECT_FALSE(chip.isSharedNode(NodeCoord{5, 7}));
}

TEST(ChipGeometry, IndexRoundTrip)
{
    const ChipConfig chip;
    for (int i = 0; i < chip.numNodes(); ++i) {
        const NodeCoord c = chip.coordOf(i);
        EXPECT_TRUE(chip.inGrid(c));
        EXPECT_EQ(chip.nodeIndex(c), i);
    }
    EXPECT_FALSE(chip.inGrid(NodeCoord{8, 0}));
    EXPECT_FALSE(chip.inGrid(NodeCoord{0, -1}));
}

TEST(ChipGeometry, NearestSharedColumn)
{
    ChipConfig chip;
    chip.sharedColumns = {2, 6};
    EXPECT_EQ(chip.nearestSharedColumn(0), 2);
    EXPECT_EQ(chip.nearestSharedColumn(3), 2);
    EXPECT_EQ(chip.nearestSharedColumn(5), 6);
    EXPECT_EQ(chip.nearestSharedColumn(4), 2); // tie toward lower x
    EXPECT_EQ(chip.computeNodes(), 48);
    chip.sharedColumns = {6, 2}; // whatever order they are listed in
    EXPECT_EQ(chip.nearestSharedColumn(4), 2);
}

TEST(ChipGeometry, SixteenWayConcentration)
{
    ChipConfig chip;
    chip.concentration = 16;
    EXPECT_EQ(chip.nodesX(), 4);
    EXPECT_EQ(chip.numNodes(), 16);
}

} // namespace
} // namespace taqos
