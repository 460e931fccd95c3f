#include "chip/geometry.h"

#include <cmath>
#include <cstdlib>

#include "common/assert.h"
#include "common/strings.h"

namespace taqos {

int
ChipConfig::nodesX() const
{
    const int side = static_cast<int>(std::lround(std::sqrt(concentration)));
    TAQOS_ASSERT(side * side == concentration,
                 "concentration %d is not a square", concentration);
    TAQOS_ASSERT(tilesX % side == 0 && tilesY % side == 0,
                 "tile grid not divisible by concentration side");
    return tilesX / side;
}

int
ChipConfig::nodesY() const
{
    const int side = static_cast<int>(std::lround(std::sqrt(concentration)));
    return tilesY / side;
}

bool
ChipConfig::inGrid(NodeCoord c) const
{
    return c.x >= 0 && c.x < nodesX() && c.y >= 0 && c.y < nodesY();
}

bool
ChipConfig::isSharedColumn(int x) const
{
    for (int col : sharedColumns)
        if (col == x)
            return true;
    return false;
}

int
ChipConfig::computeNodes() const
{
    return numNodes() -
           static_cast<int>(sharedColumns.size()) * nodesY();
}

int
ChipConfig::nearestSharedColumn(int x) const
{
    TAQOS_ASSERT(!sharedColumns.empty(), "chip has no shared column");
    int best = sharedColumns.front();
    for (int col : sharedColumns) {
        const int d = std::abs(col - x);
        if (d < std::abs(best - x) || (d == std::abs(best - x) && col < best))
            best = col;
    }
    return best;
}

std::string
coordName(NodeCoord c)
{
    return strFormat("(%d,%d)", c.x, c.y);
}

} // namespace taqos
