/// Every arbitration slot caches what the activity scan reads of its
/// candidate: the packet, its eligibility cycle, age, flow and whether
/// the port reuses the carried priority. NetSim::checkInvariants
/// compares each slot with the live VC or injector head
/// (Router::checkSlots) and checks that a slot not yet eligible has its
/// output's scan scheduled. These runs call it after every cycle, under
/// all six policies and both engines, on a mesh_x4 column saturated by a
/// skewed hotspot trace on which PVC preempts.
#include <gtest/gtest.h>

#include "core/experiments.h"
#include "sim/column_sim.h"
#include "traffic/trace.h"

namespace taqos {
namespace {

/// Nodes 1..7 each send 4-flit packets from injector 0 to node 0, node
/// n once every 36 - 4n cycles (every 32 cycles for node 1, every 8 for
/// node 7).
TrafficTrace
skewedHotspot(const ColumnConfig &col, Cycle cycles)
{
    TrafficTrace trace;
    for (Cycle c = 0; c < cycles; ++c) {
        for (int n = 1; n <= 7; ++n) {
            if ((c + static_cast<Cycle>(n)) %
                    static_cast<Cycle>(36 - 4 * n) ==
                0) {
                trace.append({c, col.flowOf(n, 0), 0, 4});
            }
        }
    }
    return trace;
}

TEST(ArbSlots, MatchLiveStateEveryCycleUnderEveryPolicy)
{
    for (QosMode mode : kAllQosModes) {
        for (bool activity : {true, false}) {
            const ColumnConfig col =
                paperColumn(TopologyKind::MeshX4, mode);
            ColumnSim sim(col, skewedHotspot(col, 12000));
            sim.configure({.activityDriven = activity});
            for (Cycle c = 0; c < 16000; ++c) {
                sim.step();
                sim.checkInvariants();
            }
            EXPECT_GT(sim.metrics().deliveredPackets, 0u)
                << qosModeName(mode);
            if (mode == QosMode::Pvc) {
                EXPECT_GT(sim.metrics().preemptionEvents, 0u);
            }
        }
    }
}

} // namespace
} // namespace taqos
