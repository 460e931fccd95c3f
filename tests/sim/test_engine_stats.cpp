/// Pinned engine work counts (NetSim::engineStats) on three cells: the
/// paper DPS/PVC column at 0.12 uniform load, a MECS/PVC column under
/// the all-nodes hotspot at 0.10, and the two-chip DPS/PVC fabric at
/// 0.05. The counts are exact and deterministic. `routerTicks` and
/// `hops` follow the network's behaviour, so they move only when a
/// digest would; `outputScans` is the engine's own work, and a change
/// that makes the activity engine rescan less lowers it. `ejections`
/// counts the ejection due-list entries visited: none of the three
/// cells preempts, so each is one delivery or handoff and no entry is
/// stale.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/experiments.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

struct StatsPin {
    std::uint64_t routerTicks;
    std::uint64_t outputScans;
    std::uint64_t hops;
    std::uint64_t ejections;
};

constexpr const char *kCells[3] = {"dps_pvc_uniform_0.12",
                                   "mecs_pvc_hotspot_0.10",
                                   "fabric2_dps_pvc_0.05"};

/// Activity-engine counts per cell, in kCells order. Scheduling a new
/// slot's scan at its eligibility, instead of dirtying its output,
/// lowered outputScans from 86914, 5980 and 137479 (scans per hop 2.31,
/// 1.96 and 2.59 to 1.80, 1.76 and 1.90); routerTicks and hops did not
/// move. The fabric's 16072 ejections are 8501 deliveries and 7571
/// handoffs.
constexpr StatsPin kPins[3] = {
    {26004, 67555, 37584, 9421},
    {31919, 5359, 3051, 1583},
    {131375, 100480, 53000, 16072},
};

EngineStats
runCell(std::size_t cell, bool activityDriven)
{
    if (cell == 2) {
        FabricSpec spec;
        spec.chips = 2;
        spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
        spec.column.pvc.frameLen = 2000;
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.05;
        traffic.genUntil = 3000;
        FabricSim sim(spec, traffic);
        sim.configure({.activityDriven = activityDriven});
        EXPECT_NE(sim.runUntilDrained(100000, traffic.genUntil), kNoCycle);
        sim.checkInvariants();
        return sim.engineStats();
    }
    ColumnConfig col = paperColumn(
        cell == 0 ? TopologyKind::Dps : TopologyKind::Mecs, QosMode::Pvc);
    col.pvc.frameLen = 1000; // frame flushes inside the run
    TrafficConfig traffic;
    if (cell == 0) {
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.12;
    } else {
        traffic = makeHotspotAll(col, 0.10);
    }
    traffic.genUntil = 3000;
    traffic.seed = 7;
    ColumnSim sim(col, traffic);
    sim.configure({.activityDriven = activityDriven});
    sim.run(4000);
    sim.checkInvariants();
    return sim.engineStats();
}

TEST(EngineStats, CountsMatchThePins)
{
    for (std::size_t c = 0; c < 3; ++c) {
        const EngineStats s = runCell(c, true);
        EXPECT_EQ(s.routerTicks, kPins[c].routerTicks) << kCells[c];
        EXPECT_EQ(s.outputScans, kPins[c].outputScans) << kCells[c];
        EXPECT_EQ(s.hops, kPins[c].hops) << kCells[c];
        EXPECT_EQ(s.ejections, kPins[c].ejections) << kCells[c];
    }
}

TEST(EngineStats, HopsAreEqualUnderBothEngines)
{
    for (std::size_t c = 0; c < 3; ++c) {
        const EngineStats activity = runCell(c, true);
        const EngineStats legacy = runCell(c, false);
        EXPECT_EQ(activity.hops, legacy.hops) << kCells[c];
        EXPECT_GT(activity.hops, 0u) << kCells[c];
        // The always-tick engine ticks every router every cycle, makes
        // no per-output scans and scans every ejection buffer instead
        // of visiting the due list.
        EXPECT_EQ(legacy.outputScans, 0u) << kCells[c];
        EXPECT_EQ(legacy.ejections, 0u) << kCells[c];
        EXPECT_LT(activity.routerTicks, legacy.routerTicks) << kCells[c];
    }
}

} // namespace
} // namespace taqos
