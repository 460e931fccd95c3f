/// Whole-chip simulation: the column-equivalence anchor (a ChipSim whose
/// traffic comes only from the column's own terminal flows leaves the
/// rows idle and is metric-identical to ColumnSim on the same seed),
/// full-chip delivery guarantees, and structural invariants after every
/// scenario.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/experiments.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

void
expectMetricsIdentical(const SimMetrics &a, const SimMetrics &b)
{
    EXPECT_EQ(a.generatedPackets, b.generatedPackets);
    EXPECT_EQ(a.generatedFlits, b.generatedFlits);
    EXPECT_EQ(a.measuredGenerated, b.measuredGenerated);
    EXPECT_EQ(a.injectedAttempts, b.injectedAttempts);
    EXPECT_EQ(a.deliveredPackets, b.deliveredPackets);
    EXPECT_EQ(a.deliveredFlits, b.deliveredFlits);
    EXPECT_EQ(a.preemptionEvents, b.preemptionEvents);
    EXPECT_DOUBLE_EQ(a.usefulHops, b.usefulHops);
    EXPECT_DOUBLE_EQ(a.wastedHops, b.wastedHops);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
    ASSERT_EQ(a.flowFlits.size(), b.flowFlits.size());
    for (std::size_t f = 0; f < a.flowFlits.size(); ++f)
        EXPECT_EQ(a.flowFlits[f], b.flowFlits[f]) << "flow " << f;
}

/// `t` restricted to the column's terminal flows (injector 0 of every
/// column node): the compute nodes stay silent, so the rows carry nothing.
TrafficConfig
terminalFlowsOnly(TrafficConfig t, const ColumnConfig &col)
{
    std::vector<bool> active(static_cast<std::size_t>(col.numFlows()), false);
    for (NodeId node = 0; node < col.numNodes; ++node) {
        const FlowId f = col.flowOf(node, 0);
        active[static_cast<std::size_t>(f)] = t.flowActive(f);
    }
    t.activeFlows = std::move(active);
    return t;
}

class ChipEquivalence : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(ChipEquivalence, SingleColumnMatchesColumnSimExactly)
{
    ColumnConfig col;
    col.topology = GetParam();
    col.mode = QosMode::Pvc;
    col.pvc.frameLen = 2000; // cross several frame boundaries

    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.06;
    t.genUntil = 6000;
    t = terminalFlowsOnly(t, col);

    ColumnSim ref(col, t);
    ref.setMeasureWindow(1000, 5000);

    ChipNetConfig cc;
    cc.column = col;
    ChipSim chip(cc, t);
    chip.setMeasureWindow(1000, 5000);

    for (int i = 0; i < 9000; ++i) {
        ref.step();
        chip.step();
    }
    expectMetricsIdentical(ref.metrics(), chip.metrics());
    EXPECT_EQ(chip.handoffs(), 0u); // the rows really were idle
    EXPECT_EQ(ref.drained(), chip.drained());
    ref.checkInvariants();
    chip.checkInvariants();
}

TEST_P(ChipEquivalence, HotspotPreemptionsMatchExactly)
{
    // Saturating hotspot: exercises PVC preemption, NACK replay and the
    // reserved quota — the hardest state to keep cycle-identical.
    ColumnConfig col;
    col.topology = GetParam();
    col.mode = QosMode::Pvc;
    col.pvc.frameLen = 3000;
    TrafficConfig t = terminalFlowsOnly(makeHotspotAll(col, 0.05), col);
    t.genUntil = 5000;

    ColumnSim ref(col, t);
    ChipNetConfig cc;
    cc.column = col;
    ChipSim chip(cc, t);

    for (int i = 0; i < 8000; ++i) {
        ref.step();
        chip.step();
    }
    expectMetricsIdentical(ref.metrics(), chip.metrics());
    EXPECT_GT(chip.metrics().preemptionEvents, 0u);
    EXPECT_EQ(chip.handoffs(), 0u);
    ref.checkInvariants();
    chip.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ChipEquivalence,
                         ::testing::ValuesIn(kAllTopologies),
                         [](const auto &info) {
                             return std::string(topologyName(info.param));
                         });

class ChipSimTest : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(ChipSimTest, FullChipLowLoadDeliversEverything)
{
    ChipNetConfig cc;
    cc.column.topology = GetParam();
    cc.column.mode = QosMode::Pvc;

    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.02;
    t.genUntil = 5000;

    ChipSim sim(cc, t);
    const Cycle done = sim.runUntilDrained(60000, 5000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(sim.metrics().deliveredPackets,
              sim.metrics().generatedPackets);
    EXPECT_EQ(sim.metrics().deliveredFlits, sim.metrics().generatedFlits);
    // Row-injector traffic really crossed the row meshes.
    EXPECT_GT(sim.handoffs(), 0u);
    sim.checkInvariants();
}

TEST_P(ChipSimTest, FullChipHotspotKeepsInvariantsUnderPressure)
{
    ChipNetConfig cc;
    cc.column.topology = GetParam();
    cc.column.mode = QosMode::Pvc;
    cc.column.pvc.frameLen = 2500;

    TrafficConfig t = makeHotspotAll(cc.column, 0.05);
    t.genUntil = 6000;

    ChipSim sim(cc, t);
    for (int chunk = 0; chunk < 8; ++chunk) {
        sim.run(1000);
        sim.checkInvariants();
    }
    EXPECT_GT(sim.metrics().deliveredPackets, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ChipSimTest,
                         ::testing::ValuesIn(kAllTopologies),
                         [](const auto &info) {
                             return std::string(topologyName(info.param));
                         });

TEST(ChipSimLatency, RowSegmentAddsEndToEndLatency)
{
    // The same traffic measured end to end from the compute nodes must be
    // slower than when injected at the column boundary: the row segment
    // is real simulated work, not an accounting fiction.
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    TrafficConfig t;
    t.injectionRate = 0.04;
    t.genUntil = 6000;

    ColumnSim fast(col, t);
    fast.setMeasureWindow(1000, 6000);
    fast.runUntilDrained(40000, 6000);

    ChipNetConfig cc;
    cc.column = col;
    ChipSim slow(cc, t);
    slow.setMeasureWindow(1000, 6000);
    const Cycle done = slow.runUntilDrained(60000, 6000);
    ASSERT_NE(done, kNoCycle);

    EXPECT_GT(slow.metrics().latency.mean(),
              fast.metrics().latency.mean() + 1.0);
    fast.checkInvariants();
    slow.checkInvariants();
}

TEST(ChipConsolidation, ConsolidatedServerRunsToDrainWithQosColumn)
{
    FabricConsolidationConfig cfg;
    cfg.chips = 1;
    cfg.phases = testPhases();
    const FabricConsolidationResult res = runFabricConsolidation(cfg);
    ASSERT_NE(res.drainCycle, kNoCycle);
    EXPECT_GT(res.deliveredPackets, 0u);
    EXPECT_GT(res.handoffs, 0u);
    ASSERT_EQ(res.vms.size(), 3u);
    for (const auto &vm : res.vms) {
        EXPECT_GT(vm.flits, 0u) << "VM " << vm.vmId;
        EXPECT_GT(vm.domainNodes, 0u) << "VM " << vm.vmId;
    }
    // Weights are 4:2:1 — under uncongested uniform load every VM gets
    // its demand, so per-node service is within the same ballpark; the
    // ordering assertion belongs to saturated scenarios (bench).
}

} // namespace
} // namespace taqos
