/// Fabric simulation: the one-chip anchor (a hand-built one-chip,
/// one-column fabric is metric-identical to ChipSim on the same seed),
/// cross-chip delivery over both link topologies, activity-driven vs
/// always-tick bit-identity up to the kilo-node scale, and recorded
/// fabric traces passing the independent checker's audit
/// byte-identically under both engines.
#include <gtest/gtest.h>

#include <string>

#include "core/experiments.h"
#include "sim/chip_sim.h"
#include "sim/fabric_sim.h"
#include "sim/trace_record.h"
#include "verify/checker.h"

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

FabricSpec
twoChipSpec()
{
    FabricSpec spec;
    spec.chips = 2;
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    spec.column.pvc.frameLen = 2000;
    return spec;
}

TEST(FabricEquivalence, OneChipOneColumnMatchesChipSimExactly)
{
    // The generalization anchor: restricted to one chip with one shared
    // column, the fabric must be cycle-identical to ChipSim in full-chip
    // mode — same generator streams, same origin queues, same handoffs.
    ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    col.pvc.frameLen = 2000;

    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.05;
    t.genUntil = 5000;

    ChipNetConfig cc;
    cc.column = col;
    ChipSim chip(cc, t);
    chip.setMeasureWindow(1000, 5000);

    FabricSpec spec;
    spec.column = col;
    FabricSim fab(spec, t);
    fab.setMeasureWindow(1000, 5000);

    for (int i = 0; i < 20000; ++i) {
        chip.step();
        fab.step();
    }
    expectMetricsIdentical(chip.metrics(), fab.metrics());
    EXPECT_EQ(chip.handoffs(), fab.handoffs());
    EXPECT_GT(fab.handoffs(), 0u);
    EXPECT_EQ(fab.linkHops(), 0u);
    EXPECT_EQ(chip.drained(), fab.drained());
    chip.checkInvariants();
    fab.checkInvariants();
}

TEST(FabricSimTest, TwoChipsDeliverEverythingAcrossTheLinks)
{
    FabricSpec spec = twoChipSpec();
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.02;
    t.genUntil = 4000;

    FabricSim sim(spec, t);
    const Cycle done = sim.runUntilDrained(120000, 4000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(sim.metrics().deliveredPackets,
              sim.metrics().generatedPackets);
    EXPECT_EQ(sim.metrics().deliveredFlits, sim.metrics().generatedFlits);
    EXPECT_GT(sim.handoffs(), 0u);
    EXPECT_GT(sim.linkHops(), 0u); // remote flows really crossed chips
    sim.checkInvariants();
}

TEST(FabricSimTest, RingTransitsForwardToTheRightChip)
{
    FabricSpec spec = twoChipSpec();
    spec.chips = 3;
    spec.links = LinkTopology::Ring;
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.015;
    t.genUntil = 3000;

    FabricSim sim(spec, t);
    const Cycle done = sim.runUntilDrained(150000, 3000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(sim.metrics().deliveredPackets,
              sim.metrics().generatedPackets);
    EXPECT_GT(sim.linkHops(), 0u);
    sim.checkInvariants();
}

TEST(FabricSimTest, MixedBlockPoliciesRunToDrain)
{
    FabricSpec spec;
    spec.chip.tilesX = 32;
    spec.chip.sharedColumns = {4, 12};
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    spec.columnModes = {QosMode::Pvc, QosMode::PerFlowQueue};
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.02;
    t.genUntil = 3000;

    FabricSim sim(spec, t);
    const Cycle done = sim.runUntilDrained(120000, 3000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(sim.metrics().deliveredPackets,
              sim.metrics().generatedPackets);
    sim.checkInvariants();
}

TEST(FabricEngines, TwoChipAlwaysTickIsBitIdentical)
{
    std::uint64_t digest[2] = {};
    std::uint64_t handoffs[2] = {}, linkHops[2] = {};
    for (int activity = 0; activity < 2; ++activity) {
        FabricSpec spec = twoChipSpec();
        TrafficConfig t;
        t.pattern = TrafficPattern::UniformRandom;
        t.injectionRate = 0.04;
        t.genUntil = 4000;
        FabricSim sim(spec, t);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 4000);
        const Cycle done = sim.runUntilDrained(120000, 4000);
        ASSERT_NE(done, kNoCycle) << "activity=" << activity;
        sim.checkInvariants();
        digest[activity] = metricsDigest(sim.metrics());
        handoffs[activity] = sim.handoffs();
        linkHops[activity] = sim.linkHops();
    }
    EXPECT_EQ(digest[1], digest[0]);
    EXPECT_EQ(handoffs[1], handoffs[0]);
    EXPECT_EQ(linkHops[1], linkHops[0]);
    EXPECT_GT(linkHops[1], 0u);
}

TEST(FabricEngines, KiloNodeFabricMatchesAlwaysTick)
{
    // The acceptance scale: 4 chips x 256 nodes = 1024 routers, every
    // shared column active, short phases to keep the suite fast.
    std::uint64_t digest[2] = {};
    for (int activity = 0; activity < 2; ++activity) {
        FabricSpec spec;
        spec.chips = 4;
        spec.chip.tilesX = 32;
        spec.chip.tilesY = 32;
        spec.chip.sharedColumns = {4, 12};
        spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
        TrafficConfig t;
        t.pattern = TrafficPattern::UniformRandom;
        t.injectionRate = 0.01;
        t.genUntil = 800;
        FabricSim sim(spec, t);
        ASSERT_GE(sim.net().numNodes(), 1024);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 800);
        const Cycle done = sim.runUntilDrained(60000, 800);
        ASSERT_NE(done, kNoCycle) << "activity=" << activity;
        sim.checkInvariants();
        digest[activity] = metricsDigest(sim.metrics());
    }
    EXPECT_EQ(digest[1], digest[0]);
}

TEST(FabricTrace, AlwaysTickTraceIsByteIdenticalAndAuditsClean)
{
    std::string serialized[2];
    for (int activity = 0; activity < 2; ++activity) {
        FabricSpec spec = twoChipSpec();
        TrafficConfig t;
        t.pattern = TrafficPattern::UniformRandom;
        t.injectionRate = 0.05;
        t.genUntil = 4000;
        FabricSim sim(spec, t);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 4000);
        TraceRecorder rec(describeFabric(sim.network()));
        rec.setMeasureWindow(0, 4000);
        sim.attachTraceSink(&rec);

        const Cycle done = sim.runUntilDrained(120000, 4000);
        ASSERT_NE(done, kNoCycle);
        rec.finish(sim.now(), sim.drained());

        const CheckReport report = verifyTrace(rec.trace());
        EXPECT_TRUE(report.ok()) << report.firstDiagnostic();
        EXPECT_GT(report.eventsChecked, 1000u);
        serialized[activity] = serializeFlitTrace(rec.trace());
    }
    EXPECT_EQ(serialized[1], serialized[0]);
}

TEST(FabricConsolidation, ExperimentDrainsAndServesEveryVm)
{
    FabricConsolidationConfig cfg;
    cfg.chips = 2;
    cfg.ratePerNode = 0.03;
    cfg.phases = RunPhases{500, 2000, 1000};

    const FabricConsolidationResult res = runFabricConsolidation(cfg);
    ASSERT_NE(res.drainCycle, kNoCycle);
    EXPECT_EQ(res.nodes, 2 * 64);
    EXPECT_GT(res.deliveredPackets, 0u);
    EXPECT_GT(res.handoffs, 0u);
    EXPECT_GT(res.linkHops, 0u);

    // Every admitted VM on every chip got service, and both chips carry
    // the same three-VM mix.
    ASSERT_EQ(res.vms.size(), 6u);
    for (const auto &vm : res.vms) {
        EXPECT_GT(vm.flits, 0u) << "chip " << vm.chip << " vm " << vm.vmId;
        EXPECT_GT(vm.domainNodes, 0u);
        EXPECT_GT(vm.flitsPerNode, 0.0);
    }
}

} // namespace
} // namespace taqos
