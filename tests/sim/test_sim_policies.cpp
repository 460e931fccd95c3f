/// The QosPolicy layer, end to end: invariants every arbitration policy
/// must satisfy (flit conservation, eventual delivery below saturation),
/// bit-identity of the three legacy modes with the pre-refactor router
/// (golden digests recorded before the policy extraction), and the
/// qualitative guarantees of the three new policies — GSF's frame-bounded
/// interference, age-based starvation freedom, WRR's weight tracking.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/stats.h"
#include "core/experiments.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

/// Order-sensitive digest of a run's observable outcome: delivery and
/// preemption counts, latency statistics, and the full per-flow
/// throughput vector. Any behavioral drift in arbitration perturbs it.
/// The recorded golden values predate the extended digest fields, so
/// this suite pins the base form.
std::uint64_t
runDigest(const ColumnSim &sim)
{
    return metricsDigest(sim.metrics(), /*extended=*/false);
}

// ------------------------------------------------ cross-policy invariants

class PolicyInvariants : public testing::TestWithParam<QosMode> {};

TEST_P(PolicyInvariants, ConservesFlitsAndDrainsBelowSaturation)
{
    const QosMode mode = GetParam();
    for (auto kind : {TopologyKind::MeshX1, TopologyKind::Dps}) {
        const ColumnConfig col = paperColumn(kind, mode);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.03;
        traffic.genUntil = 6000;
        ColumnSim sim(col, traffic);
        sim.setMeasureWindow(0, 6000);

        // Eventual delivery: well below saturation, every policy drains.
        const Cycle done = sim.runUntilDrained(120000, 6000);
        ASSERT_NE(done, kNoCycle)
            << topologyName(kind) << "/" << qosModeName(mode);

        // Conservation: nothing lost, nothing duplicated — preemptions
        // (PVC) replay but never drop; gates (GSF) delay but never drop.
        const SimMetrics &m = sim.metrics();
        EXPECT_EQ(m.deliveredPackets, m.generatedPackets)
            << topologyName(kind) << "/" << qosModeName(mode);
        EXPECT_EQ(m.deliveredFlits, m.generatedFlits)
            << topologyName(kind) << "/" << qosModeName(mode);
        sim.checkInvariants();
    }
}

TEST_P(PolicyInvariants, SurvivesTheHotspotStressor)
{
    // Saturating hotspot: no policy may lose packets or corrupt VC state
    // even when most offered traffic cannot be delivered.
    const QosMode mode = GetParam();
    ColumnConfig col = paperColumn(TopologyKind::MeshX1, mode);
    const TrafficConfig traffic = makeHotspotAll(col, 0.05);
    ColumnSim sim(col, traffic);
    for (int i = 0; i < 10; ++i) {
        sim.run(1500);
        sim.checkInvariants();
    }
    EXPECT_GT(sim.metrics().deliveredPackets, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariants,
                         testing::ValuesIn(kAllQosModes),
                         [](const testing::TestParamInfo<QosMode> &info) {
                             std::string n = qosModeName(info.param);
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

// ----------------------------------------- legacy modes are bit-identical

/// Golden digests recorded at commit 57e7bee (immediately before the
/// QosPolicy extraction), pinning the refactored Pvc/PerFlowQueue/NoQos
/// policies to the pre-refactor Router::tick decision path bit for bit.
/// Scenario: uniform random at 0.08 flits/cycle/injector, default seed,
/// testPhases() with the measure window [2000, 8000).
struct GoldenRun {
    TopologyKind topology;
    QosMode mode;
    std::uint64_t digest;
};

TEST(PolicyBitIdentity, LegacyModesMatchPreRefactorTraces)
{
    const GoldenRun kGolden[] = {
        {TopologyKind::MeshX1, QosMode::Pvc, 0xdb5d626e2f8f86ecull},
        {TopologyKind::MeshX1, QosMode::PerFlowQueue, 0x41124f30225bb5b3ull},
        {TopologyKind::MeshX1, QosMode::NoQos, 0x536232518f088c92ull},
        {TopologyKind::Mecs, QosMode::Pvc, 0x00908d1036416d42ull},
        {TopologyKind::Mecs, QosMode::PerFlowQueue, 0x00908d1036416d42ull},
        {TopologyKind::Mecs, QosMode::NoQos, 0x10d83fe0575bc852ull},
        {TopologyKind::Dps, QosMode::Pvc, 0x37a02737709d1dbfull},
        {TopologyKind::Dps, QosMode::PerFlowQueue, 0x8559584087f31124ull},
        {TopologyKind::Dps, QosMode::NoQos, 0xe4e1ca26a278aedeull},
    };
    const RunPhases phases = testPhases();
    for (const GoldenRun &g : kGolden) {
        const ColumnConfig col = paperColumn(g.topology, g.mode);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.08;
        ColumnSim sim(col, traffic);
        sim.setMeasureWindow(phases.warmup, phases.measureEnd());
        sim.run(phases.total());
        EXPECT_EQ(runDigest(sim), g.digest)
            << topologyName(g.topology) << "/" << qosModeName(g.mode);
    }
}

TEST(PolicyBitIdentity, PvcPreemptionPathMatchesPreRefactorTraces)
{
    // Workload 1 run to completion — thousands of preemption events, so
    // the onAllocFail thresholds, victim selection and NACK/replay path
    // are all pinned (mesh_x4: 1872 events; DPS: 1611).
    const GoldenRun kGolden[] = {
        {TopologyKind::MeshX4, QosMode::Pvc, 0xdf027b606d1bee8full},
        {TopologyKind::Dps, QosMode::Pvc, 0xf4e9628629987740ull},
    };
    for (const GoldenRun &g : kGolden) {
        ColumnConfig col = paperColumn(g.topology, g.mode);
        TrafficConfig t = makeWorkload1(col);
        t.genUntil = 20000;
        ColumnSim sim(col, t);
        sim.setMeasureWindow(0, 20000);
        const Cycle done = sim.runUntilDrained(200000, 20000);
        ASSERT_NE(done, kNoCycle) << topologyName(g.topology);
        EXPECT_GT(sim.metrics().preemptionEvents, 1000u);
        EXPECT_EQ(runDigest(sim), g.digest) << topologyName(g.topology);
    }
}

// ------------------------------------------------- new-policy guarantees

TEST(GsfPolicy, FrameBudgetsBoundInterferenceFromAHog)
{
    // 63 well-behaved flows stream to the hotspot at a modest rate; one
    // source offers 0.8 flits/cycle (far past its share). GSF caps the
    // hog at its per-frame budget, so the victims keep (nearly) all of
    // their own throughput and the hog cannot claim the majority of the
    // ejection link.
    ColumnConfig col = paperColumn(TopologyKind::MeshX1, QosMode::Gsf);
    TrafficConfig traffic = makeHotspotAll(col, 0.01);
    traffic.flowRates.assign(static_cast<std::size_t>(col.numFlows()), -1.0);
    const FlowId hog = 63;
    traffic.flowRates[static_cast<std::size_t>(hog)] = 0.8;

    const Cycle warmup = 4000;
    const Cycle measure = 20000;
    ColumnSim sim(col, traffic);
    sim.setMeasureWindow(warmup, warmup + measure);
    sim.run(warmup + measure);
    sim.checkInvariants();

    const SimMetrics &m = sim.metrics();
    const double offered =
        0.01 * static_cast<double>(measure); // flits per victim flow
    double victimMin = -1.0;
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        if (f == hog)
            continue;
        const auto flits =
            static_cast<double>(m.flowFlits[static_cast<std::size_t>(f)]);
        if (victimMin < 0.0 || flits < victimMin)
            victimMin = flits;
    }
    // Every victim keeps >= 70% of its offered load despite the hog...
    EXPECT_GT(victimMin, 0.7 * offered);
    // ...because the hog's share is frame-capped, not demand-driven.
    const auto hogFlits =
        static_cast<double>(m.flowFlits[static_cast<std::size_t>(hog)]);
    EXPECT_LT(hogFlits, 0.5 * static_cast<double>(m.windowFlits()));
}

TEST(AgePolicy, StarvationFreeOnTheTable2Hotspot)
{
    // The Table 2 stressor that starves the locally-fair baseline: all 64
    // injectors stream to node 0. Oldest-first arbitration serves every
    // flow — the rotating arbiter's distance decay disappears.
    ColumnConfig col = paperColumn(TopologyKind::MeshX1, QosMode::AgeArb);
    const TrafficConfig traffic = makeHotspotAll(col, 0.05);
    ColumnSim sim(col, traffic);
    sim.setMeasureWindow(2000, 10000);
    sim.run(10000);

    RunningStat perFlow;
    for (auto flits : sim.metrics().flowFlits)
        perFlow.push(static_cast<double>(flits));
    EXPECT_GT(perFlow.min(), 0.0);
    EXPECT_GT(perFlow.min(), 0.5 * perFlow.mean());

    // The identical scenario under NoQos starves the distant flows (the
    // motivating result of ablation_noqos) — age-based must beat it.
    ColumnConfig noqos = paperColumn(TopologyKind::MeshX1, QosMode::NoQos);
    ColumnSim ref(noqos, traffic);
    ref.setMeasureWindow(2000, 10000);
    ref.run(10000);
    RunningStat refFlow;
    for (auto flits : ref.metrics().flowFlits)
        refFlow.push(static_cast<double>(flits));
    EXPECT_GT(perFlow.min(), refFlow.min());
}

TEST(WrrPolicy, TracksProvisionedWeightsAtSaturation)
{
    // Weighted flows on a saturated hotspot: delivered service must track
    // the provisioned weights within 10% per flow (the acceptance bound).
    ColumnConfig col = paperColumn(TopologyKind::MeshX1, QosMode::Wrr);
    std::vector<std::uint32_t> weights(
        static_cast<std::size_t>(col.numFlows()), 1);
    for (std::size_t f = 0; f < 8; ++f)
        weights[f] = 4; // node-0 flows get 4x provisioning
    col.pvc.setWeights(std::move(weights));
    const TrafficConfig traffic = makeHotspotAll(col, 0.05);

    const Cycle warmup = 5000;
    const Cycle measure = 40000;
    ColumnSim sim(col, traffic);
    sim.setMeasureWindow(warmup, warmup + measure);
    sim.run(warmup + measure);
    sim.checkInvariants();

    const SimMetrics &m = sim.metrics();
    const auto total = static_cast<double>(m.windowFlits());
    const auto sumW = static_cast<double>(col.pvc.sumWeights());
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        const double expected =
            total * static_cast<double>(col.pvc.weightOf(f)) / sumW;
        const auto got =
            static_cast<double>(m.flowFlits[static_cast<std::size_t>(f)]);
        EXPECT_NEAR(got, expected, 0.10 * expected) << "flow " << f;
    }
}

} // namespace
} // namespace taqos
