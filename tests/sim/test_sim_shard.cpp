/// The sharded engine: bit-identity with the serial engines across every
/// QOS policy, topology and engine selection (the speculative scan, the
/// deferred-admission GSF path and the delayed region sweep are all
/// exact); the preemption-heavy adversarial workload; the whole-chip
/// simulator; byte-identical flit traces that pass the independent
/// checker's audit; and the deterministic partition/budget planners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/experiments.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "sim/shard_plan.h"
#include "sim/trace_record.h"
#include "traffic/workloads.h"
#include "verify/checker.h"

namespace taqos {
namespace {

std::uint64_t
runDigest(const NetSim &sim)
{
    return metricsDigest(sim.metrics());
}

void
expectQuiescent(const NetSim &sim)
{
    sim.checkInvariants();
    const Network &net = sim.net();
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        EXPECT_FALSE(net.router(n)->hasWork()) << "router " << n;
    }
}

// ------------------------------------------------------ partition plan

TEST(ShardPlan, RangesAreContiguousNonEmptyAndCovering)
{
    const std::vector<std::uint64_t> weights(10, 7);
    const auto ranges = planShardRanges(weights, 4);
    ASSERT_EQ(ranges.size(), 4u);
    NodeId expectBegin = 0;
    for (const auto &[begin, end] : ranges) {
        EXPECT_EQ(begin, expectBegin);
        EXPECT_LT(begin, end);
        expectBegin = end;
    }
    EXPECT_EQ(expectBegin, 10);
}

TEST(ShardPlan, UniformWeightsSplitEvenly)
{
    const std::vector<std::uint64_t> weights(8, 5);
    const auto ranges = planShardRanges(weights, 4);
    ASSERT_EQ(ranges.size(), 4u);
    for (const auto &[begin, end] : ranges)
        EXPECT_EQ(end - begin, 2);
}

TEST(ShardPlan, SkewedWeightsBalanceByWeightNotCount)
{
    // One heavy node up front: it should get a region of its own.
    std::vector<std::uint64_t> weights(9, 1);
    weights[0] = 100;
    const auto ranges = planShardRanges(weights, 2);
    ASSERT_EQ(ranges.size(), 2u);
    EXPECT_EQ(ranges[0].second, 1);
    EXPECT_EQ(ranges[1].second, 9);
}

TEST(ShardPlan, MoreShardsThanNodesDegradesToOnePerNode)
{
    const std::vector<std::uint64_t> weights(3, 1);
    const auto ranges = planShardRanges(weights, 8);
    ASSERT_EQ(ranges.size(), 3u);
    for (int n = 0; n < 3; ++n) {
        EXPECT_EQ(ranges[static_cast<std::size_t>(n)].first, n);
        EXPECT_EQ(ranges[static_cast<std::size_t>(n)].second, n + 1);
    }
}

// ----------------------------------------------------- kilo-node plans

TEST(ShardPlan, KiloNodeWeightedPartitionBalancesEveryRegion)
{
    // 1200 nodes with a deterministic non-uniform weight texture.
    std::vector<std::uint64_t> weights;
    std::uint64_t total = 0;
    for (int n = 0; n < 1200; ++n) {
        weights.push_back(1 + static_cast<std::uint64_t>(n * 7919) % 13);
        total += weights.back();
    }
    const std::uint64_t maxW =
        *std::max_element(weights.begin(), weights.end());

    for (int shards : {2, 4, 8, 16}) {
        const auto ranges = planShardRanges(weights, shards);
        ASSERT_EQ(ranges.size(), static_cast<std::size_t>(shards));
        NodeId expectBegin = 0;
        const std::uint64_t ideal =
            total / static_cast<std::uint64_t>(shards);
        for (const auto &[begin, end] : ranges) {
            EXPECT_EQ(begin, expectBegin);
            ASSERT_LT(begin, end);
            expectBegin = end;
            std::uint64_t region = 0;
            for (NodeId n = begin; n < end; ++n)
                region += weights[static_cast<std::size_t>(n)];
            // A greedy prefix cut can miss the ideal share by at most
            // one node's weight on either side.
            EXPECT_LE(region, ideal + maxW) << "shards " << shards;
            EXPECT_GE(region + maxW, ideal) << "shards " << shards;
        }
        EXPECT_EQ(expectBegin, 1200);
    }
}

TEST(ShardPlan, KiloNodeUnevenRegionsNeverStackTwoSpikes)
{
    // A few very heavy nodes in a sea of light ones (the shape of block
    // nodes vs compute nodes). The greedy cut guarantees a region never
    // overshoots its ideal share by more than one node's weight — so no
    // region can absorb two spikes, and region sizes go very uneven.
    std::vector<std::uint64_t> weights(1100, 1);
    std::uint64_t total = 0;
    for (std::size_t n = 100; n < weights.size(); n += 250)
        weights[n] = 2000;
    for (std::uint64_t w : weights)
        total += w;
    const std::uint64_t ideal = total / 8;
    ASSERT_LT(ideal + 2000, 2 * 2000); // the bound excludes double spikes

    const auto ranges = planShardRanges(weights, 8);
    ASSERT_EQ(ranges.size(), 8u);
    EXPECT_EQ(ranges.back().second, 1100);
    NodeId minSize = 1100, maxSize = 0;
    for (const auto &[begin, end] : ranges) {
        ASSERT_LT(begin, end);
        std::uint64_t region = 0;
        std::size_t spikes = 0;
        for (NodeId n = begin; n < end; ++n) {
            region += weights[static_cast<std::size_t>(n)];
            spikes += weights[static_cast<std::size_t>(n)] == 2000;
        }
        EXPECT_LE(region, ideal + 2000);
        EXPECT_LE(spikes, 1u);
        minSize = std::min(minSize, end - begin);
        maxSize = std::max(maxSize, end - begin);
    }
    // Spike regions stay node-poor, all-light regions node-rich.
    EXPECT_LT(minSize * 2, maxSize);
}

TEST(ShardPlan, MultiChipFabricWeightsSpanTheWholeIdSpace)
{
    // The real kilo-node structure: 4 chips x 16x16 nodes x 2 shared
    // columns. Block nodes carry the per-flow injector queues and so
    // must weigh more than compute nodes; the planner must still cover
    // the full multi-chip node-id space with contiguous regions.
    FabricSpec spec;
    spec.chips = 4;
    spec.chip.tilesX = 32;
    spec.chip.tilesY = 32;
    spec.chip.sharedColumns = {4, 12};
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    const auto net = FabricNetwork::build(spec);

    const auto weights = shardWeights(*net);
    ASSERT_EQ(weights.size(), 1024u);
    std::uint64_t blockW = 0, blockN = 0, computeW = 0, computeN = 0;
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        if (net->isBlockNode(n)) {
            blockW += weights[static_cast<std::size_t>(n)];
            ++blockN;
        } else {
            computeW += weights[static_cast<std::size_t>(n)];
            ++computeN;
        }
    }
    EXPECT_GT(blockW / blockN, computeW / computeN);

    for (int shards : {4, 8}) {
        const auto ranges = planShardRanges(weights, shards);
        ASSERT_EQ(ranges.size(), static_cast<std::size_t>(shards));
        NodeId expectBegin = 0;
        for (const auto &[begin, end] : ranges) {
            EXPECT_EQ(begin, expectBegin);
            EXPECT_LT(begin, end);
            expectBegin = end;
        }
        EXPECT_EQ(expectBegin, net->numNodes());
    }

    // Weight-balanced regions put more routers in compute-heavy spans:
    // with 8 regions over 4 chips, region sizes must differ (a plain
    // node-count split would make them all 128).
    const auto ranges = planShardRanges(weights, 8);
    bool uneven = false;
    for (const auto &[begin, end] : ranges)
        uneven = uneven || (end - begin != 128);
    EXPECT_TRUE(uneven);
}

// ------------------------------------------------- sweep thread budget

TEST(ShardPlan, SweepBudgetDividesMachineByShards)
{
    // Auto (threads <= 0): the machine split across per-run shards.
    EXPECT_EQ(sweepWorkerBudget(0, 100, 4, 16), 4);
    EXPECT_EQ(sweepWorkerBudget(0, 100, 1, 16), 16);
    // An explicit request is honoured up to that same cap.
    EXPECT_EQ(sweepWorkerBudget(2, 100, 4, 16), 2);
    EXPECT_EQ(sweepWorkerBudget(8, 100, 4, 16), 4);
    // Never more workers than cells, never fewer than one.
    EXPECT_EQ(sweepWorkerBudget(0, 3, 1, 16), 3);
    EXPECT_EQ(sweepWorkerBudget(0, 100, 8, 4), 1);
    EXPECT_EQ(sweepWorkerBudget(0, 0, 1, 0), 1);
    // Kilo-cell sweeps of kilo-node fabrics: workers x shards still
    // never exceeds the machine.
    EXPECT_EQ(sweepWorkerBudget(0, 1024, 8, 64), 8);
    EXPECT_EQ(sweepWorkerBudget(16, 1024, 8, 64), 8);
    EXPECT_EQ(sweepWorkerBudget(0, 1024, 1, 64), 64);
}

// -------------------------------------------------- toggle equivalence

struct ShardCase {
    TopologyKind topology;
    QosMode mode;
    bool activity;
};

class ShardEquivalence : public ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardEquivalence, ShardedEngineIsBitIdenticalToSerial)
{
    // The serial reference runs the case's engine (`tick` = the
    // always-tick oracle); the sharded run is always activity-driven,
    // the only engine that shards.
    const ShardCase &tc = GetParam();
    const RunPhases phases = testPhases();
    std::uint64_t digests[2] = {0, 0};
    for (int sharded = 0; sharded < 2; ++sharded) {
        const ColumnConfig col = paperColumn(tc.topology, tc.mode);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.08;
        ColumnSim sim(col, traffic);
        EngineConfig ec;
        ec.activityDriven = tc.activity;
        if (sharded == 1) {
            ec.activityDriven = true;
            ec.shards = 4;
            ec.shardMinActive = 0; // exercise the pool every cycle
        }
        sim.configure(ec);
        sim.setMeasureWindow(phases.warmup, phases.measureEnd());
        sim.run(phases.total());
        sim.checkInvariants();
        digests[sharded] = runDigest(sim);
    }
    EXPECT_EQ(digests[0], digests[1])
        << topologyName(tc.topology) << "/" << qosModeName(tc.mode)
        << (tc.activity ? "/event" : "/tick");
}

std::vector<ShardCase>
shardCases()
{
    std::vector<ShardCase> cases;
    for (auto kind : {TopologyKind::MeshX1, TopologyKind::Mecs,
                      TopologyKind::Dps}) {
        for (QosMode mode : kAllQosModes) {
            cases.push_back(ShardCase{kind, mode, /*activity=*/true});
            cases.push_back(ShardCase{kind, mode, /*activity=*/false});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ShardEquivalence, ::testing::ValuesIn(shardCases()),
    [](const ::testing::TestParamInfo<ShardCase> &info) {
        std::string n = std::string(topologyName(info.param.topology)) +
                        "_" + qosModeName(info.param.mode) +
                        (info.param.activity ? "_event" : "_tick");
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(ShardEquivalence, UnevenAndSingleNodeRegionCountsMatch)
{
    // shards=3 leaves uneven regions; shards=8 puts every node of the
    // 8-node column in a region of its own (the boundary-heavy extreme).
    const RunPhases phases = testPhases();
    std::uint64_t serial = 0;
    for (int shards : {1, 3, 8}) {
        const ColumnConfig col =
            paperColumn(TopologyKind::MeshX1, QosMode::Pvc);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.10;
        ColumnSim sim(col, traffic);
        if (shards > 1)
            sim.configure({.shards = shards, .shardMinActive = 0});
        sim.setMeasureWindow(phases.warmup, phases.measureEnd());
        sim.run(phases.total());
        sim.checkInvariants();
        if (shards == 1)
            serial = runDigest(sim);
        else
            EXPECT_EQ(runDigest(sim), serial) << "shards=" << shards;
    }
}

TEST(ShardEquivalence, PreemptionHeavyWorkloadMatches)
{
    std::uint64_t digests[2] = {0, 0};
    Cycle done[2] = {0, 0};
    for (int sharded = 0; sharded < 2; ++sharded) {
        ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
        TrafficConfig t = makeWorkload1(col);
        t.genUntil = 20000;
        ColumnSim sim(col, t);
        if (sharded == 1)
            sim.configure({.shards = 4, .shardMinActive = 0});
        sim.setMeasureWindow(0, 20000);
        done[sharded] = sim.runUntilDrained(200000, 20000);
        ASSERT_NE(done[sharded], kNoCycle);
        EXPECT_GT(sim.metrics().preemptionEvents, 1000u);
        digests[sharded] = runDigest(sim);
        expectQuiescent(sim);
    }
    EXPECT_EQ(done[0], done[1]);
    EXPECT_EQ(digests[0], digests[1]);
}

TEST(ShardEquivalence, WholeChipSimulationMatches)
{
    std::uint64_t digests[2] = {0, 0};
    std::uint64_t handoffs[2] = {0, 0};
    for (int sharded = 0; sharded < 2; ++sharded) {
        ChipNetConfig cc;
        cc.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
        cc.column.pvc.frameLen = 2000;
        TrafficConfig t;
        t.pattern = TrafficPattern::UniformRandom;
        t.injectionRate = 0.05;
        t.genUntil = 5000;
        ChipSim sim(cc, t);
        if (sharded == 1)
            sim.configure({.shards = 4, .shardMinActive = 0});
        sim.setMeasureWindow(0, 5000);
        const Cycle done = sim.runUntilDrained(120000, 5000);
        ASSERT_NE(done, kNoCycle);
        digests[sharded] = runDigest(sim);
        handoffs[sharded] = sim.handoffs();
        expectQuiescent(sim);
    }
    EXPECT_GT(handoffs[1], 0u);
    EXPECT_EQ(handoffs[0], handoffs[1]);
    EXPECT_EQ(digests[0], digests[1]);
}

// ------------------------------------------- recorded traces and audit

TEST(ShardTrace, ShardedTraceIsByteIdenticalAndAuditsClean)
{
    // A preemption-heavy PVC cell recorded under both engines: the
    // sharded run's flit trace must serialize to the same bytes as the
    // serial run's, and replay clean through the independent checker.
    std::string serialized[2];
    for (int sharded = 0; sharded < 2; ++sharded) {
        ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
        TrafficConfig t = makeWorkload1(col);
        t.genUntil = 20000;
        ColumnSim sim(col, t);
        if (sharded == 1)
            sim.configure({.shards = 4, .shardMinActive = 0});
        sim.setMeasureWindow(0, 20000);
        TraceRecorder rec(describeColumn(sim.cfg()));
        rec.setMeasureWindow(0, 20000);
        sim.attachTraceSink(&rec);

        const Cycle done = sim.runUntilDrained(200000, 20000);
        ASSERT_NE(done, kNoCycle);
        rec.finish(sim.now(), sim.drained());
        EXPECT_GT(sim.metrics().preemptionEvents, 1000u);

        const CheckReport report = verifyTrace(rec.trace());
        EXPECT_TRUE(report.ok()) << report.firstDiagnostic();
        EXPECT_GT(report.eventsChecked, 1000u);
        serialized[sharded] = serializeFlitTrace(rec.trace());
    }
    EXPECT_EQ(serialized[0], serialized[1]);
}

} // namespace
} // namespace taqos
