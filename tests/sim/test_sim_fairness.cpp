/// Fairness properties of PVC arbitration: equal shares on the full
/// hotspot, weighted differentiation, and the no-QOS starvation baseline.
#include <gtest/gtest.h>

#include <string>

#include "common/stats.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

RunningStat
hotspotShares(ColumnConfig col, Cycle measure = 50000)
{
    const TrafficConfig t = makeHotspotAll(col, 0.05);
    ColumnSim sim(col, t);
    sim.setMeasureWindow(10000, 10000 + measure);
    sim.run(10000 + measure);
    RunningStat rs;
    for (auto flits : sim.metrics().flowFlits)
        rs.push(static_cast<double>(flits));
    return rs;
}

class SimFairness : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(SimFairness, PvcEqualizesHotspotShares)
{
    ColumnConfig col;
    col.topology = GetParam();
    const RunningStat rs = hotspotShares(col);
    ASSERT_GT(rs.mean(), 0.0);
    // Table 2: max deviation from the mean within ~2%, stddev ~1%.
    EXPECT_GT(rs.min() / rs.mean(), 0.97);
    EXPECT_LT(rs.max() / rs.mean(), 1.03);
    EXPECT_LT(rs.stddev() / rs.mean(), 0.015);
}

TEST_P(SimFairness, EjectionFullyUtilized)
{
    ColumnConfig col;
    col.topology = GetParam();
    const RunningStat rs = hotspotShares(col);
    // 64 flows share 1 flit/cycle for 50000 cycles.
    EXPECT_NEAR(rs.sum(), 50000.0, 2500.0);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, SimFairness,
                         ::testing::ValuesIn(kAllTopologies),
                         [](const auto &info) {
                             return std::string(topologyName(info.param));
                         });

TEST(SimFairnessWeights, WeightedFlowsGetProportionalService)
{
    // The OS programs per-flow weights (Sec. 2.2): node 1's flows get 3x
    // the provisioned rate; under full backlog their service should be
    // ~3x a weight-1 flow's.
    ColumnConfig col;
    col.topology = TopologyKind::Mecs;
    col.canonicalize();
    std::vector<std::uint32_t> weights(
        static_cast<std::size_t>(col.numFlows()), 1);
    for (int k = 0; k < col.injectorsPerNode; ++k)
        weights[static_cast<std::size_t>(col.flowOf(1, k))] = 3;
    col.pvc.setWeights(std::move(weights));

    const TrafficConfig t = makeHotspotAll(col, 0.08);
    ColumnSim sim(col, t);
    sim.setMeasureWindow(10000, 60000);
    sim.run(60000);

    double heavy = 0.0, light = 0.0;
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        const double flits = static_cast<double>(
            sim.metrics().flowFlits[static_cast<std::size_t>(f)]);
        if (col.nodeOfFlow(f) == 1)
            heavy += flits;
        else
            light += flits;
    }
    heavy /= 8.0;  // per heavy flow
    light /= 56.0; // per light flow
    EXPECT_NEAR(heavy / light, 3.0, 0.45);
}

TEST(SimFairnessNoQos, DistantNodesStarve)
{
    // The motivating result (Sec. 5.3): without QOS, locally-fair
    // arbitration hands sources near the hotspot a disproportionate share
    // and distant nodes are essentially starved.
    ColumnConfig col;
    col.topology = TopologyKind::MeshX1;
    col.mode = QosMode::NoQos;
    const TrafficConfig t = makeHotspotAll(col, 0.05);
    ColumnSim sim(col, t);
    sim.setMeasureWindow(10000, 60000);
    sim.run(60000);

    std::vector<double> nodeFlits(8, 0.0);
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        nodeFlits[static_cast<std::size_t>(col.nodeOfFlow(f))] +=
            static_cast<double>(
                sim.metrics().flowFlits[static_cast<std::size_t>(f)]);
    }
    // Node 0 (local) dwarfs node 7 (distant).
    EXPECT_GT(nodeFlits[0], 4.0 * nodeFlits[7]);
    // And the decay is monotonic-ish along the chain.
    EXPECT_GT(nodeFlits[1], nodeFlits[5]);
}

TEST(SimFairnessNoQos, PvcRestoresEquality)
{
    ColumnConfig col;
    col.topology = TopologyKind::MeshX1;
    col.mode = QosMode::Pvc;
    const RunningStat rs = hotspotShares(col);
    EXPECT_LT(rs.stddev() / rs.mean(), 0.015);
}

} // namespace
} // namespace taqos
