/// Pinned multi-chip behaviour: the metric digest, boundary handoffs and
/// inter-chip link hops of one run on each multi-block fabric shape —
/// two chips over point-to-point links, a three-chip ring, three shared
/// columns per chip, the 4-chip, 1024-router fabric, a weighted
/// two-chip consolidation, and that consolidation on two blocks per chip
/// under bursty and ramp traffic. Any drift means the fabric's cycle
/// behaviour moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "core/experiments.h"
#include "sim/fabric_sim.h"

namespace taqos {
namespace {

struct FabricPin {
    std::uint64_t digest;
    std::uint64_t handoffs;
    std::uint64_t linkHops;
};

TrafficConfig
uniform(double rate, Cycle genUntil)
{
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = rate;
    t.genUntil = genUntil;
    return t;
}

/// Run `spec` to drain with the whole generation horizon measured, and
/// compare against `pin`.
void
expectPinned(const FabricSpec &spec, const TrafficConfig &t,
             const FabricPin &pin)
{
    FabricSim sim(spec, t);
    sim.setMeasureWindow(0, t.genUntil);
    ASSERT_NE(sim.runUntilDrained(200000, t.genUntil), kNoCycle);
    sim.checkInvariants();
    EXPECT_EQ(metricsDigest(sim.metrics()), pin.digest);
    EXPECT_EQ(sim.handoffs(), pin.handoffs);
    EXPECT_EQ(sim.linkHops(), pin.linkHops);
}

FabricSpec
dpsPvc(int chips)
{
    FabricSpec spec;
    spec.chips = chips;
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    spec.column.pvc.frameLen = 2000;
    return spec;
}

TEST(FabricDigests, TwoChipPointToPointDpsPvc)
{
    expectPinned(dpsPvc(2), uniform(0.04, 4000),
                 {3829173824403274811ull, 8066, 1003});
}

TEST(FabricDigests, ThreeChipRing)
{
    FabricSpec spec = dpsPvc(3);
    spec.links = LinkTopology::Ring;
    expectPinned(spec, uniform(0.02, 3000),
                 {17452348482140952390ull, 5147, 1694});
}

TEST(FabricDigests, ThreeColumnPvc)
{
    FabricSpec spec = dpsPvc(2);
    spec.chip.tilesX = 32;
    spec.chip.sharedColumns = {3, 8, 12};
    expectPinned(spec, uniform(0.03, 3000),
                 {17181959394339549568ull, 9100, 1731});
}

TEST(FabricDigests, KiloNodeFabric)
{
    FabricSpec spec = dpsPvc(4);
    spec.chip.tilesX = 32;
    spec.chip.tilesY = 32;
    spec.chip.sharedColumns = {4, 12};
    ASSERT_EQ(spec.chips * spec.chip.numNodes(), 1024);
    expectPinned(spec, uniform(0.02, 2000),
                 {12961033687450707290ull, 20300, 6063});
}

TEST(FabricDigests, WeightedTwoChipConsolidation)
{
    FabricConsolidationConfig cfg;
    cfg.chips = 2;
    cfg.ratePerNode = 0.04;
    cfg.phases = RunPhases{500, 2500, 1000};
    const FabricConsolidationResult res = runFabricConsolidation(cfg);
    ASSERT_NE(res.drainCycle, kNoCycle);
    // The three-VM mix is weighted, so the flow registers are not flat.
    ASSERT_EQ(res.vms.size(), 6u);
    EXPECT_NE(res.vms[0].weight, res.vms[2].weight);
    EXPECT_EQ(res.digest, 11777116479683620195ull);
    EXPECT_EQ(res.handoffs, 3721u);
    EXPECT_EQ(res.linkHops, 188u);
}

/// Run the consolidated server with its shared columns listed as given,
/// then reversed: the order must not change the run.
FabricConsolidationResult
expectColumnOrderFree(FabricConsolidationConfig cfg)
{
    const FabricConsolidationResult listed = runFabricConsolidation(cfg);
    std::reverse(cfg.chip.sharedColumns.begin(),
                 cfg.chip.sharedColumns.end());
    const FabricConsolidationResult reversed = runFabricConsolidation(cfg);
    EXPECT_NE(listed.drainCycle, kNoCycle);
    EXPECT_NE(reversed.drainCycle, kNoCycle);
    EXPECT_EQ(reversed.digest, listed.digest);
    EXPECT_EQ(reversed.handoffs, listed.handoffs);
    EXPECT_EQ(reversed.linkHops, listed.linkHops);
    EXPECT_EQ(reversed.vms.size(), listed.vms.size());
    for (std::size_t i = 0;
         i < std::min(reversed.vms.size(), listed.vms.size()); ++i) {
        EXPECT_EQ(reversed.vms[i].chip, listed.vms[i].chip);
        EXPECT_EQ(reversed.vms[i].vmId, listed.vms[i].vmId);
        EXPECT_EQ(reversed.vms[i].domainNodes, listed.vms[i].domainNodes);
        EXPECT_EQ(reversed.vms[i].flits, listed.vms[i].flits) << "vm " << i;
    }
    return listed;
}

TEST(FabricDigests, ColumnOrderDoesNotChangeTheRun)
{
    // fabric_cli fast=1 chips=2 tiles=16 columns=1,6.
    FabricConsolidationConfig cfg;
    cfg.chips = 2;
    cfg.chip.tilesX = cfg.chip.tilesY = 16;
    cfg.chip.sharedColumns = {1, 6};
    cfg.phases = RunPhases{500, 2000, 1000};
    const FabricConsolidationResult res = expectColumnOrderFree(cfg);
    EXPECT_EQ(res.digest, 0x8fdc8dca9bb167a8ull);
}

/// `fabric_cli fast=1 chips=2 tiles=16 columns=2,5 workload=<spec>`:
/// two chips of two blocks each, every block's rate modulator seeded from
/// its own block seed.
FabricConsolidationResult
runModulatedTwoChip(const std::string &workload)
{
    FabricConsolidationConfig cfg;
    cfg.chips = 2;
    cfg.chip.tilesX = cfg.chip.tilesY = 16;
    cfg.chip.sharedColumns = {2, 5};
    cfg.phases = RunPhases{500, 2000, 1000};
    const std::optional<WorkloadSpec> spec = WorkloadSpec::parse(workload);
    EXPECT_TRUE(spec.has_value()) << workload;
    cfg.workload = spec.value_or(WorkloadSpec{});
    return runFabricConsolidation(cfg);
}

TEST(FabricDigests, BurstyTwoChipTwoColumns)
{
    const FabricConsolidationResult res = runModulatedTwoChip("bursty");
    ASSERT_NE(res.drainCycle, kNoCycle);
    EXPECT_EQ(res.digest, 0x7e271aa1731d5ef3ull);
    EXPECT_EQ(res.handoffs, 2855u);
    EXPECT_EQ(res.linkHops, 199u);
}

TEST(FabricDigests, RampTwoChipTwoColumns)
{
    const FabricConsolidationResult res =
        runModulatedTwoChip("ramp:low=0,high=2,period=1000");
    ASSERT_NE(res.drainCycle, kNoCycle);
    EXPECT_EQ(res.digest, 0x9a293ba423ad797full);
    EXPECT_EQ(res.handoffs, 4029u);
    EXPECT_EQ(res.linkHops, 366u);
}

TEST(FabricDigests, WideChipRunsWithItsColumnsListedDescending)
{
    // One 32x32-tile chip of the kilo-node fabric: with {12, 4} the
    // catchment tie at x = 8 must still go to column 4.
    FabricConsolidationConfig cfg;
    cfg.chips = 1;
    cfg.chip.tilesX = cfg.chip.tilesY = 32;
    cfg.chip.sharedColumns = {4, 12};
    cfg.phases = RunPhases{500, 2000, 1000};
    expectColumnOrderFree(cfg);
}

} // namespace
} // namespace taqos
