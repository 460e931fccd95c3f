/// Dynamic workloads at simulation level: bursty/ramp columns are
/// bit-identical between the activity-driven and always-tick engines and
/// across checkpoint restore; trace replay with inflation is
/// deterministic at cell level; the tenant-churn driver's schedule is a
/// pure function of (seed, epoch), holds the co-scheduling invariant,
/// and a churned chip reproduces exactly under either engine and across
/// a mid-run restore that may switch engines;
/// and the sweep layer keys non-steady workloads into cell seeds and
/// cache keys while leaving steady cells untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chip/churn.h"
#include "exp/cell_cache.h"
#include "exp/json_writer.h"
#include "exp/sweep.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "traffic/trace.h"

namespace taqos {
namespace {

std::uint64_t
runDigest(const NetSim &sim)
{
    return metricsDigest(sim.metrics());
}

TrafficConfig
uniformTraffic(double rate, std::uint64_t seed = 1)
{
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = rate;
    traffic.seed = seed;
    return traffic;
}

WorkloadSpec
burstyDefaults()
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Bursty;
    return spec;
}

WorkloadSpec
rampSpec(Cycle period)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Ramp;
    spec.rampPeriod = period;
    return spec;
}

std::uint64_t
modulatedDigest(const WorkloadSpec &workload, QosMode mode,
                bool activity = true)
{
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    col.mode = mode;
    TrafficConfig traffic = uniformTraffic(0.05, 77);
    traffic.genUntil = 4000;
    ColumnSim sim(col, traffic, workload);
    sim.configure({.activityDriven = activity});
    sim.setMeasureWindow(500, 4000);
    const Cycle done = sim.runUntilDrained(30000, 4000);
    EXPECT_NE(done, kNoCycle);
    sim.checkInvariants();
    return runDigest(sim);
}

TEST(SimDynamic, BurstyColumnMatchesAlwaysTickAcrossPolicies)
{
    for (auto mode : {QosMode::Pvc, QosMode::Gsf, QosMode::NoQos}) {
        const auto activity = modulatedDigest(burstyDefaults(), mode);
        const auto tick = modulatedDigest(burstyDefaults(), mode, false);
        EXPECT_EQ(activity, tick) << qosModeName(mode);
    }
}

TEST(SimDynamic, RampColumnMatchesAlwaysTick)
{
    const auto activity = modulatedDigest(rampSpec(1000), QosMode::Pvc);
    const auto tick = modulatedDigest(rampSpec(1000), QosMode::Pvc, false);
    EXPECT_EQ(activity, tick);
}

TEST(SimDynamic, BurstyWorkloadActuallyChangesTheRun)
{
    // The modulator must not be a no-op: the same cell under steady and
    // bursty generation produces different traffic.
    const auto steady = modulatedDigest(WorkloadSpec{}, QosMode::Pvc);
    const auto bursty = modulatedDigest(burstyDefaults(), QosMode::Pvc);
    EXPECT_NE(steady, bursty);
}

TEST(SimDynamic, BurstyCheckpointRestoresBitIdentically)
{
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    col.mode = QosMode::Pvc;
    TrafficConfig traffic = uniformTraffic(0.05, 31);
    traffic.genUntil = 4000;

    ColumnSim live(col, traffic, burstyDefaults());
    live.setMeasureWindow(500, 4000);
    live.run(1700); // mid-run, mid-burst
    std::ostringstream os;
    live.saveCheckpoint(os);
    const std::string snapshot = os.str();
    live.runUntilDrained(30000, 4000);

    ColumnSim resumed(col, traffic, burstyDefaults());
    resumed.setMeasureWindow(500, 4000);
    std::istringstream is(snapshot);
    std::string err;
    ASSERT_TRUE(resumed.restoreCheckpoint(is, &err)) << err;
    EXPECT_EQ(resumed.now(), 1700u);
    resumed.runUntilDrained(30000, 4000);

    EXPECT_EQ(runDigest(live), runDigest(resumed));
}

TEST(SimDynamic, TraceInflationCellsAreDeterministicAndThinned)
{
    // Record a real workload, replay it through the sweep cell runner at
    // x1 and x0.5 inflation: each cell reproduces exactly on a rerun,
    // and the thinned replay delivers strictly less.
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    const TrafficTrace recorded =
        TrafficTrace::record(col, uniformTraffic(0.05, 5), 3000);
    const std::string path = ::testing::TempDir() + "sim_dynamic_trace.csv";
    ASSERT_TRUE(writeTextFile(path, recorded.toCsv()));

    CellSpec cell;
    cell.scenario = Scenario::LatencyLoad;
    cell.topology = TopologyKind::Dps;
    cell.mode = QosMode::Pvc;
    cell.rate = 0.05;
    cell.phases = RunPhases{500, 2500, 1000};
    cell.seed = 17;
    cell.workloadSpec.kind = WorkloadKind::Trace;
    cell.workloadSpec.tracePath = path;

    const CellResult full = SweepRunner::runCell(cell);
    EXPECT_EQ(full.metrics, SweepRunner::runCell(cell).metrics);

    CellSpec thinned = cell;
    thinned.workloadSpec.inflate = 0.5;
    const CellResult half = SweepRunner::runCell(thinned);
    EXPECT_EQ(half.metrics, SweepRunner::runCell(thinned).metrics);
    EXPECT_LT(half.get("delivered_packets"), full.get("delivered_packets"));
    EXPECT_GT(half.get("delivered_packets"),
              0.3 * full.get("delivered_packets"));
}

// ------------------------------------------------------- tenant churn

WorkloadSpec
churnSpec(int frames = 1, int maxVms = 5)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Churn;
    spec.churnFrames = frames;
    spec.churnMaxVms = maxVms;
    return spec;
}

ChipNetConfig
churnChip(Cycle frameLen)
{
    ChipNetConfig cfg;
    cfg.column.topology = TopologyKind::Dps;
    cfg.column.mode = QosMode::Pvc;
    cfg.column.numNodes = cfg.chip.nodesY();
    cfg.column.pvc.frameLen = frameLen; // short frames: epochs fire fast
    return cfg;
}

std::vector<ChurnTenant>
initialTenants()
{
    return {{0, 32, 2}, {1, 16, 1}};
}

TEST(ChurnDriver, ScheduleIsAPureFunctionOfSeedAndEpoch)
{
    const ChipNetConfig cfg = churnChip(2000);
    ChurnDriver a(cfg, initialTenants(), churnSpec(), 1234);
    ChurnDriver b(cfg, initialTenants(), churnSpec(), 1234);
    a.advanceTo(12);
    b.advanceTo(12);
    EXPECT_EQ(a.arrivals(), b.arrivals());
    EXPECT_EQ(a.departures(), b.departures());
    EXPECT_EQ(a.liveVms(), b.liveVms());
    EXPECT_EQ(a.flowRegisters().weights, b.flowRegisters().weights);
    EXPECT_EQ(a.activeComputeFlows(), b.activeComputeFlows());

    // Replaying in one jump equals replaying step by step.
    ChurnDriver c(cfg, initialTenants(), churnSpec(), 1234);
    for (int e = 1; e <= 12; ++e)
        c.advanceTo(e);
    EXPECT_EQ(a.flowRegisters().weights, c.flowRegisters().weights);

    // A different seed produces a different mix somewhere in 12 epochs.
    ChurnDriver d(cfg, initialTenants(), churnSpec(), 99);
    d.advanceTo(12);
    EXPECT_TRUE(a.arrivals() != d.arrivals() ||
                a.flowRegisters().weights != d.flowRegisters().weights);
}

TEST(ChurnDriver, ChurnsWithinBoundsAndKeepsCoSchedule)
{
    const ChipNetConfig cfg = churnChip(2000);
    ChurnDriver churn(cfg, initialTenants(), churnSpec(1, 4), 7);
    for (int e = 1; e <= 25; ++e) {
        churn.advanceTo(e);
        EXPECT_GE(churn.liveVms(), 1);
        EXPECT_LE(churn.liveVms(), 4);
        EXPECT_TRUE(churn.os().coScheduleInvariant());
    }
    // 25 epochs of one event each must have actually churned.
    EXPECT_EQ(churn.arrivals() + churn.departures(), 25);
    EXPECT_GT(churn.arrivals(), 0);
    EXPECT_GT(churn.departures(), 0);
}

/// The cell runner's segment loop in miniature, with a short QOS frame
/// so several churn epochs land inside a fast test run. `activity`
/// picks the engine; a mid-epoch restart at `restartAt` resumes under
/// `resumeActivity`.
std::uint64_t
churnedChipDigest(std::uint64_t seed, bool activity = true,
                  Cycle restartAt = 0, bool resumeActivity = true)
{
    const ChipNetConfig base = churnChip(1500);
    ChurnDriver churn(base, initialTenants(), churnSpec(), seed);
    ChipNetConfig cfg = base;
    cfg.column.pvc = churn.flowRegisters();

    TrafficConfig traffic = uniformTraffic(0.02, seed);
    traffic.genUntil = 8000;
    const auto active = churn.activeComputeFlows();
    traffic.activeFlows.assign(active.begin(), active.end());

    auto sim = std::make_unique<ChipSim>(cfg, traffic);
    sim->configure({.activityDriven = activity});
    sim->setMeasureWindow(500, 8000);

    const Cycle epochLen = churn.epochLen();
    Cycle now = 0;
    for (int e = 1; static_cast<Cycle>(e) * epochLen < traffic.genUntil;
         ++e) {
        const Cycle boundary = static_cast<Cycle>(e) * epochLen;
        if (restartAt > now && restartAt <= boundary) {
            // Snapshot mid-epoch, then resume in a freshly built sim:
            // rebuild the driver, replay its schedule, re-apply the
            // epoch, restore (churn.h's documented recipe).
            sim->run(restartAt - now);
            std::ostringstream os;
            sim->saveCheckpoint(os);
            const std::string snapshot = os.str();

            sim = std::make_unique<ChipSim>(cfg, traffic);
            sim->configure({.activityDriven = resumeActivity});
            sim->setMeasureWindow(500, 8000);
            churn.applyTo(*sim);
            std::istringstream is(snapshot);
            std::string err;
            const bool ok = sim->restoreCheckpoint(is, &err);
            EXPECT_TRUE(ok) << err;
            sim->run(boundary - restartAt);
        } else {
            sim->run(boundary - now);
        }
        now = boundary;
        churn.advanceTo(e);
        churn.applyTo(*sim);
    }
    sim->runUntilDrained(40000 - now, traffic.genUntil);
    sim->checkInvariants();
    EXPECT_GT(churn.currentEpoch(), 2);
    return runDigest(*sim);
}

TEST(SimDynamic, ChurnedChipMatchesAlwaysTick)
{
    EXPECT_EQ(churnedChipDigest(11), churnedChipDigest(11, false));
}

TEST(SimDynamic, ChurnedChipSurvivesMidEpochRestore)
{
    const auto uninterrupted = churnedChipDigest(23);
    EXPECT_EQ(uninterrupted, churnedChipDigest(23, true, 2800, true));
    // And the restore may switch engines, either way.
    EXPECT_EQ(uninterrupted, churnedChipDigest(23, true, 2800, false));
    EXPECT_EQ(uninterrupted, churnedChipDigest(23, false, 2800, true));
}

// ------------------------------------------- sweep keys and expansion

SweepSpec
keyedSpec()
{
    SweepSpec spec;
    spec.name = "dyn_keys";
    spec.scenario = Scenario::LatencyLoad;
    spec.topologies = {TopologyKind::Dps};
    spec.rates = {0.05};
    spec.replicates = 1;
    spec.phases = RunPhases{500, 1500, 1000};
    return spec;
}

TEST(SweepSpec, WorkloadAxisMultipliesTheGrid)
{
    SweepSpec spec = keyedSpec();
    WorkloadSpec bursty = burstyDefaults();
    spec.workloadSpecs = {WorkloadSpec{}, bursty, rampSpec(1000)};
    const auto cells = spec.expand();
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_TRUE(cells[0].workloadSpec.isSteady());
    EXPECT_EQ(cells[1].workloadSpec.name(), bursty.name());
    EXPECT_EQ(cells[2].workloadSpec.kind, WorkloadKind::Ramp);
}

TEST(SweepSpec, SteadyCellsKeepTheirSeedsAndKeysNonSteadyDiffer)
{
    // Compatibility contract: an explicit steady axis is byte-for-byte
    // the same cell as the implicit default — same seed, same cache key
    // — so PR-9 cache fragments and golden records stay valid. Any
    // non-steady workload must move both.
    const auto implicit = keyedSpec().expand();
    SweepSpec explicitSteady = keyedSpec();
    explicitSteady.workloadSpecs = {WorkloadSpec{}};
    const auto steady = explicitSteady.expand();
    ASSERT_EQ(implicit.size(), 1u);
    ASSERT_EQ(steady.size(), 1u);
    EXPECT_EQ(implicit[0].seed, steady[0].seed);
    EXPECT_EQ(CellCache::cellKey(implicit[0]),
              CellCache::cellKey(steady[0]));

    SweepSpec dynamicSpec = keyedSpec();
    dynamicSpec.workloadSpecs = {burstyDefaults(), rampSpec(1000)};
    const auto dyn = dynamicSpec.expand();
    ASSERT_EQ(dyn.size(), 2u);
    for (const auto &cell : dyn) {
        EXPECT_NE(cell.seed, steady[0].seed) << cell.workloadSpec.name();
        EXPECT_NE(CellCache::cellKey(cell), CellCache::cellKey(steady[0]))
            << cell.workloadSpec.name();
    }
    EXPECT_NE(dyn[0].seed, dyn[1].seed);
    EXPECT_NE(CellCache::cellKey(dyn[0]), CellCache::cellKey(dyn[1]));

    // Parameter changes rekey as well.
    SweepSpec gained = keyedSpec();
    WorkloadSpec hot = burstyDefaults();
    hot.burstGain = 8.0;
    gained.workloadSpecs = {hot};
    EXPECT_NE(gained.expand()[0].seed, dyn[0].seed);
}

TEST(SweepResult, JsonCarriesTheWorkloadAxis)
{
    SweepSpec spec = keyedSpec();
    spec.workloadSpecs = {burstyDefaults()};
    const SweepResult result = SweepRunner(1).run(spec);
    const std::string json = result.toJson();
    EXPECT_NE(json.find("\"workload_specs\""), std::string::npos);
    EXPECT_NE(json.find("\"workload_spec\": "
                        "\"bursty:on=0.002,off=0.01,gain=4\""),
              std::string::npos);
}

} // namespace
} // namespace taqos
