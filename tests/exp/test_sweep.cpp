/// The sweep engine's contracts: grid expansion, deterministic seeding,
/// bit-identical parallel-vs-serial execution, seed aggregation, and
/// equivalence of the engine's cells with hand-built simulator runs.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>

#include "core/experiments.h"
#include "exp/sweep.h"
#include "mutants.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

SweepSpec
tinySpec(int replicates = 1)
{
    SweepSpec spec;
    spec.scenario = Scenario::LatencyLoad;
    spec.topologies = {TopologyKind::Dps, TopologyKind::Mecs};
    spec.rates = {0.02, 0.05};
    spec.replicates = replicates;
    spec.phases = RunPhases{500, 1500, 1000};
    return spec;
}

TEST(SweepSpec, ExpansionCoversTheGrid)
{
    const auto cells = tinySpec(3).expand();
    ASSERT_EQ(cells.size(), 2u * 2u * 3u);
    // Documented order: topology-major, rate, then replicate innermost.
    EXPECT_EQ(cells[0].topology, TopologyKind::Dps);
    EXPECT_EQ(cells[0].rate, 0.02);
    EXPECT_EQ(cells[0].replicate, 0);
    EXPECT_EQ(cells[1].replicate, 1);
    EXPECT_EQ(cells[3].rate, 0.05);
    EXPECT_EQ(cells[6].topology, TopologyKind::Mecs);
}

TEST(SweepSpec, DefaultsCoverPaperTopologies)
{
    SweepSpec spec;
    spec.replicates = 1;
    const auto cells = spec.expand();
    EXPECT_EQ(cells.size(), 5u); // five topologies x one rate
}

TEST(SweepSpec, IrrelevantAxesNeverMultiplyTheGrid)
{
    SweepSpec spec;
    spec.scenario = Scenario::Adversarial;
    spec.topologies = {TopologyKind::Dps};
    spec.rates = {0.01, 0.02, 0.03};       // ignored: workload-defined
    spec.patterns = {TrafficPattern::UniformRandom,
                     TrafficPattern::Tornado}; // ignored
    spec.workloads = {1};
    EXPECT_EQ(spec.expand().size(), 1u);
}

TEST(SweepSpec, ErrorNamesAnAxisTheScenarioDoesNotSweep)
{
    SweepSpec spec;
    spec.scenario = Scenario::Hotspot;
    EXPECT_EQ(sweepSpecError(spec), "");
    spec.patterns = {TrafficPattern::Hotspot}; // what it runs anyway
    EXPECT_EQ(sweepSpecError(spec), "");
    spec.patterns = {TrafficPattern::Tornado};
    EXPECT_EQ(sweepSpecError(spec),
              "the hotspot scenario does not sweep the patterns axis");

    spec.scenario = Scenario::Adversarial;
    spec.patterns.clear();
    spec.rates = {0.01, 0.02};
    EXPECT_EQ(sweepSpecError(spec),
              "the adversarial scenario does not sweep the rates axis");
    // canonical() collapses it instead, and its result passes the check.
    EXPECT_EQ(sweepSpecError(spec.canonical()), "");

    spec.scenario = Scenario::ChipConsolidation;
    spec.rates.clear();
    spec.placements = {0, 2};
    EXPECT_EQ(sweepSpecError(spec), "");
    spec.workloads = {2};
    EXPECT_EQ(sweepSpecError(spec), "the chip_consolidation scenario does "
                                    "not sweep the workloads axis");
}

TEST(SweepSpec, ErrorNamesNoReplicatesOrNoHorizon)
{
    SweepSpec spec;
    spec.replicates = 0;
    EXPECT_EQ(sweepSpecError(spec),
              "a sweep needs at least 1 replicate, got 0");
    spec.replicates = -3;
    EXPECT_EQ(sweepSpecError(spec),
              "a sweep needs at least 1 replicate, got -3");

    spec.replicates = 1;
    spec.genCycles = 0; // only the adversarial scenario reads it
    EXPECT_EQ(sweepSpecError(spec), "");
    spec.scenario = Scenario::Adversarial;
    EXPECT_EQ(sweepSpecError(spec),
              "the adversarial scenario needs a generation horizon of at "
              "least 1 cycle, got 0");
}

TEST(SweepSpec, MixedSeedsAreDistinctAndStable)
{
    const auto cells = tinySpec(2).expand();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t j = i + 1; j < cells.size(); ++j)
            EXPECT_NE(cells[i].seed, cells[j].seed);
    }
    // Same spec -> same seeds, run to run.
    const auto again = tinySpec(2).expand();
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].seed, again[i].seed);
}

TEST(SweepSpec, MixedSeedsArePinned)
{
    // A cell's seed selects its traffic and joins its cache key: a
    // changed mix silently changes every sweep record and orphans every
    // cached fragment.
    const auto cells = tinySpec(2).expand();
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].seed, 0x4035802badd80daaull);
    EXPECT_EQ(cells[7].seed, 0xf816d8d8de4a126eull);

    // A non-steady workload spec mixes its canonical words in as well.
    SweepSpec bursty = tinySpec(2);
    WorkloadSpec w;
    w.kind = WorkloadKind::Bursty;
    bursty.workloadSpecs = {w};
    EXPECT_EQ(bursty.expand()[0].seed, 0x9d795d1a921c3a21ull);
}

TEST(SweepSpec, UnmixedSeedsUseTheBaseSeedVerbatim)
{
    SweepSpec spec = tinySpec();
    spec.mixSeeds = false;
    spec.baseSeed = 1234;
    for (const auto &cell : spec.expand())
        EXPECT_EQ(cell.seed, 1234u);
}

TEST(SweepRunner, ParallelIsBitIdenticalToSerial)
{
    const SweepSpec spec = tinySpec(2);
    const SweepResult serial = SweepRunner(1).run(spec);
    const SweepResult parallel = SweepRunner(4).run(spec);

    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const auto &a = serial.cells[i].metrics;
        const auto &b = parallel.cells[i].metrics;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t m = 0; m < a.size(); ++m) {
            EXPECT_EQ(a[m].first, b[m].first);
            // Exact: the same cell computes the same bits regardless of
            // which thread ran it.
            EXPECT_EQ(a[m].second, b[m].second)
                << a[m].first << " in cell " << i;
        }
    }
    EXPECT_EQ(serial.toJson(), parallel.toJson());
}

TEST(SweepRunner, OversubscribedPoolMatchesToo)
{
    // More threads than cells exercises the worker cap.
    SweepSpec spec = tinySpec();
    spec.topologies = {TopologyKind::Dps};
    spec.rates = {0.03};
    const SweepResult one = SweepRunner(1).run(spec);
    const SweepResult many = SweepRunner(16).run(spec);
    EXPECT_EQ(one.toJson(), many.toJson());
}

TEST(SweepRunner, CellMatchesHandBuiltSimulation)
{
    // The engine's LatencyLoad cell must reproduce a directly-constructed
    // ColumnSim run exactly (same seed, same phases).
    CellSpec cell;
    cell.scenario = Scenario::LatencyLoad;
    cell.topology = TopologyKind::Dps;
    cell.pattern = TrafficPattern::UniformRandom;
    cell.rate = 0.05;
    cell.seed = 0x7a05c0de;
    cell.phases = RunPhases{500, 1500, 1000};
    const CellResult res = SweepRunner::runCell(cell);

    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    TrafficConfig traffic;
    traffic.injectionRate = 0.05;
    ColumnSim sim(col, traffic);
    sim.setMeasureWindow(500, 2000);
    sim.run(3000);

    EXPECT_EQ(res.get("avg_latency"), sim.metrics().latency.mean());
    EXPECT_EQ(res.get("window_flits"),
              static_cast<double>(sim.metrics().windowFlits()));
}

TEST(SweepRunner, AggregationMatchesHandComputedMoments)
{
    SweepSpec spec;
    spec.replicates = 3;
    std::vector<CellResult> cells(3);
    const double xs[] = {10.0, 14.0, 18.0};
    for (int r = 0; r < 3; ++r) {
        cells[static_cast<std::size_t>(r)].spec.replicate = r;
        cells[static_cast<std::size_t>(r)].put("m", xs[r]);
    }
    const auto aggs = aggregateCells(spec, cells);
    ASSERT_EQ(aggs.size(), 1u);
    const RunningStat &rs = aggs[0].get("m");
    EXPECT_EQ(rs.count(), 3u);
    EXPECT_DOUBLE_EQ(rs.mean(), 14.0);
    // Population stddev of {10, 14, 18}: sqrt((16 + 0 + 16) / 3).
    EXPECT_DOUBLE_EQ(rs.stddev(), std::sqrt(32.0 / 3.0));
    EXPECT_DOUBLE_EQ(rs.min(), 10.0);
    EXPECT_DOUBLE_EQ(rs.max(), 18.0);
}

TEST(SweepRunner, ReplicatesProduceSpreadAndAggregates)
{
    SweepSpec spec = tinySpec(2);
    spec.topologies = {TopologyKind::Dps};
    spec.rates = {0.05};
    const SweepResult result = SweepRunner(2).run(spec);
    ASSERT_EQ(result.cells.size(), 2u);
    ASSERT_EQ(result.aggregates.size(), 1u);
    EXPECT_NE(result.cells[0].spec.seed, result.cells[1].spec.seed);
    const RunningStat &lat = result.aggregates[0].get("avg_latency");
    EXPECT_EQ(lat.count(), 2u);
    EXPECT_GT(lat.mean(), 0.0);
    // Different seeds -> (almost surely) different latencies.
    EXPECT_GT(lat.max(), lat.min());
}

TEST(SweepRunner, HotspotScenarioIsFairInParallel)
{
    SweepSpec spec;
    spec.scenario = Scenario::Hotspot;
    spec.topologies = {TopologyKind::Dps, TopologyKind::Mecs};
    spec.rates = {0.05};
    spec.phases = RunPhases{1000, 5000, 0};
    const SweepResult result = SweepRunner(2).run(spec);
    for (const auto &cell : result.cells) {
        const double mean = cell.get("mean_flits");
        EXPECT_GT(mean, 0.0);
        EXPECT_GT(cell.get("min_flits"), 0.9 * mean);
        EXPECT_LT(cell.get("max_flits"), 1.1 * mean);
    }
    EXPECT_EQ(SweepRunner(1).run(spec).toJson(), result.toJson());
}

TEST(SweepRunner, FigureSpecsReproduceLegacyRunners)
{
    // The ported runFig4Latency must equal running its spec by hand.
    const RunPhases fast{500, 1500, 1000};
    const std::vector<double> rates{0.02, 0.05};
    const auto direct = runFig4Latency(TrafficPattern::UniformRandom,
                                       rates, fast);
    const auto viaSpec = latencySeriesFromSweep(SweepRunner(3).run(
        fig4Spec(TrafficPattern::UniformRandom, rates, fast)));
    ASSERT_EQ(direct.size(), viaSpec.size());
    for (std::size_t s = 0; s < direct.size(); ++s) {
        ASSERT_EQ(direct[s].points.size(), viaSpec[s].points.size());
        for (std::size_t p = 0; p < direct[s].points.size(); ++p) {
            EXPECT_EQ(direct[s].points[p].avgLatency,
                      viaSpec[s].points[p].avgLatency);
            EXPECT_EQ(direct[s].points[p].throughput,
                      viaSpec[s].points[p].throughput);
        }
    }
}

TEST(SweepResult, JsonSerializesSchemaAndCells)
{
    SweepSpec spec = tinySpec();
    spec.topologies = {TopologyKind::Dps};
    spec.rates = {0.02};
    const SweepResult result = SweepRunner(1).run(spec);
    const std::string json = result.toJson();
    EXPECT_NE(json.find("\"schema\": \"taqos-sweep/v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"scenario\": \"latency_load\""),
              std::string::npos);
    EXPECT_NE(json.find("\"topology\": \"dps\""), std::string::npos);
    EXPECT_NE(json.find("\"avg_latency\""), std::string::npos);
    EXPECT_NE(json.find("\"aggregates\""), std::string::npos);
}

/// Two replicates of one grid point with hand-set metrics: integers
/// either side of 1e15, signed zero, repeating fractions, a subnormal,
/// DBL_MAX, NaN and infinity, and names and a sweep name with bytes the
/// writer escapes.
SweepResult
handBuiltResult()
{
    SweepSpec spec = tinySpec(2);
    spec.name = "pinned \"json\"\t\\";
    spec.topologies = {TopologyKind::Dps};
    spec.rates = {0.0123};
    SweepResult result;
    result.spec = spec.canonical();
    const std::vector<CellSpec> cells = result.spec.expand();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double values[2][7] = {
        {23.4375, 1e15, -0.0, 1.0 / 3.0, 4.9e-324, nan, 1536.0},
        {41.0, 999999999999999.0, 0.1, 2.0 / 3.0, DBL_MAX, inf, -7.0},
    };
    const char *const names[7] = {"avg_latency", "big",    "zero",
                                  "third",       "tiny",   "non\"finite",
                                  "ctl\x01name"};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        CellResult cell;
        cell.spec = cells[i];
        for (std::size_t m = 0; m < 7; ++m)
            cell.put(names[m], values[i][m]);
        result.cells.push_back(cell);
    }
    result.aggregates = aggregateCells(result.spec, result.cells);
    return result;
}

TEST(SweepResult, JsonBytesArePinned)
{
    // No simulation runs, so only the JSON formatter can move this pin.
    const SweepResult result = handBuiltResult();
    ASSERT_EQ(result.cells.size(), 2u);
    const std::string json = result.toJson();
    mutants::Fnv h;
    h.bytes(json);
    EXPECT_EQ(json.size(), 2757u);
    EXPECT_EQ(h.h, 12793804260549949884ull);
}

} // namespace
} // namespace taqos
