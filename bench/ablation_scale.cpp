/// Scaling ablation: simulated cycles/second vs fabric size on the
/// serial engine. Three fabric configurations on the uniform-random
/// workload, every shared column active:
///
///   scale_64    1 chip,  16x16 tiles (8x8 nodes),  1 shared column
///   scale_256   1 chip,  32x32 tiles (16x16 nodes), 2 shared columns
///   scale_1024  4 chips, 32x32 tiles, 2 shared columns, p2p links
///
/// Min-of-`reps` wall time per row. The curve tracks the per-node
/// throughput drop from 64 to 1024 nodes (README "Why the engine is
/// serial").
///
/// Writes `BENCH_scale.json` (same schema as BENCH_hotpath.json) with
/// rows scale_<nodes>; CI lists it in the compare_bench.py snapshot.
/// Each row also carries the engine's cost per hop: wall ns per started
/// transfer (`nsPerHop`) and activity-engine output scans per transfer
/// (`scansPerHop`, exact; NetSim::engineStats).
///
/// Options: fast=1 (short runs), reps=N (default 3, fast 1),
///          json=<path> (default BENCH_scale.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"
#include "exp/json_writer.h"
#include "sim/fabric_sim.h"

using namespace taqos;

namespace {

struct ScaleConfig {
    const char *label;
    int chips;
    int tiles;
    std::vector<int> columns;
};

struct ScaleRow {
    std::string name;
    int nodes = 0;
    Cycle cycles = 0;
    double sec = 0.0;
    EngineStats stats;

    double rate() const
    {
        return sec > 0.0 ? static_cast<double>(cycles) / sec : 0.0;
    }
    double nsPerHop() const
    {
        return stats.hops > 0 ? sec * 1e9 / static_cast<double>(stats.hops)
                              : 0.0;
    }
    double scansPerHop() const
    {
        return stats.hops > 0 ? static_cast<double>(stats.outputScans) /
                                    static_cast<double>(stats.hops)
                              : 0.0;
    }
};

FabricSpec
specFor(const ScaleConfig &cfg)
{
    FabricSpec spec;
    spec.chips = cfg.chips;
    spec.chip.tilesX = spec.chip.tilesY = cfg.tiles;
    spec.chip.sharedColumns = cfg.columns;
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    return spec;
}

ScaleRow
timedFabricRun(const ScaleConfig &cfg, Cycle cycles, int reps)
{
    ScaleRow row;
    row.cycles = cycles;
    for (int r = 0; r < reps; ++r) {
        const FabricSpec spec = specFor(cfg);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.05;
        FabricSim sim(spec, traffic);
        sim.setMeasureWindow(cycles / 4, cycles);
        const auto t0 = std::chrono::steady_clock::now();
        sim.run(cycles);
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        row.sec = r == 0 ? sec : std::min(row.sec, sec);
        row.nodes = sim.net().numNodes();
        row.stats = sim.engineStats();
    }
    row.name = strFormat("scale_%d", row.nodes);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast", "reps", "json"});
    benchutil::header(
        "Scaling ablation: cycles/sec vs fabric size (serial engine)",
        "infrastructure (ROADMAP item 1: 1000+ router fabrics)");

    const bool fast = opts.getBool("fast", false);
    const int reps = opts.getInt("reps", fast ? 1 : 3);
    const std::vector<ScaleConfig> configs{
        {"64-node chip", 1, 16, {4}},
        {"256-node chip", 1, 32, {4, 12}},
        {"1024-node fabric", 4, 32, {4, 12}},
    };
    // Budget per row shrinks with size so the bench stays minutes-scale;
    // per-cycle work grows with the node count, keeping every row a
    // meaningful sample.
    const std::vector<Cycle> budgets{fast ? 8000u : 40000u,
                                     fast ? 4000u : 20000u,
                                     fast ? 2000u : 10000u};

    std::vector<ScaleRow> rows;
    TextTable t;
    t.setHeader({"config", "nodes", "cyc/s", "node-cyc/s", "ns/hop",
                 "scans/hop"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const ScaleRow row = timedFabricRun(configs[i], budgets[i], reps);
        t.addRow({configs[i].label, strFormat("%d", row.nodes),
                  benchutil::num(row.rate(), 0),
                  benchutil::num(row.rate() * row.nodes, 0),
                  benchutil::num(row.nsPerHop(), 0),
                  benchutil::num(row.scansPerHop(), 3)});
        rows.push_back(row);
    }
    std::printf("%s\n", t.render().c_str());

    const std::string json = opts.get("json", "BENCH_scale.json");
    JsonWriter w;
    w.beginObject();
    w.field("benchmark", "scale");
    w.beginObject("unit");
    w.field("simCyclesPerSec", "Hz");
    w.endObject();
    w.beginArray("results");
    for (const auto &row : rows) {
        w.beginObject();
        w.field("name", row.name);
        w.field("simCycles", row.cycles);
        w.field("wallMs", row.sec * 1e3);
        w.field("simCyclesPerSec", row.rate());
        w.field("nsPerHop", row.nsPerHop());
        w.field("scansPerHop", row.scansPerHop());
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (!writeTextFile(json, w.str() + "\n"))
        return 1;
    std::printf("wrote %s\n", json.c_str());
    return 0;
}
