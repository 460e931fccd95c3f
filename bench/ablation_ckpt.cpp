/// Ablation A8 (ours): the checkpoint/restore re-use layer. Times a
/// warmup-heavy fig4 cell (DPS/PVC, uniform 0.05) two ways — cold
/// (every rep pays the full warmup + measure run) and restore-per-rep
/// (the warmup is paid once, snapshotted, and every rep restores the
/// snapshot and runs only the measure phase) — cross-checking that the
/// restored rep's metrics digest is bit-identical to the cold rep's.
/// Then times a small latency/load sweep twice through the
/// content-addressed cell cache (exp/cell_cache.h): a cold populating
/// pass and a fully-warm pass that loads every cell.
///
/// Writes `BENCH_ckpt.json` (same schema as BENCH_micro.json) with rows
///   ckpt_cold / ckpt_restore          effective cell cycles per wall
///                                     second (the restore row also
///                                     carries saveMs/restoreMs)
///   ckpt_sweep_cold / ckpt_sweep_cached  sweep cycles per wall second
/// CI enforces restore >= 1.5x cold and cached >= 10x cold with
/// `compare_bench.py --min-speedup`, and gates the absolute rates
/// against bench/baseline.json.
///
/// The cell uses warmup-heavy phases (16k warmup / 4k measure): the
/// restore path's ceiling is total/measure = 5x, leaving headroom over
/// the 1.5x floor; the paper-default fig4 phases (20k/50k) would cap
/// the ideal speedup at 1.4x and gate on noise.
///
/// Options: fast=1 (short runs), reps=N (default 5, fast 3),
///          json=<path> (default BENCH_ckpt.json),
///          cachedir=<dir> (default BENCH_ckpt_cache, wiped first)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"
#include "exp/cell_cache.h"
#include "exp/json_writer.h"
#include "exp/sweep.h"
#include "sim/column_sim.h"

using namespace taqos;

namespace {

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::unique_ptr<ColumnSim>
makeCellSim(const RunPhases &phases)
{
    const ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = 0.05;
    auto sim = std::make_unique<ColumnSim>(col, traffic);
    sim->setMeasureWindow(phases.warmup, phases.measureEnd());
    return sim;
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast", "reps", "cachedir", "json"});
    benchutil::header(
        "Checkpoint/restore ablation: warm-start reps and the sweep "
        "cell cache vs cold re-runs",
        "infrastructure (Fig. 4 cell / latency-load sweep as workload)");

    const bool fast = opts.getBool("fast", false);
    const int reps = opts.getInt("reps", fast ? 3 : 5);
    RunPhases phases;
    phases.warmup = fast ? 8000 : 16000;
    phases.measure = fast ? 2000 : 4000;
    phases.drain = 0;

    // ---- cold vs restore-per-rep on one cell --------------------------
    double coldSec = 0.0;
    std::uint64_t coldDigest = 0;
    for (int r = 0; r < reps; ++r) {
        auto sim = makeCellSim(phases);
        const auto t0 = std::chrono::steady_clock::now();
        sim->run(phases.total());
        const double sec = secondsSince(t0);
        coldSec = r == 0 ? sec : std::min(coldSec, sec);
        coldDigest = metricsDigest(sim->metrics());
    }

    // Warm once; the snapshot pays for itself across the reps.
    std::string snapshot;
    double saveMs = 0.0;
    {
        auto warm = makeCellSim(phases);
        warm->run(phases.warmup);
        const auto t0 = std::chrono::steady_clock::now();
        std::ostringstream os;
        warm->saveCheckpoint(os);
        saveMs = secondsSince(t0) * 1e3;
        snapshot = os.str();
    }

    double restoreSec = 0.0;
    double restoreMs = 0.0;
    std::uint64_t restoredDigest = 0;
    for (int r = 0; r < reps; ++r) {
        auto sim = makeCellSim(phases);
        const auto t0 = std::chrono::steady_clock::now();
        std::istringstream is(snapshot);
        std::string err;
        if (!sim->restoreCheckpoint(is, &err)) {
            std::fprintf(stderr, "restore failed: %s\n", err.c_str());
            return 1;
        }
        const double rm = secondsSince(t0) * 1e3;
        sim->run(phases.total() - phases.warmup);
        const double sec = secondsSince(t0);
        restoreSec = r == 0 ? sec : std::min(restoreSec, sec);
        restoreMs = r == 0 ? rm : std::min(restoreMs, rm);
        restoredDigest = metricsDigest(sim->metrics());
    }

    const auto cellCycles = static_cast<double>(phases.total());
    const double coldRate = cellCycles / coldSec;
    const double restoreRate = cellCycles / restoreSec;

    // ---- cold vs fully-cached sweep -----------------------------------
    SweepSpec spec;
    spec.name = "ckpt_bench";
    spec.topologies = {TopologyKind::Dps, TopologyKind::Mecs};
    spec.rates = fast ? std::vector<double>{0.02, 0.05}
                      : std::vector<double>{0.02, 0.05, 0.08};
    spec.replicates = 2;
    spec.phases.warmup = fast ? 500 : 2000;
    spec.phases.measure = fast ? 2000 : 5000;
    spec.phases.drain = fast ? 500 : 2000;

    const std::string cacheDir = opts.get("cachedir", "BENCH_ckpt_cache");
    std::filesystem::remove_all(cacheDir);
    CellCache cache(cacheDir);
    const SweepRunner runner(1); // serial: time the work, not the pool

    const auto tCold = std::chrono::steady_clock::now();
    const SweepResult coldSweep = runner.run(spec, &cache);
    const double sweepColdSec = secondsSince(tCold);

    const auto tWarm = std::chrono::steady_clock::now();
    const SweepResult warmSweep = runner.run(spec, &cache);
    const double sweepWarmSec = secondsSince(tWarm);

    const bool sweepIdentical = coldSweep.toJson() == warmSweep.toJson();
    const bool allHits = warmSweep.cacheHits == warmSweep.cells.size() &&
                         warmSweep.cacheMisses == 0;
    const double sweepCycles =
        static_cast<double>(coldSweep.cells.size()) *
        static_cast<double>(spec.phases.total());
    const double sweepColdRate = sweepCycles / sweepColdSec;
    const double sweepCachedRate = sweepCycles / sweepWarmSec;

    // ---- report -------------------------------------------------------
    TextTable t;
    t.setHeader({"row", "cyc/s", "speedup", "identical"});
    t.addRow({"ckpt_cold", benchutil::num(coldRate, 0), "1.00x", "-"});
    t.addRow({"ckpt_restore", benchutil::num(restoreRate, 0),
              strFormat("%.2fx", coldSec / restoreSec),
              coldDigest == restoredDigest ? "yes" : "NO"});
    t.addRow({"ckpt_sweep_cold", benchutil::num(sweepColdRate, 0), "1.00x",
              "-"});
    t.addRow({"ckpt_sweep_cached", benchutil::num(sweepCachedRate, 0),
              strFormat("%.2fx", sweepColdSec / sweepWarmSec),
              sweepIdentical && allHits ? "yes" : "NO"});
    std::printf("%s\n", t.render().c_str());
    std::printf("snapshot: %zu bytes, save %.2f ms, restore %.2f ms\n",
                snapshot.size(), saveMs, restoreMs);
    std::printf("restore-per-rep speedup %.2fx (CI floor 1.5x), cached "
                "sweep %.2fx (CI floor 10x)\n",
                coldSec / restoreSec, sweepColdSec / sweepWarmSec);

    const std::string json = opts.get("json", "BENCH_ckpt.json");
    JsonWriter w;
    w.beginObject();
    w.field("benchmark", "ckpt");
    w.beginObject("unit");
    w.field("simCyclesPerSec", "Hz");
    w.endObject();
    w.beginArray("results");
    w.beginObject();
    w.field("name", "ckpt_cold");
    w.field("simCycles", phases.total());
    w.field("wallMs", coldSec * 1e3);
    w.field("simCyclesPerSec", coldRate);
    w.endObject();
    w.beginObject();
    w.field("name", "ckpt_restore");
    w.field("simCycles", phases.total());
    w.field("wallMs", restoreSec * 1e3);
    w.field("saveMs", saveMs);
    w.field("restoreMs", restoreMs);
    w.field("snapshotBytes", snapshot.size());
    w.field("simCyclesPerSec", restoreRate);
    w.endObject();
    w.beginObject();
    w.field("name", "ckpt_sweep_cold");
    w.field("simCycles", sweepCycles);
    w.field("wallMs", sweepColdSec * 1e3);
    w.field("simCyclesPerSec", sweepColdRate);
    w.endObject();
    w.beginObject();
    w.field("name", "ckpt_sweep_cached");
    w.field("simCycles", sweepCycles);
    w.field("wallMs", sweepWarmSec * 1e3);
    w.field("simCyclesPerSec", sweepCachedRate);
    w.endObject();
    w.endArray();
    w.endObject();
    if (!writeTextFile(json, w.str() + "\n"))
        return 1;
    std::printf("wrote %s\n", json.c_str());

    // Bit-identity is the contract; a divergence is a failure, not a
    // footnote in the table.
    if (coldDigest != restoredDigest) {
        std::fprintf(stderr, "restored digest diverged from cold run\n");
        return 1;
    }
    if (!sweepIdentical || !allHits) {
        std::fprintf(stderr,
                     "cached sweep not byte-identical or not all hits "
                     "(%zu hits, %zu misses)\n",
                     warmSweep.cacheHits, warmSweep.cacheMisses);
        return 1;
    }
    return 0;
}
