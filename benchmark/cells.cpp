#include "cells.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/strings.h"
#include "core/experiments.h"
#include "sim/column_sim.h"
#include "sim/fabric_sim.h"

namespace taqos::bench {
namespace {

/// splitmix64 finaliser over (seed, name): a cell's traffic seed depends
/// on the benchmark seed and the cell's coordinates, never on its index.
std::uint64_t
cellSeed(std::uint64_t seed, const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a over the name
    for (unsigned char c : name)
        h = (h ^ c) * 0x100000001b3ull;
    std::uint64_t x = h ^ (seed + 0x9e3779b97f4a7c15ull);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

RunPhases
scaled(RunPhases p, double scale)
{
    const auto s = [scale](Cycle c) {
        return static_cast<Cycle>(
            std::llround(static_cast<double>(c) * scale));
    };
    return RunPhases{s(p.warmup), s(p.measure), s(p.drain)};
}

WorkloadSpec
workloadOfKind(WorkloadKind kind)
{
    WorkloadSpec w;
    w.kind = kind;
    return w;
}

Cell
columnCell(std::string name, TopologyKind topo, QosMode mode,
           TrafficPattern pattern, double rate, RunPhases phases,
           std::uint64_t seed)
{
    Cell c;
    c.kind = CellKind::Column;
    c.topology = topo;
    c.mode = mode;
    c.pattern = pattern;
    c.rate = rate;
    c.phases = phases;
    c.seed = cellSeed(seed, name);
    c.name = std::move(name);
    return c;
}

/// column_low: the paper's 8-node column under light uniform load, where
/// the per-cycle prelude and the worklist sweep carry most of the cost.
std::vector<Cell>
columnLow(std::uint64_t seed, double scale)
{
    std::vector<Cell> cells;
    const RunPhases phases = scaled({5000, 12500, 7500}, scale);
    for (TopologyKind topo : kAllTopologies) {
        for (double rate : {0.01, 0.02, 0.03}) {
            cells.push_back(columnCell(
                strFormat("%s/%.2f", topologyName(topo), rate), topo,
                QosMode::Pvc, TrafficPattern::UniformRandom, rate, phases,
                seed));
        }
    }
    return cells;
}

/// column_sat: the same column past saturation under every policy, where
/// candidate scan, grant and the policy comparators dominate.
std::vector<Cell>
columnSat(std::uint64_t seed, double scale)
{
    std::vector<Cell> cells;
    const RunPhases phases = scaled({1000, 2500, 0}, scale);
    for (TopologyKind topo : kAllTopologies) {
        for (QosMode mode : kAllQosModes) {
            for (TrafficPattern pattern :
                 {TrafficPattern::UniformRandom, TrafficPattern::Hotspot}) {
                cells.push_back(columnCell(
                    strFormat("%s/%s/%s", topologyName(topo),
                              qosModeName(mode), patternName(pattern)),
                    topo, mode, pattern, 0.12, phases, seed));
            }
        }
    }
    return cells;
}

/// chip_churn: the 64-node consolidated chip with row meshes, handoffs,
/// rate modulators and flow-register reprogramming at frame boundaries.
std::vector<Cell>
chipChurn(std::uint64_t seed, double scale)
{
    std::vector<Cell> cells;
    // A churn epoch is one 50K-cycle QOS frame, so churn cells generate
    // past it; steady and bursty cells need no such length.
    const RunPhases shortPhases = scaled({2000, 15000, 3000}, scale);
    const RunPhases churnPhases = scaled({2000, 50000, 3000}, scale);
    const Cycle frameLen = scale < 1.0 ? scaled({0, 50000, 0}, scale).measure
                                       : 0;
    for (TopologyKind topo :
         {TopologyKind::Dps, TopologyKind::Mecs, TopologyKind::MeshX2}) {
        for (double rate : {0.02, 0.05}) {
            for (WorkloadKind kind : {WorkloadKind::Steady,
                                      WorkloadKind::Bursty,
                                      WorkloadKind::Churn}) {
                Cell c;
                c.kind = CellKind::Chip;
                c.name = strFormat("%s/%.2f/%s", topologyName(topo), rate,
                                   workloadKindName(kind));
                c.topology = topo;
                c.rate = rate;
                c.workload = workloadOfKind(kind);
                c.phases = kind == WorkloadKind::Churn ? churnPhases
                                                       : shortPhases;
                c.frameLen = frameLen;
                c.seed = cellSeed(seed, c.name);
                cells.push_back(c);
            }
        }
    }
    return cells;
}

/// fabric_1024: four 32x32-tile chips with two protected columns each,
/// joined point to point — 1024 routers, the only cell large enough for
/// sharding and the per-node throughput drop to matter.
std::vector<Cell>
fabric1024(std::uint64_t seed, double scale)
{
    Cell c;
    c.kind = CellKind::Fabric;
    c.name = "fabric_1024";
    c.topology = TopologyKind::Dps;
    c.mode = QosMode::Pvc;
    c.phases = scaled({750, 2250, 0}, scale);
    c.seed = cellSeed(seed, c.name);
    return {c};
}

/// audit: every policy on a saturated MECS hotspot and a loaded DPS
/// column, recorded, serialized, parsed back and checked.
std::vector<Cell>
audit(std::uint64_t seed, double scale)
{
    std::vector<Cell> cells;
    const RunPhases phases = scaled({500, 2000, 500}, scale);
    for (QosMode mode : kAllQosModes) {
        for (bool hot : {true, false}) {
            const TopologyKind topo =
                hot ? TopologyKind::Mecs : TopologyKind::Dps;
            const TrafficPattern pattern =
                hot ? TrafficPattern::Hotspot : TrafficPattern::UniformRandom;
            Cell c = columnCell(
                strFormat("%s/%s/%s", topologyName(topo), qosModeName(mode),
                          patternName(pattern)),
                topo, mode, pattern, hot ? 0.10 : 0.08, phases, seed);
            c.audit = true;
            cells.push_back(c);
        }
    }
    return cells;
}

CellRun
buildColumn(const Cell &cell, bool record)
{
    const ColumnConfig col = paperColumn(cell.topology, cell.mode);
    TrafficConfig traffic;
    traffic.pattern = cell.pattern;
    traffic.injectionRate = cell.rate;
    traffic.seed = cell.seed;
    if (cell.audit)
        traffic.genUntil = cell.phases.measureEnd();
    CellRun run;
    run.sim = std::make_unique<ColumnSim>(col, traffic, cell.workload);
    run.sim->setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    if (record) {
        run.rec = std::make_unique<TraceRecorder>(describeColumn(col));
        run.rec->setMeasureWindow(cell.phases.warmup,
                                  cell.phases.measureEnd());
        run.sim->attachTraceSink(run.rec.get());
    }
    return run;
}

/// The tenant mix comes from a ChurnDriver over the paper's 3-VM
/// placement for every chip cell; only churn cells advance its epochs.
CellRun
buildChip(const Cell &cell)
{
    ChipNetConfig cfg;
    cfg.column.topology = cell.topology;
    cfg.column.mode = cell.mode;
    cfg.column.numNodes = cfg.chip.nodesY();
    if (cell.frameLen > 0)
        cfg.column.pvc.frameLen = cell.frameLen;

    std::vector<ChurnTenant> initial;
    for (const VmSpec &s : vmPlacements()[0].servers)
        initial.push_back({s.id, s.threads, s.weight});
    CellRun run;
    run.churn = std::make_unique<ChurnDriver>(
        cfg, initial, workloadOfKind(WorkloadKind::Churn), cell.seed);
    cfg.column.pvc = run.churn->flowRegisters();

    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = cell.rate;
    traffic.genUntil = cell.phases.measureEnd();
    traffic.seed = cell.seed;
    const std::vector<bool> active = run.churn->activeComputeFlows();
    traffic.activeFlows.assign(active.begin(), active.end());

    auto sim = std::make_unique<ChipSim>(cfg, traffic, cell.workload);
    run.chip = sim.get();
    run.sim = std::move(sim);
    run.sim->setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    return run;
}

CellRun
buildFabric(const Cell &cell)
{
    FabricSpec spec;
    spec.chips = 4;
    spec.chip.tilesX = spec.chip.tilesY = 32;
    spec.chip.sharedColumns = {4, 12};
    spec.column = paperColumn(cell.topology, cell.mode);
    spec.links = LinkTopology::PointToPoint;
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = 0.05;
    traffic.seed = cell.seed;
    CellRun run;
    run.sim = std::make_unique<FabricSim>(spec, traffic);
    run.sim->setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    return run;
}

bool
churns(const Cell &cell)
{
    return cell.kind == CellKind::Chip &&
           cell.workload.kind == WorkloadKind::Churn;
}

} // namespace

CellRun
Cell::build(bool record) const
{
    switch (kind) {
      case CellKind::Column: return buildColumn(*this, record && audit);
      case CellKind::Chip: return buildChip(*this);
      case CellKind::Fabric: return buildFabric(*this);
    }
    TAQOS_ASSERT(false, "unknown cell kind");
    return {};
}

void
runTo(const Cell &cell, CellRun &run, Cycle to, Stepper &stepper)
{
    NetSim &sim = *run.sim;
    if (churns(cell)) {
        const Cycle epochLen = run.churn->epochLen();
        const Cycle genEnd = cell.phases.measureEnd();
        for (int e = run.churn->currentEpoch() + 1;
             static_cast<Cycle>(e) * epochLen < genEnd; ++e) {
            const Cycle boundary = static_cast<Cycle>(e) * epochLen;
            if (boundary > to)
                break;
            stepper.advance(sim, boundary - sim.now());
            run.churn->advanceTo(e);
            run.churn->applyTo(*run.chip);
        }
    }
    if (to > sim.now())
        stepper.advance(sim, to - sim.now());
}

void
resyncForRestore(const Cell &cell, CellRun &run, Cycle at)
{
    if (!churns(cell))
        return;
    const Cycle epochLen = run.churn->epochLen();
    const Cycle genEnd = cell.phases.measureEnd();
    int epoch = 0;
    while (static_cast<Cycle>(epoch + 1) * epochLen <= at &&
           static_cast<Cycle>(epoch + 1) * epochLen < genEnd)
        ++epoch;
    run.churn->advanceTo(epoch);
    run.churn->applyTo(*run.chip);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "column_low", "column_sat",   "chip_churn", "fabric_1024",
        "sweep_fig4", "sweep_cached", "audit",
    };
    return kNames;
}

std::vector<Cell>
workloadCells(const std::string &workload, std::uint64_t seed, double scale)
{
    if (workload == "column_low")
        return columnLow(seed, scale);
    if (workload == "column_sat")
        return columnSat(seed, scale);
    if (workload == "chip_churn")
        return chipChurn(seed, scale);
    if (workload == "fabric_1024")
        return fabric1024(seed, scale);
    if (workload == "audit")
        return audit(seed, scale);
    return {};
}

std::vector<double>
fig4Rates()
{
    std::vector<double> rates;
    for (int i = 1; i <= 15; ++i)
        rates.push_back(0.01 * i);
    return rates;
}

SweepSpec
fig4BenchSpec(std::uint64_t seed, double scale)
{
    SweepSpec spec = fig4Spec(TrafficPattern::UniformRandom, fig4Rates(),
                              scaled({1000, 2500, 1500}, scale));
    spec.baseSeed = cellSeed(seed, "sweep_fig4");
    return spec;
}

Cell
columnCellOf(const CellSpec &cell)
{
    Cell c = columnCell(strFormat("%s/%.2f", topologyName(cell.topology),
                                  cell.rate),
                        cell.topology, cell.mode, cell.pattern, cell.rate,
                        cell.phases, 0);
    c.seed = cell.seed;
    c.workload = cell.workloadSpec;
    return c;
}

} // namespace taqos::bench
