/// \file sweep.h
/// Declarative parallel experiment sweeps — the engine behind every paper
/// figure and ablation.
///
/// A SweepSpec names a scenario (latency/load curve, hotspot fairness,
/// adversarial preemption, whole-chip consolidation — the one-chip
/// runFabricConsolidation of core/experiments.h) and the axes of a grid
/// over it: topology x traffic pattern x QOS mode x injection load x
/// VM placement x replicate seed. SweepSpec::expand() flattens the grid
/// into fully-determined CellSpecs; SweepRunner executes the cells on a
/// std::thread pool and collects per-cell metric records plus per-grid-
/// point aggregates (mean/stddev across the replicate seeds).
///
/// Determinism contract: each cell's RNG seed is derived from the spec
/// alone (never from execution order or wall time) and a cell touches no
/// shared mutable state, so a parallel run is bit-identical to a serial
/// run of the same spec — asserted by tests/exp/test_sweep.cpp and by the
/// CI smoke sweep.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chip/os.h"
#include "common/stats.h"
#include "qos/pvc.h"
#include "sim/sim_config.h"
#include "topo/topology.h"
#include "traffic/pattern.h"
#include "traffic/workload_spec.h"

namespace taqos {

class CellCache;

/// What a cell simulates.
enum class Scenario {
    LatencyLoad,       ///< Fig. 4 family: one column, pattern x rate
    Hotspot,           ///< Table 2: all injectors to one terminal
    Adversarial,       ///< Figs. 5/6: workload 1/2 vs preemption-free ref
    ChipConsolidation, ///< Secs. 1-2: VMs on the full chip
};

const char *scenarioName(Scenario s);
std::optional<Scenario> parseScenario(const std::string &name);

/// Named VM placement presets for the consolidated server (the spec's
/// `placements` axis and FabricConsolidationConfig::placement index this
/// table). Preset 0 is the paper's consolidated-server mix.
struct VmPlacement {
    const char *name;
    std::vector<VmSpec> servers;
};

const std::vector<VmPlacement> &vmPlacements();

/// One fully-determined cell of the expanded grid.
struct CellSpec {
    Scenario scenario = Scenario::LatencyLoad;
    TopologyKind topology = TopologyKind::Dps;
    TrafficPattern pattern = TrafficPattern::UniformRandom;
    QosMode mode = QosMode::Pvc;
    double rate = 0.05;  ///< per injector (column) / per node (chip)
    int workload = 0;    ///< Adversarial: 1 or 2
    int placement = 0;   ///< ChipConsolidation: index into vmPlacements()
    /// Dynamic-workload shape driving this cell (steady by default).
    /// A non-steady spec changes the cell's dynamics, so it joins the
    /// seed mix and the cache key; a steady spec leaves both untouched —
    /// pre-existing sweeps keep their seeds and cache fragments.
    WorkloadSpec workloadSpec;
    int replicate = 0;   ///< 0..replicates-1
    std::uint64_t seed = 0; ///< traffic seed for this cell
    RunPhases phases;
    Cycle genCycles = 100000; ///< Adversarial generation horizon
};

/// Scalar metrics one cell produced, in a stable emission order.
struct CellResult {
    CellSpec spec;
    std::vector<std::pair<std::string, double>> metrics;

    void put(std::string name, double v)
    {
        metrics.emplace_back(std::move(name), v);
    }
    /// Value of a named metric (asserts when absent).
    double get(const std::string &name) const;
    bool has(const std::string &name) const;
};

/// The grid. Empty axis vectors select the scenario defaults; axes a
/// scenario does not consume are collapsed to one element so they never
/// multiply the grid silently (sweepSpecError names one that holds
/// anything else).
struct SweepSpec {
    std::string name = "sweep";
    Scenario scenario = Scenario::LatencyLoad;

    std::vector<TopologyKind> topologies; ///< default: the paper's five
    std::vector<TrafficPattern> patterns; ///< LatencyLoad axis
    std::vector<QosMode> modes;           ///< default: {Pvc}
    std::vector<double> rates;            ///< default: {0.05}
    std::vector<int> workloads;           ///< Adversarial; default: {1, 2}
    std::vector<int> placements;          ///< Chip; default: {0}
    /// Dynamic-workload axis; default: {steady}. Which kinds each
    /// scenario runs is workloadScenarioError's rule (asserted by
    /// canonical()).
    std::vector<WorkloadSpec> workloadSpecs;

    /// Replicate seeds per grid point (mean/stddev across them); at least 1.
    int replicates = 1;
    std::uint64_t baseSeed = 0x7a05c0de;
    /// When true (default) every cell gets an independent seed mixed from
    /// the base seed and the cell coordinates. When false every cell uses
    /// `baseSeed` verbatim — the figure runners use this to stay
    /// bit-identical to the pre-engine serial loops.
    bool mixSeeds = true;

    RunPhases phases;
    Cycle genCycles = 100000; ///< Adversarial generation horizon; above 0

    /// Copy with defaults filled in and unused axes collapsed.
    SweepSpec canonical() const;

    /// Flatten the (canonical) grid; cell order is deterministic:
    /// topology-major, then pattern, mode, rate, workload, placement,
    /// workload spec, replicate.
    std::vector<CellSpec> expand() const;
};

/// What `spec` asks for that its scenario cannot run, in one line, or ""
/// when there is none: a replicate count below 1, a zero generation
/// horizon in the adversarial scenario, an axis the scenario does not
/// sweep holding other than the one value canonical() collapses it to, or
/// a workload spec the scenario cannot run. canonical() asserts on it
/// after collapsing, and CLIs call it before any cell runs.
std::string sweepSpecError(const SweepSpec &spec);

/// Why `scenario` cannot run workload `w`, as one "workload '<spec>'
/// cannot run in the <scenario> scenario: ..." line, or "" when it can:
/// trace replay drives only the latency_load column, tenant churn only
/// chip_consolidation, and bursty/ramp compose with every scenario. The
/// one rule behind sweepSpecError and the CLIs that run a scenario's
/// cells outside a sweep (fig4_latency, verify_cli's column audit).
std::string workloadScenarioError(const WorkloadSpec &w, Scenario scenario);

/// Mean/stddev/min/max of every metric of one grid point across its
/// replicate seeds.
struct AggregateCell {
    CellSpec key; ///< first replicate's spec
    std::vector<std::pair<std::string, RunningStat>> stats;

    const RunningStat &get(const std::string &name) const;
};

/// Group per-cell results (in expansion order, replicates adjacent) into
/// per-grid-point aggregates.
std::vector<AggregateCell> aggregateCells(const SweepSpec &spec,
                                          const std::vector<CellResult> &cells);

struct SweepResult {
    SweepSpec spec;                      ///< canonical form actually run
    std::vector<CellResult> cells;       ///< expansion order
    std::vector<AggregateCell> aggregates;
    double wallMs = 0.0; ///< not serialized (kept out of the JSON so
                         ///< parallel and serial runs emit identical bytes)
    /// Cache accounting for the run (zero when no cache was passed);
    /// not serialized for the same byte-identity reason as wallMs.
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;

    /// Serialize spec + cells + aggregates (schema taqos-sweep/v1; see
    /// README "The exp/ layer"). Deterministic: depends only on the
    /// metric values, never on thread count or timing.
    std::string toJson() const;
    bool writeJson(const std::string &path) const;
};

/// Executes the cells of a spec on a thread pool. Stateless between runs;
/// safe to reuse. Each cell runs on the serial engine, so run() starts
/// min(threads(), hardware_concurrency, cells to run) workers: one core
/// per cell, never more workers than the machine or the grid.
class SweepRunner {
  public:
    /// `numThreads` <= 0 selects std::thread::hardware_concurrency().
    explicit SweepRunner(int numThreads = 0);

    /// Run the spec's cells, each one a runCell() call. With a cache
    /// (exp/cell_cache.h), cells whose content key is already stored are
    /// loaded instead of run and fresh cells are stored back, with the
    /// merged output byte-identical to a cold run. The cache is the
    /// sweep's only reuse layer: no cell starts from a checkpoint.
    SweepResult run(const SweepSpec &spec, CellCache *cache = nullptr) const;

    /// Execute one cell (pure: owns every sim it constructs; no shared
    /// mutable state). Exposed for tests and custom drivers.
    static CellResult runCell(const CellSpec &cell);

    int threads() const { return threads_; }

  private:
    int threads_;
};

} // namespace taqos
