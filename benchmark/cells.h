/// \file cells.h
/// The benchmark's workloads as lists of cells. A cell is one simulation
/// built only through the library's public constructors (ColumnSim,
/// ChipSim + ChurnDriver, FabricSim), plus the cycle schedule that drives
/// it; taqos_bench times every call into it from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chip/churn.h"
#include "exp/sweep.h"
#include "sim/chip_sim.h"
#include "sim/net_sim.h"
#include "sim/trace_record.h"

namespace taqos::bench {

/// The seed golden.json was recorded with.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Advances a sim by n cycles: NetSim::run for measured passes, a
/// per-step timing loop for traced ones.
class Stepper {
  public:
    virtual ~Stepper() = default;
    virtual void advance(NetSim &sim, Cycle n) = 0;
};

class PlainStepper final : public Stepper {
  public:
    void advance(NetSim &sim, Cycle n) override { sim.run(n); }
};

enum class CellKind { Column, Chip, Fabric };

/// One built cell, ready to step. The sim is declared last so it is
/// destroyed before the recorder it points at.
struct CellRun {
    std::unique_ptr<TraceRecorder> rec;    ///< audit cells only
    std::unique_ptr<ChurnDriver> churn;    ///< chip cells: the tenant mix
    std::unique_ptr<NetSim> sim;
    ChipSim *chip = nullptr;               ///< chip cells: `sim` as a ChipSim
};

struct Cell {
    std::string name; ///< unique within its workload; the golden key
    CellKind kind = CellKind::Column;
    TopologyKind topology = TopologyKind::Dps;
    QosMode mode = QosMode::Pvc;
    TrafficPattern pattern = TrafficPattern::UniformRandom;
    WorkloadSpec workload;
    double rate = 0.05;
    RunPhases phases;
    std::uint64_t seed = 0;
    /// Audit cells: generation stops at the measurement end so the drain
    /// phase can empty the network, and a TraceRecorder is attached.
    bool audit = false;
    /// Chip cells: QOS frame length (tenant-churn epoch length).
    Cycle frameLen = 0;

    Cycle cycles() const { return phases.total(); }

    /// Construct the sim. `record` attaches the TraceRecorder (audit
    /// cells only; checkpoint probes build without it).
    CellRun build(bool record) const;
};

/// Advance `run` to absolute cycle `to`, applying tenant-churn epochs at
/// their frame-aligned boundaries inside the generation horizon (the
/// sweep's runChipChurnCell segment loop).
void runTo(const Cell &cell, CellRun &run, Cycle to, Stepper &stepper);

/// Before restoring a snapshot taken at cycle `at` into a fresh build:
/// replay the churn schedule to the epoch the snapshot was taken in and
/// apply it (churn.h's documented restore recipe).
void resyncForRestore(const Cell &cell, CellRun &run, Cycle at);

/// Every workload, in the order run.py runs them.
const std::vector<std::string> &workloadNames();

/// The cells of a simulation workload; `scale` shrinks every cycle count
/// (the smoke test runs at 1/50). Empty for the sweeps, which run a
/// SweepSpec instead.
std::vector<Cell> workloadCells(const std::string &workload,
                                std::uint64_t seed, double scale);

/// The nightly fig4 grid's rates, 0.01 to 0.15 (sweep_cli preset=fig4).
std::vector<double> fig4Rates();

/// The sweeps' grid: the nightly fig4 grid (5 topologies x 15 rates,
/// uniform, PVC) at 1/20 of the paper's phases, seeded from `seed`.
SweepSpec fig4BenchSpec(std::uint64_t seed, double scale);

/// The column cell a SweepRunner builds for `cell` (same construction as
/// the sweep's LatencyLoad path), for stepping fig4 cells serially.
Cell columnCellOf(const CellSpec &cell);

} // namespace taqos::bench
