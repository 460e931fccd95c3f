/// \file experiments.h
/// Runners for every table and figure in the paper's evaluation (Sec. 5).
/// Each returns a structured result; the bench binaries format them into
/// the same rows/series the paper reports.
///
/// Every simulation-backed runner is a thin wrapper around the parallel
/// sweep engine (exp/sweep.h): a `*Spec()` builder names the grid, a
/// `*FromSweep()` mapper turns the engine's generic cell records back
/// into the figure's row type, and `run*()` composes the two through a
/// SweepRunner. Drivers that want the JSON result pipeline (or a custom
/// thread count) call the spec builder and the runner themselves.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "exp/sweep.h"
#include "power/router_power.h"
#include "sim/sim_config.h"
#include "topo/fabric.h"
#include "topo/topology.h"
#include "traffic/pattern.h"

namespace taqos {

/// Default column configuration of the paper (Table 1 + Sec. 4): 8 nodes,
/// 64 injectors, PVC with a 50K-cycle frame.
ColumnConfig paperColumn(TopologyKind kind, QosMode mode = QosMode::Pvc);

// ---------------------------------------------------------------- Fig. 3

struct AreaRow {
    TopologyKind topology;
    AreaBreakdown area;
};

/// Router area overhead per topology (input buffers, crossbar, flow state;
/// row-input buffering is the topology-independent dotted line).
std::vector<AreaRow> runFig3Area();

// ---------------------------------------------------------------- Fig. 4

struct LatencyPoint {
    double injectionRate = 0.0; ///< flits/cycle/injector
    double avgLatency = 0.0;    ///< cycles (generation to tail ejection)
    double throughput = 0.0;    ///< delivered flits/cycle/injector
    double p95Latency = 0.0;
    bool saturated = false; ///< latency diverged / deliveries incomplete
};

struct LatencySeries {
    TopologyKind topology;
    std::vector<LatencyPoint> points;
};

/// Latency/throughput vs offered load for all five topologies, under any
/// arbitration policy (the paper's Fig. 4 uses PVC).
std::vector<LatencySeries> runFig4Latency(TrafficPattern pattern,
                                          const std::vector<double> &rates,
                                          const RunPhases &phases = {},
                                          QosMode mode = QosMode::Pvc);

/// The sweep grid behind runFig4Latency (topologies x rates, one pattern).
SweepSpec fig4Spec(TrafficPattern pattern, const std::vector<double> &rates,
                   const RunPhases &phases = {}, QosMode mode = QosMode::Pvc);
std::vector<LatencySeries> latencySeriesFromSweep(const SweepResult &result);

// ------------------------------------------------- Sec. 5.2 (text): E4

struct SaturationPreemption {
    TopologyKind topology;
    double packetRate = 0.0; ///< preemption events / delivered packets
    double hopRate = 0.0;    ///< wasted hop traversals / total traversals
};

/// Preemption (replay) rates in saturation for a pattern.
std::vector<SaturationPreemption>
runSaturationPreemption(TrafficPattern pattern, double rate = 0.15,
                        const RunPhases &phases = {});

SweepSpec saturationSpec(TrafficPattern pattern, double rate = 0.15,
                         const RunPhases &phases = {},
                         QosMode mode = QosMode::Pvc);

// --------------------------------------------------------------- Table 2

struct FairnessRow {
    TopologyKind topology;
    double meanFlits = 0.0;
    double minFlits = 0.0;
    double maxFlits = 0.0;
    double stddevFlits = 0.0;
    std::uint64_t preemptions = 0;

    double minPct() const { return 100.0 * minFlits / meanFlits; }
    double maxPct() const { return 100.0 * maxFlits / meanFlits; }
    double stddevPct() const { return 100.0 * stddevFlits / meanFlits; }
};

/// Hotspot fairness: every injector streams to the node-0 terminal;
/// reports per-flow delivered flits (mean/min/max/stddev), as Table 2.
/// `mode` selects the arbitration policy under test (the paper's table
/// evaluates PVC; the starvation premise is no-qos).
std::vector<FairnessRow> runTable2Fairness(Cycle measureCycles = 280000,
                                           Cycle warmup = 20000,
                                           QosMode mode = QosMode::Pvc);

SweepSpec table2Spec(Cycle measureCycles = 280000, Cycle warmup = 20000,
                     QosMode mode = QosMode::Pvc);
std::vector<FairnessRow> fairnessFromSweep(const SweepResult &result);

// --------------------------------------------------------- Figs. 5 and 6

struct AdversarialResult {
    TopologyKind topology;
    int workload = 0; ///< 1 or 2 (grids may carry both)
    double preemptedPacketsPct = 0.0; ///< Fig. 5 "Packets"
    double replayedHopsPct = 0.0;     ///< Fig. 5 "Hops"
    double slowdownPct = 0.0;         ///< Fig. 6 vs per-flow queueing
    double avgDeviationPct = 0.0;     ///< Fig. 6 vs max-min expectation
    double minDeviationPct = 0.0;
    double maxDeviationPct = 0.0;
    Cycle completionCycle = 0;
};

/// Workload 1 or 2 (Sec. 5.3): runs PVC and the preemption-free per-flow
/// queueing reference on identical traffic; measures preemption incidence,
/// completion-time slowdown, and deviation from max-min throughput.
std::vector<AdversarialResult> runAdversarial(int workload,
                                              Cycle genCycles = 100000);

/// `workload` 1 or 2 selects one workload; 0 puts both on the grid (the
/// fig5/fig6 drivers run them as one sweep for full parallelism).
SweepSpec adversarialSpec(int workload, Cycle genCycles = 100000);
std::vector<AdversarialResult> adversarialFromSweep(const SweepResult &result);

// ---------------------------------------------------------------- Fig. 7

enum class HopKind { Source, Intermediate, Destination };

struct EnergyRow {
    TopologyKind topology;
    /// Energy (pJ/flit) split by component, per hop kind, plus the 3-hop
    /// route total (four router traversals for mesh/DPS; source +
    /// express channel + destination for MECS).
    double srcPj[3] = {};  ///< [buffers, xbar, flow table]
    double intPj[3] = {};
    double dstPj[3] = {};
    double threeHopPj[3] = {};

    static double total(const double c[3]) { return c[0] + c[1] + c[2]; }
};

std::vector<EnergyRow> runFig7Energy();

// ------------------------------------- consolidated server (Secs. 1, 2)

struct ChipVmShare {
    int vmId = -1;
    std::uint32_t weight = 1;
    std::size_t domainNodes = 0;
    std::uint64_t flits = 0;       ///< delivered in the measure window
    double flitsPerNode = 0.0;     ///< service normalized by domain size
};

struct ChipConsolidationResult {
    Cycle drainCycle = kNoCycle;   ///< kNoCycle when the budget ran out
    std::uint64_t deliveredPackets = 0;
    std::uint64_t handoffs = 0;    ///< row-to-column boundary crossings
    std::uint64_t preemptions = 0;
    double avgLatency = 0.0;       ///< end-to-end, row segment included
    std::vector<ChipVmShare> vms;
};

/// The paper's consolidated-server scenario cycle-accurate end to end on
/// the full 8x8 chip: the hypervisor admits three VMs with different SLA
/// weights, programs the shared column's flow registers from the
/// placements, and every VM's memory traffic rides its row mesh into the
/// PVC-protected column. Runs to drain and verifies the chip invariants.
ChipConsolidationResult
runChipConsolidation(TopologyKind kind = TopologyKind::Dps,
                     double ratePerNode = 0.05,
                     const RunPhases &phases = {});

SweepSpec chipConsolidationSpec(TopologyKind kind = TopologyKind::Dps,
                                double ratePerNode = 0.05,
                                const RunPhases &phases = {});
/// Maps the first cell of a ChipConsolidation sweep back into the
/// structured result (one cell == one scenario run).
ChipConsolidationResult chipConsolidationFromCell(const CellResult &cell);

// ------------------------------------- fabric-scale consolidation (PR 8)

/// The consolidated-server scenario scaled to a multi-chip fabric.
struct FabricConsolidationConfig {
    int chips = 4;
    ChipConfig chip;
    TopologyKind topology = TopologyKind::Dps;
    QosMode mode = QosMode::Pvc;
    LinkTopology links = LinkTopology::PointToPoint;
    double ratePerNode = 0.05; ///< flits/cycle per owned compute node
    /// Each owned compute node also streams this fraction of its rate
    /// into every remote chip's nearest protected column.
    double remoteShare = 0.25;
    std::uint64_t seed = 1;
    RunPhases phases;
    /// Dynamic-workload shape (steady/bursty/ramp; trace and churn have
    /// no fabric embedding). Bursty/ramp modulate every block generator
    /// with per-block decorrelated modulator streams.
    WorkloadSpec workload;
    /// Record the flit trace and run the independent checker's audit on
    /// it (result.auditOk / auditEvents / auditDiagnostic).
    bool audit = false;
};

struct FabricVmShare {
    int chip = 0;
    int vmId = -1;
    std::uint32_t weight = 1;
    std::size_t domainNodes = 0;
    std::uint64_t flits = 0;   ///< delivered for this VM's flows (local
                               ///< and remote), in the measure window
    double flitsPerNode = 0.0;
};

struct FabricConsolidationResult {
    int nodes = 0;                 ///< routers in the fabric
    Cycle drainCycle = kNoCycle;   ///< kNoCycle when the budget ran out
    std::uint64_t deliveredPackets = 0;
    std::uint64_t handoffs = 0;    ///< row-to-column boundary crossings
    std::uint64_t linkHops = 0;    ///< inter-chip link traversals
    std::uint64_t preemptions = 0;
    double avgLatency = 0.0;       ///< end-to-end, rows and links included
    std::uint64_t digest = 0;      ///< metricsDigest (run identity)
    std::vector<FabricVmShare> vms;
    /// Checker audit of the recorded trace (cfg.audit only).
    bool auditOk = true;
    std::uint64_t auditEvents = 0;
    std::string auditDiagnostic;
};

/// The consolidated-server scenario at fabric scale: every chip runs its
/// own hypervisor admitting the paper's three-VM mix, every shared column
/// of every chip is an active QOS block with flow registers programmed
/// from the VM placements, and each VM's memory traffic targets its local
/// protected columns plus (at `remoteShare` of its rate) the remote
/// chips' columns across the inter-chip links. Runs to drain and checks
/// the fabric invariants.
FabricConsolidationResult
runFabricConsolidation(const FabricConsolidationConfig &cfg = {});

} // namespace taqos
