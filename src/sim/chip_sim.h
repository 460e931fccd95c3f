/// \file chip_sim.h
/// Whole-chip cycle-level simulation: the paper's headline scenario —
/// VMs on compute nodes sharing one QOS-protected column — run
/// cycle-accurately end to end. A ChipSim is the one-chip, one-column
/// FabricSim (ChipNetConfig::fabricSpec): rows, handoffs, checkpoints
/// and invariants are all the fabric's.
///
/// A packet's journey on the chip:
///   1. generated into its compute node's aggregate source queue,
///   2. row segment: NoQos row mesh to the row's column-entry node
///      (`dst` = entry node, `finalDst` = the real destination row),
///   3. handoff: the boundary buffer releases the row window slot and
///      re-queues the packet into its column-entrance injector queue,
///   4. column segment: normal QOS arbitration, preemption, ACK/NACK —
///      identical to the standalone column simulator.
/// The column's own terminal flows (injector 0) skip steps 1-3; traffic
/// on terminal flows only leaves the rows idle and is cycle-identical to
/// ColumnSim.
#pragma once

#include "sim/fabric_sim.h"

namespace taqos {

class ChipSim : public FabricSim {
  public:
    /// Steady and churn workloads run the plain generator (churn is
    /// driven from outside by ChurnDriver); bursty/ramp modulate it.
    ChipSim(const ChipNetConfig &cfg, const TrafficConfig &traffic,
            const WorkloadSpec &workload = {})
        : FabricSim(cfg.fabricSpec(), traffic, workload)
    {
    }
};

} // namespace taqos
