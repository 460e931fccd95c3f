/// \file column_sim.h
/// The cycle-level simulator of one QOS-protected shared column — the
/// in-house-simulator equivalent the paper's evaluation runs on. A
/// ColumnSim is the row-less one-chip FabricSim (columnFabricSpec): a
/// fabric whose grid holds only its shared column, fed directly by the
/// column's TrafficGenerator or TraceReplayer. The engine, checkpoints
/// and invariants are all the fabric's.
#pragma once

#include <utility>

#include "sim/fabric_sim.h"

namespace taqos {

class ColumnSim : public FabricSim {
  public:
    /// Drive the column under a declarative workload: steady (the
    /// default), bursty or ramp generation, or trace replay (the spec's
    /// tracePath is loaded here; a load failure asserts — CLIs load the
    /// trace up front with loadTraceFile and fail with one line).
    ColumnSim(const ColumnConfig &col, const TrafficConfig &traffic,
              const WorkloadSpec &workload = {})
        : FabricSim(columnFabricSpec(col), traffic, workload)
    {
    }
    /// Drive the column from a pre-recorded trace instead of a stochastic
    /// generator (bit-identical replays, external workloads).
    ColumnSim(const ColumnConfig &col, TrafficTrace trace)
        : FabricSim(columnFabricSpec(col), std::move(trace))
    {
    }

    /// The column as built (flow count filled in).
    const ColumnConfig &cfg() const { return network().blockCfg(0); }
};

} // namespace taqos
