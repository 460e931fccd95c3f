/// \file column_sim.h
/// The cycle-level simulator of one QOS-protected shared column — the
/// in-house-simulator equivalent the paper's evaluation runs on. A thin
/// specialization of the NetSim engine (sim/net_sim.h): ColumnNetwork
/// provides the fabric, TrafficGenerator / TraceReplayer provide the
/// traffic, and the engine supplies the per-cycle phase loop.
#pragma once

#include <memory>

#include "sim/net_sim.h"
#include "topo/column_network.h"
#include "traffic/generator.h"
#include "traffic/trace.h"

namespace taqos {

class ColumnSim : public NetSim {
  public:
    /// Drive the column under a declarative workload: steady (the
    /// default), bursty or ramp generation, or trace replay (the spec's
    /// tracePath is loaded here; a load failure asserts — CLIs validate
    /// paths up front via makeTrafficSource).
    ColumnSim(const ColumnConfig &col, const TrafficConfig &traffic,
              const WorkloadSpec &workload = {});
    /// Drive the column from a pre-recorded trace instead of a stochastic
    /// generator (bit-identical replays, external workloads).
    ColumnSim(const ColumnConfig &col, TrafficTrace trace);
    ~ColumnSim() override;

    ColumnNetwork &network()
    {
        return static_cast<ColumnNetwork &>(*net_);
    }
    const ColumnNetwork &network() const
    {
        return static_cast<const ColumnNetwork &>(*net_);
    }
    const ColumnConfig &cfg() const { return network().cfg(); }
    /// Null when the sim was constructed from a trace.
    TrafficGenerator *traffic() { return gen_; }

  private:
    explicit ColumnSim(std::unique_ptr<ColumnNetwork> net);

    TrafficGenerator *gen_ = nullptr; ///< owned by NetSim::source_
};

} // namespace taqos
