/// \file churn.h
/// Tenant churn: VMs arriving at and departing from the consolidated
/// server mid-run. The driver owns an OsScheduler and a deterministic
/// event schedule — one arrival or departure per epoch (a configurable
/// number of QOS frames), derived purely from the seed and the epoch
/// index, never from execution order — and reprograms a live one-chip,
/// one-column FabricSim at each epoch boundary: column flow registers
/// rewritten through Network::reprogramFlowWeights, departed tenants'
/// compute flows silenced and arriving tenants' flows enabled through
/// TrafficGenerator::setFlowActive.
///
/// Because the schedule is a pure function of (seed, epoch), a run can be
/// checkpointed mid-epoch and resumed bit-identically: rebuild the sim
/// and a fresh driver, advanceTo() the saved epoch, applyTo() the sim,
/// restore, continue. The co-scheduling invariant is asserted after every
/// event.
#pragma once

#include <cstdint>
#include <vector>

#include "chip/os.h"
#include "topo/fabric.h"
#include "traffic/workload_spec.h"

namespace taqos {

class FabricSim;

/// One initially admitted VM.
using ChurnTenant = VmSpec;

class ChurnDriver {
  public:
    /// Admits the initial tenants (epoch 0 state). `spec` must be a
    /// Churn-kind workload; `seed` drives the event schedule.
    ChurnDriver(const ChipNetConfig &cfg,
                const std::vector<ChurnTenant> &initial,
                const WorkloadSpec &spec, std::uint64_t seed);

    /// Epoch length in cycles: churnFrames x the column's QOS frame, so
    /// every tenant change lands exactly on a frame boundary.
    Cycle epochLen() const;

    int currentEpoch() const { return epoch_; }

    /// Replay the event schedule up to `epoch` (monotonic; asserts the
    /// co-scheduling invariant after every event).
    void advanceTo(int epoch);

    /// Flow registers for the current tenant mix (what the hypervisor
    /// programs into the shared column).
    PvcParams flowRegisters() const;

    /// Per-flow activity of the current mix for the chip's compute flows
    /// (the flows FabricLayout::originOf names a compute node for).
    /// Terminal flows are reported false and never touched by applyTo —
    /// the runner owns them (they carry the adversarial rates under
    /// churnAttack).
    std::vector<bool> activeComputeFlows() const;

    /// Push the current epoch's state into a live sim: rewrite the flow
    /// registers and reprogram the compute flows' activity. Call at the
    /// frame-aligned epoch boundary (or right after a checkpoint
    /// restore, to re-establish the epoch the snapshot was taken in).
    void applyTo(FabricSim &sim) const;

    const OsScheduler &os() const { return os_; }
    int arrivals() const { return arrivals_; }
    int departures() const { return departures_; }
    int liveVms() const { return static_cast<int>(os_.vms().size()); }

  private:
    void step(); ///< apply epoch_ + 1's event

    FabricLayout layout_; ///< of cfg.fabricSpec(), column QoS included
    WorkloadSpec spec_;
    std::uint64_t seed_;
    OsScheduler os_;
    int epoch_ = 0;
    int nextVmId_ = 0;
    int arrivals_ = 0;
    int departures_ = 0;
};

} // namespace taqos
