/// \file generator.h
/// Stochastic packet generation: one independent Bernoulli process per
/// injector, seeded deterministically so a run is exactly reproducible
/// (and identical across QOS modes, enabling the Fig. 6 slowdown
/// comparison against the preemption-free reference).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "noc/metrics.h"
#include "noc/packet.h"
#include "noc/ports.h"
#include "topo/topology.h"
#include "traffic/pattern.h"
#include "traffic/source.h"
#include "traffic/workload_spec.h"

namespace taqos {

class RateModulator;

class TrafficGenerator : public TrafficSource {
  public:
    TrafficGenerator(const ColumnConfig &col, const TrafficConfig &traffic);
    /// Generate under a dynamic workload: bursty/ramp specs install the
    /// matching RateModulator (traffic/dynamic.h), which scales each
    /// flow's per-cycle probability; every other kind is plain steady
    /// generation. The modulator's streams are split from the traffic
    /// seed, so its draws never perturb the packet streams.
    TrafficGenerator(const ColumnConfig &col, const TrafficConfig &traffic,
                     const WorkloadSpec &workload);
    ~TrafficGenerator() override;

    /// Generate this cycle's packets into the injector queues.
    void tick(Cycle now, PacketPool &pool,
              std::vector<InjectorQueue> &injectors,
              SimMetrics &metrics) override;

    /// Packets whose generation was skipped due to a full source queue.
    std::uint64_t suppressed() const { return suppressed_; }

    /// Destination for one packet of `flow` (exposed for tests).
    NodeId pickDest(FlowId flow);

    /// Switch one flow on or off mid-run (the tenant-churn driver's hook;
    /// apply at frame boundaries); a flow switched on runs at its
    /// configured rate (TrafficConfig::rateOf). An inactive flow's stream
    /// freezes — it consumes no draws — so the change is exactly
    /// reproducible under either engine and across checkpoint restore.
    void setFlowActive(FlowId flow, bool active);

    /// The installed modulator (null for steady workloads).
    const RateModulator *modulator() const { return mod_.get(); }

    /// Checkpointing: the per-flow RNG streams plus the suppression
    /// counter (the rest of the generator is configuration), followed by
    /// the modulator's words when a modulator is installed.
    std::vector<std::uint64_t> packState() const override;
    void unpackState(const std::vector<std::uint64_t> &words) override;

  private:
    ColumnConfig col_;
    TrafficConfig traffic_;
    std::vector<Rng> rng_;        ///< one stream per flow
    std::vector<double> genProb_; ///< per-cycle packet probability per flow
    /// Scratch for the batched per-cycle Bernoulli pass (see tick):
    /// advancing all streams in one tight loop lets the independent
    /// xoshiro chains pipeline, which halves the draw cost that dominates
    /// low-rate simulations.
    std::vector<std::uint64_t> draws_;
    std::uint64_t suppressed_ = 0;
    std::unique_ptr<RateModulator> mod_; ///< null = steady
    std::vector<double> effProb_;        ///< scratch: modulated probabilities
};

} // namespace taqos
