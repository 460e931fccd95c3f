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
#include "traffic/lookahead.h"
#include "traffic/pattern.h"
#include "traffic/source.h"
#include "traffic/workload_spec.h"

namespace taqos {

class RateModulator;

/// Each flow's Bernoulli process is a look-ahead stream
/// (traffic/lookahead.h): it runs ahead to its next packet, so a tick
/// visits only the flows due at its cycle, in flow order, and returns at
/// once when none is. The streams are primed by the first tick, and a
/// tick at any cycle but the one after the last restarts them from where
/// they stand, as if the cycles between had not been generated.
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

    /// The flows the last tick enqueued a packet for, in flow order (one
    /// packet each).
    const std::vector<FlowId> &fired() const { return fired_; }

    /// Packets whose generation was skipped due to a full source queue.
    std::uint64_t suppressed() const { return suppressed_; }

    /// Switch one flow on or off mid-run (the tenant-churn driver's hook;
    /// apply at frame boundaries); a flow switched on runs at its
    /// configured rate (TrafficConfig::rateOf). An inactive flow's stream
    /// freezes — it consumes no draws — so the change is exactly
    /// reproducible under either engine and across checkpoint restore.
    /// The flow's look-ahead restarts at the next tick's cycle.
    void setFlowActive(FlowId flow, bool active);

    /// The installed modulator (null for steady workloads).
    const RateModulator *modulator() const { return mod_.get(); }

    /// Checkpointing: the per-flow RNG streams as they stand at the cycle
    /// boundary, plus the suppression counter (the rest of the generator
    /// is configuration), followed by the modulator's words when a
    /// modulator is installed.
    std::vector<std::uint64_t> packState() const override;
    void unpackState(const std::vector<std::uint64_t> &words) override;

  private:
    /// Restart every stream's look-ahead at `now` from where it stands.
    void rebase(Cycle now);
    /// Step `rng` through flow f's trials from its stream's `from` up to
    /// `limit` (steady, or under the modulator) to the next event.
    Event scan(std::size_t f, Rng &rng, Cycle limit) const;
    /// Search flow f's stream on from its `from` for its next event.
    void search(std::size_t f);
    /// Handle flow f's event due at `now`: a packet, or a stop after
    /// which its search goes on (and may find a packet at `now`).
    void visit(std::size_t f, Cycle now, PacketPool &pool,
               std::vector<InjectorQueue> &injectors, SimMetrics &metrics);
    /// Flow f's packet stream as it stands at the cycle boundary.
    Rng standing(std::size_t f) const;
    /// Destination for one packet of `flow`, drawn from its stream.
    NodeId pickDest(FlowId flow);

    ColumnConfig col_;
    TrafficConfig traffic_;
    std::vector<LookaheadStream> streams_; ///< one packet stream per flow
    std::vector<double> genProb_; ///< per-cycle packet probability per flow
    /// The cycle the next tick continues at; kNoCycle until the first
    /// tick after construction or unpackState primes the streams.
    Cycle next_ = kNoCycle;
    /// No stream's event is due before this cycle (a lower bound).
    Cycle nextDue_ = kNoCycle;
    std::vector<FlowId> fired_;
    std::uint64_t suppressed_ = 0;
    std::unique_ptr<RateModulator> mod_; ///< null = steady
};

} // namespace taqos
