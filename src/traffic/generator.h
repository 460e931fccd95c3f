/// \file generator.h
/// Stochastic packet generation: one independent Bernoulli process per
/// flow, seeded deterministically so a run is exactly reproducible (and
/// identical across QOS modes, enabling the Fig. 6 slowdown comparison
/// against the preemption-free reference). One generator drives one
/// column, or every flow of a fabric through a per-flow origin table.
#pragma once

#include <cstdint>
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

/// Block `g`'s traffic seed in a fabric: the block's packet streams and
/// ON/OFF chains split from it, so the blocks' draws decorrelate while
/// block 0 keeps `seed` (a one-block fabric generates the column's
/// traffic).
inline std::uint64_t
blockSeed(std::uint64_t seed, int g)
{
    return seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(g);
}

/// Where one flow's packets enter the network: each packet is built with
/// its final source and destination and enqueued here directly. A flow
/// that starts in the column (a terminal flow, or any flow of a row-less
/// fabric) goes into its own entrance queue, the one tick() is given; a
/// row flow into its origin compute node's row queue, addressed to the
/// origin chip's block-entry node with the real destination in
/// `finalDst`. A flow no node originates has no `src` and never
/// generates.
struct FlowInjection {
    /// The block's first node: destination `d` of the block's column
    /// (0..numNodes-1) is node `base + d`.
    NodeId base = 0;
    /// The block node the packet enters the column at (`src`).
    NodeId src = kInvalidNode;
    /// Row flows: the origin's row queue and the block-entry node the
    /// row mesh carries the packet to; null for flows that start in the
    /// column.
    InjectorQueue *row = nullptr;
    NodeId entry = kInvalidNode;
};

/// Each flow's Bernoulli process is a look-ahead stream
/// (traffic/lookahead.h): it runs ahead to its next packet, so a tick
/// visits only the flows due at its cycle, in flow order, and returns at
/// once when none is. The streams are primed by the first tick, and a
/// tick at any cycle but the one after the last restarts them from where
/// they stand, as if the cycles between had not been generated.
class TrafficGenerator : public TrafficSource {
  public:
    /// Generate `col`'s flows under a workload: bursty/ramp specs install
    /// the matching RateModulator (traffic/dynamic.h), which scales each
    /// flow's per-cycle probability; every other kind is plain steady
    /// generation. The modulator's streams are split from the traffic
    /// seed, so its draws never perturb the packet streams.
    ///
    /// With `origins` empty the generator feeds the one column `col`
    /// describes, flow f entering at node col.nodeOfFlow(f). Otherwise
    /// it feeds every flow of a fabric, one FlowInjection per flow, in
    /// blocks of col.numFlows() flows shaped as `col`; block g's streams
    /// split from blockSeed(traffic.seed, g).
    TrafficGenerator(const ColumnConfig &col, const TrafficConfig &traffic,
                     const WorkloadSpec &workload = {},
                     std::vector<FlowInjection> origins = {});
    ~TrafficGenerator() override;

    /// Generate this cycle's packets into the injector queues (and, on a
    /// fabric, the row queues its origin table names).
    void tick(Cycle now, PacketPool &pool,
              std::vector<InjectorQueue> &injectors,
              SimMetrics &metrics) override;

    /// Packets whose generation was skipped due to a full origin queue.
    std::uint64_t suppressed() const { return suppressed_; }

    /// Switch one flow on or off mid-run (the tenant-churn driver's hook;
    /// apply at frame boundaries); a flow switched on runs at its
    /// configured rate (TrafficConfig::rateOf), and must have a `src`.
    /// An inactive flow's stream freezes — it consumes no draws — so the
    /// change is exactly reproducible under either engine and across
    /// checkpoint restore. The flow's look-ahead restarts at the next
    /// tick's cycle.
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
    /// Flow f's per-cycle packet probability while its activity holds.
    double genProbOf(std::size_t f) const;
    /// Destination, within the block's column, for one packet of flow f
    /// entering at column node `src`, drawn from the flow's stream.
    NodeId pickDest(std::size_t f, NodeId src);

    ColumnConfig col_; ///< one block's column
    TrafficConfig traffic_;
    std::vector<FlowInjection> origins_;   ///< where each flow enters
    std::vector<LookaheadStream> streams_; ///< one packet stream per flow
    std::vector<double> genProb_; ///< per-cycle packet probability per flow
    /// The cycle the next tick continues at; kNoCycle until the first
    /// tick after construction or unpackState primes the streams.
    Cycle next_ = kNoCycle;
    /// No stream's event is due before this cycle (a lower bound).
    Cycle nextDue_ = kNoCycle;
    std::uint64_t suppressed_ = 0;
    std::unique_ptr<RateModulator> mod_; ///< null = steady
};

} // namespace taqos
