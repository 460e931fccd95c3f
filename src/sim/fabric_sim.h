/// \file fabric_sim.h
/// The one simulator: the NetSim engine driving a FabricNetwork
/// (topo/fabric.h) — every shared column of every chip active, with
/// inter-chip links joining the chips — from the paper's lone QOS column
/// (ColumnSim, the row-less fabric) through one 64-node chip (ChipSim,
/// the one-chip, one-column fabric) to 1000+ routers.
///
/// The traffic source follows the network that was built: a row-less
/// fabric is fed by the column's own TrafficGenerator or TraceReplayer
/// straight into its entrance queues; every other fabric by a
/// FabricTrafficSource, which routes each block's traffic to its origin.
///
/// A packet's journey:
///   1. generated into its origin compute node's aggregate source queue
///      (terminal flows start at their block's entrance queue directly);
///   2. row segment: NoQos row mesh to the origin chip's block-entry
///      node (`dst` = that entry node, `finalDst` = the real
///      destination);
///   3. handoff: the boundary buffer releases the row window slot, then
///      either re-queues the packet into its column-entrance injector
///      queue (local flow) or pushes it onto the inter-chip link toward
///      the destination chip (remote flow), where the arrival performs
///      the same entrance enqueue;
///   4. column segment at the destination block: normal QOS
///      arbitration, preemption, ACK/NACK — identical to the
///      standalone column simulator.
/// Inter-chip links are FIFO delay lines with serialization (width
/// flits/cycle); on a ring, packets hop chip to chip, paying the link
/// delay per hop. Link arrivals and handoffs run in the engine's
/// terminal phase, after every router has ticked.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/net_sim.h"
#include "topo/fabric.h"
#include "traffic/generator.h"
#include "traffic/trace.h"

namespace taqos {

/// Generates every block's column-flow traffic and injects it at the
/// owning origin: the block entrance for terminal flows, the catchment
/// compute node for local row flows, the remote chip's designated
/// compute node for cross-chip flows. One deterministic generator per
/// block; block 0 keeps the traffic seed unchanged, so a one-block
/// fabric's stream is the standalone column generator's.
class FabricTrafficSource : public TrafficSource {
  public:
    /// Bursty/ramp workloads modulate every block generator (each
    /// block's modulator streams derive from its own decorrelated seed).
    /// Steady and churn workloads run plain generators — churn is driven
    /// from outside, by ChurnDriver reprogramming flow activity. Trace
    /// replay is a column workload: only a row-less fabric, which does
    /// not use this source, can run it.
    FabricTrafficSource(FabricNetwork &net, const TrafficConfig &traffic,
                        const WorkloadSpec &workload = {});

    void tick(Cycle now, PacketPool &pool,
              std::vector<InjectorQueue> &injectors,
              SimMetrics &metrics) override;

    /// Packets whose generation was skipped due to a full origin queue.
    std::uint64_t suppressed() const;

    /// Block `g`'s generator; its flow ids are block-local (block 0's
    /// are the global ids).
    TrafficGenerator &generator(int g)
    {
        return *gens_[static_cast<std::size_t>(g)];
    }

    /// Checkpointing: each block generator's state (length-prefixed per
    /// block) plus the dispatch-side suppression counter. The scratch
    /// queues drain within each tick, so they carry no cross-cycle state.
    std::vector<std::uint64_t> packState() const override;
    void unpackState(const std::vector<std::uint64_t> &words) override;

  private:
    FabricNetwork &net_;
    TrafficConfig traffic_;
    std::vector<std::unique_ptr<TrafficGenerator>> gens_; ///< per block
    /// Staging queues (one block's local flows) the generators fill
    /// before packets are dispatched to their origin queues.
    std::vector<InjectorQueue> scratch_;
    std::uint64_t suppressed_ = 0;
};

class FabricSim : public NetSim {
  public:
    /// Drive the fabric under a declarative workload. A row-less fabric
    /// takes every column workload, trace replay included (the spec's
    /// tracePath is loaded here; a load failure asserts — CLIs load the
    /// trace up front with loadTraceFile and fail with one line).
    FabricSim(const FabricSpec &spec, const TrafficConfig &traffic,
              const WorkloadSpec &workload = {});
    /// Drive a row-less fabric from a pre-recorded trace (bit-identical
    /// replays, external workloads).
    FabricSim(const FabricSpec &spec, TrafficTrace trace);

    FabricNetwork &network() { return static_cast<FabricNetwork &>(*net_); }
    const FabricNetwork &network() const
    {
        return static_cast<const FabricNetwork &>(*net_);
    }
    const FabricSpec &spec() const { return network().spec(); }
    /// The block-dispatching source (not on a row-less fabric).
    FabricTrafficSource &traffic()
    {
        TAQOS_ASSERT(src_ != nullptr,
                     "a row-less fabric has no fabric traffic source");
        return *src_;
    }

    /// Packets that crossed a row-to-column boundary handoff so far.
    std::uint64_t handoffs() const { return handoffs_; }
    /// Inter-chip link traversals so far (a ring transit counts each hop).
    std::uint64_t linkHops() const { return linkHops_; }

    void checkInvariants() const override;

  protected:
    void tickTerminals() override;
    /// Checkpoint "extra" section: the handoff/link counters, the
    /// compute-node source queues, and every inter-chip link's occupancy
    /// horizon and in-flight FIFO.
    void saveExtra(CheckpointWriter &w) const override;
    void restoreExtra(CheckpointReader &r) override;

  private:
    /// Build the network and its inter-chip links; the public
    /// constructors then install the traffic source.
    explicit FabricSim(const FabricSpec &spec);

    /// One inter-chip channel: a FIFO delay line with serialization
    /// (`nextFree` models the width-limited occupancy).
    struct ChipLink {
        int dstChip = 0;
        Cycle nextFree = 0;
        std::deque<std::pair<NetPacket *, Cycle>> inFlight; ///< (pkt, due)
    };

    void handoff(NetPacket *pkt, InputPort *port, int vcIdx);
    void sendOnLink(NetPacket *pkt, int srcChip, int dstChip);
    /// Serial, top of phase 5: pop due link packets in fixed link order
    /// and enqueue them into their destination-block entrance queues
    /// (ring transits re-enter the next link instead).
    void processLinkArrivals();
    /// Entrance enqueue shared by local handoffs and link arrivals.
    void enterColumn(NetPacket *pkt);

    /// Owned by NetSim::source_; null on a row-less fabric.
    FabricTrafficSource *src_ = nullptr;
    /// Point-to-point: links_[src * chips + dst] (diagonal unused).
    /// Ring: links_[c] is chip c's channel to (c + 1) % chips.
    std::vector<ChipLink> links_;
    std::uint64_t handoffs_ = 0;
    std::uint64_t linkHops_ = 0;
};

} // namespace taqos
