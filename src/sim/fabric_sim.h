/// \file fabric_sim.h
/// The one simulator: the NetSim engine driving a FabricNetwork
/// (topo/fabric.h) — every shared column of every chip active, with
/// inter-chip links joining the chips — from the paper's lone QOS column
/// (ColumnSim, the row-less fabric) through one 64-node chip (ChipSim,
/// the one-chip, one-column fabric) to 1000+ routers.
///
/// One TrafficGenerator drives every flow of every block, building each
/// packet once and enqueueing it straight into its origin queue, from an
/// origin table built once from the layout. Trace replay, a column
/// workload, is the one other source: it feeds a row-less fabric.
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

class FabricSim : public NetSim {
  public:
    /// Drive the fabric under a declarative workload: one generator for
    /// every flow (bursty/ramp modulate it; churn is driven from outside,
    /// by ChurnDriver reprogramming flow activity). A row-less fabric
    /// also takes trace replay (the spec's tracePath is loaded here; a
    /// load failure asserts — CLIs load the trace up front with
    /// loadTraceFile and fail with one line).
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
    /// The generator driving every flow (not under trace replay).
    TrafficGenerator &generator()
    {
        TAQOS_ASSERT(gen_ != nullptr, "a trace-fed fabric has no generator");
        return *gen_;
    }

    /// Packets that crossed a row-to-column boundary handoff so far.
    std::uint64_t handoffs() const { return handoffs_; }
    /// Inter-chip link traversals so far (a ring transit counts each hop).
    std::uint64_t linkHops() const { return linkHops_; }

    void checkInvariants() const override;

  protected:
    /// Link arrivals, then the engine's deliveries and handoffs.
    void tickTerminals() override;
    /// Row-to-column boundary: release the row window slot, then enter
    /// the destination column here or cross the link fabric.
    void handoff(NetPacket *pkt, InputPort *port, int vcIdx) override;
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

    void sendOnLink(NetPacket *pkt, int srcChip, int dstChip);
    /// Serial, top of phase 5: pop due link packets in fixed link order
    /// and enqueue them into their destination-block entrance queues
    /// (ring transits re-enter the next link instead).
    void processLinkArrivals();
    /// Entrance enqueue shared by local handoffs and link arrivals.
    void enterColumn(NetPacket *pkt);

    /// Owned by NetSim::source_; null under trace replay.
    TrafficGenerator *gen_ = nullptr;
    /// Point-to-point: links_[src * chips + dst] (diagonal unused).
    /// Ring: links_[c] is chip c's channel to (c + 1) % chips.
    std::vector<ChipLink> links_;
    std::uint64_t handoffs_ = 0;
    std::uint64_t linkHops_ = 0;
};

} // namespace taqos
