/// \file packet.h
/// Network packet representation and pooling.
///
/// The simulator moves whole packets with virtual cut-through timing: a
/// packet occupies an output link for `sizeFlits` cycles and may begin
/// downstream arbitration as soon as its head flit arrives. A packet can
/// therefore hold buffer space in up to three routers at once (cutting
/// through); `locs` tracks every VC it currently occupies so that a PVC
/// preemption can kill the whole chain eagerly.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace taqos {

class InputPort;
class OutputPort;

/// "Not admitted into any GSF frame" (see NetPacket::frameTag).
inline constexpr std::uint64_t kNoFrameTag =
    std::numeric_limits<std::uint64_t>::max();

/// Where a packet currently holds a virtual channel.
struct VcRef {
    InputPort *port = nullptr;
    int vc = -1;
};

/// Lifecycle of one packet attempt.
enum class PacketState : std::uint8_t {
    Queued,    ///< waiting in a source queue (initial or after NACK)
    InFlight,  ///< owns at least one VC or link transfer
    Delivered, ///< tail ejected at the destination terminal
    Dropped,   ///< preempted; will be retransmitted
};

/// A packet instance. Retransmissions reuse the same object (same id);
/// `attempt` counts transmissions.
struct NetPacket {
    PacketId id = kInvalidPacket;
    FlowId flow = kInvalidFlow;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /// Final destination of a multi-segment journey (whole-chip sim: the
    /// row segment routes on `dst` = the column-entry node, then the
    /// handoff rewrites `dst` to `finalDst`). kInvalidNode otherwise.
    NodeId finalDst = kInvalidNode;
    int sizeFlits = 1;

    Cycle genCycle = kNoCycle;     ///< first generation time
    Cycle queuedCycle = kNoCycle;  ///< entered a source queue (gen or NACK)
    Cycle deliverCycle = kNoCycle; ///< tail ejection time

    PacketState state = PacketState::Queued;
    bool measured = false;      ///< generated inside the measurement window
    bool rateCompliant = false; ///< within the PVC reserved quota
    int attempt = 0;

    /// Priority carried with the packet (PVC priority reuse). Lower value
    /// means higher priority.
    std::uint64_t carriedPrio = 0;

    /// GSF frame this packet was admitted into (QosMode::Gsf only;
    /// stamped by the SourceGate, kNoFrameTag otherwise). Earlier frames
    /// have absolute priority at every router.
    std::uint64_t frameTag = kNoFrameTag;

    /// First cycle this packet failed VC allocation at its current hop
    /// (kNoCycle = not blocked); gates preemption-inversion detection.
    Cycle blockedSince = kNoCycle;

    /// Mesh-equivalent hop traversals completed in the current attempt;
    /// wasted (and re-counted) if the packet is preempted.
    double hopsThisAttempt = 0.0;

    /// VC occupancy chain (source VC + up to two downstream reservations).
    std::array<VcRef, 4> locs{};
    int numLocs = 0;

    /// Output ports with an in-progress transfer of this packet (a packet
    /// cutting through can be arriving into one router while draining
    /// towards the next).
    std::array<OutputPort *, 4> xfers{};
    int numXfers = 0;

    /// Has this packet claimed a slot in its source's outstanding window?
    bool inWindow = false;

    /// Flow-table charges of the current attempt (one per hop won), so a
    /// preemption can refund them: the victim must not be billed for
    /// service that was discarded.
    struct ChargeRef {
        void *table = nullptr; ///< FlowTable*, opaque to this layer
        int tableIdx = -1;
    };
    /// Charge-log capacity. A mesh route charges at every router it
    /// crosses, so buildMeshColumn rejects taller flow-table columns.
    static constexpr int kMaxCharges = 12;
    std::array<ChargeRef, kMaxCharges> charges{};
    int numCharges = 0;

    void addLoc(InputPort *port, int vc);
    void removeLoc(InputPort *port, int vc);
    void clearLocs() { numLocs = 0; }

    void addXfer(OutputPort *out);
    void removeXfer(OutputPort *out);

    void logCharge(void *table, int tableIdx);

    /// Reset per-attempt state before (re)injection.
    void beginAttempt();
};

/// Recycling allocator for packets. Terminal-state packets are returned to
/// a free list; long saturation runs would otherwise allocate millions of
/// short-lived objects.
class PacketPool {
  public:
    NetPacket *alloc();
    void release(NetPacket *pkt);

    std::size_t liveCount() const { return live_; }
    std::size_t allocatedCount() const { return all_.size(); }

    /// Checkpoint access: the i-th packet ever allocated. Pool indices
    /// are the canonical packet encoding in a snapshot — stable across
    /// the save/restore boundary because alloc order is deterministic.
    NetPacket *at(std::size_t i) { return all_[i].get(); }
    const NetPacket *at(std::size_t i) const { return all_[i].get(); }

    const std::vector<NetPacket *> &freeList() const { return free_; }

    PacketId nextId() const { return nextId_; }

    /// Restore: size the pool to `count` default-constructed packets
    /// (the caller then overwrites each record and rebuilds the free
    /// list). Only valid on a fresh pool.
    void restoreShape(std::size_t count);

    /// Restore the free list as pool indices in LIFO order (back = next
    /// to be handed out), plus the id counter.
    void restoreFreeList(const std::vector<std::size_t> &freeIdx,
                         PacketId nextId);

  private:
    std::vector<std::unique_ptr<NetPacket>> all_;
    std::vector<NetPacket *> free_;
    std::size_t live_ = 0;
    PacketId nextId_ = 0;
};

} // namespace taqos
