/// \file ports.h
/// Router ports and link transfer machinery.
///
/// An OutputPort owns a physical channel. For mesh and DPS this is a
/// point-to-point segment (one drop); for MECS it is a point-to-multipoint
/// express channel with one drop per downstream node. Virtual cut-through
/// holds the channel for the whole packet, so at most one transfer is in
/// progress per output at a time.
///
/// An InputPort owns the VC storage at the receiving end. Several input
/// ports may share one crossbar input (MECS input arbiters, 4:1/3:1 row
/// sharing); the shared switch port is modelled by XbarGroup occupancy.
///
/// Activity tracking: every state change that can alter an arbitration
/// outcome flows through this layer — a VC reservation/release, an
/// injector enqueue/dequeue, a transfer start/completion, a window-slot
/// retire. Each hook maintains incremental occupancy counts on the port
/// and notifies the owning Router so the activity-driven engine re-arms
/// it (see router.h). Ports without an owner (terminal/handoff buffers,
/// standalone unit-test fixtures) still keep their occupancy counts,
/// which the engine uses to skip idle ejection scans.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.h"
#include "noc/packet.h"
#include "noc/vc.h"

namespace taqos {

class InputPort;
class Router;
class TraceSink;

/// One traffic source (terminal or row input). The queue head is the only
/// injectable packet; `outstanding` enforces the PVC retransmission window.
/// All queue mutations go through the hook-aware methods so the owning
/// router's activity state stays consistent (the deque itself is exposed
/// read-only).
struct InjectorQueue {
    FlowId flow = kInvalidFlow;
    NodeId node = kInvalidNode;
    int outstanding = 0;  ///< packets in network / awaiting ACK
    int windowLimit = 16; ///< per-source outstanding-packet window

    /// Injection port this queue feeds (wired by Network::finalizeRouters;
    /// null for staging queues outside the fabric — hooks are no-ops).
    InputPort *port = nullptr;

    /// Position among the port's injectors (static enumeration identity
    /// for round-robin keys; set by Router::finalize).
    int slotIdx = -1;

    /// Output whose candidate list holds this queue's head-packet slot
    /// (-1 = queue empty). Managed by the owning Router.
    int headOut = -1;

    bool windowOpen() const { return outstanding < windowLimit; }

    const std::deque<NetPacket *> &queue() const { return q_; }

    /// Append a freshly generated (or handed-off) packet.
    void enqueue(NetPacket *pkt);
    /// Return a NACKed packet to the head of the queue (retransmission).
    void enqueueFront(NetPacket *pkt);
    /// Pop the head (it won injection arbitration, or is being restaged).
    NetPacket *dequeue();

    /// The retransmission window changed in the queue's favour (an ACK
    /// retired a slot): a head packet stalled on `windowOpen()` may now be
    /// injectable, so the owning router must re-arbitrate.
    void noteWindowChange();

    /// Restore: overwrite the queue contents without firing the port
    /// hooks (the restoring router recomputes queued-packet counts and
    /// re-adds the head slot afterwards). headOut stays -1.
    void restoreRaw(std::deque<NetPacket *> q, int outstandingCount)
    {
        q_ = std::move(q);
        outstanding = outstandingCount;
        headOut = -1;
    }

  private:
    std::deque<NetPacket *> q_;
};

/// A (possibly shared) crossbar input port: only one packet may stream
/// through it at a time.
class XbarGroup {
  public:
    bool freeAt(Cycle now) const { return now >= busyUntil_; }
    void occupy(Cycle now, int sizeFlits)
    {
        busyUntil_ = now + static_cast<Cycle>(sizeFlits);
    }

    /// Checkpoint access: a group busy into the future is live state.
    Cycle busyUntil() const { return busyUntil_; }
    void restoreBusyUntil(Cycle c) { busyUntil_ = c; }

  private:
    Cycle busyUntil_ = 0;
};

class InputPort {
  public:
    enum class Kind : std::uint8_t {
        Network,   ///< column/subnet channel input with VC buffers
        Injection, ///< terminal or shared row input (injector queues)
    };

    std::string name;
    NodeId node = kInvalidNode;
    Kind kind = Kind::Network;

    /// Router pipeline depth seen by packets entering through this port
    /// (cycles from head arrival/readiness to earliest first-flit-out).
    /// DPS intermediate (pass-through) inputs use 1; mesh/DPS source and
    /// destination ports use 2; MECS uses 3.
    int pipelineDelay = 2;

    /// Cycles before an upstream allocator sees a freed VC (credit return
    /// = wire span of the feeding channel).
    int creditDelay = 1;

    /// Index of the VC reserved for rate-compliant packets (-1 = none).
    int reservedVc = -1;

    /// Per-flow-queueing baseline: VCs grow on demand, so allocation never
    /// fails and preemption never triggers.
    bool unboundedVcs = false;

    /// DPS intermediate (pass-through) ports: no flow-state query — packets
    /// arbitrate with the priority computed at their source (PVC priority
    /// reuse).
    bool usesCarriedPrio = false;

    /// Shared crossbar input this port streams through (null = dedicated
    /// path, e.g. a DPS intermediate mux).
    XbarGroup *group = nullptr;

    /// Router whose arbitration this port feeds (set by addInputPort;
    /// null for terminal/handoff buffers owned by the engine).
    Router *owner = nullptr;

    /// Flit-trace recorder observing this port's VC transitions (null =
    /// not recording; wired by Network::setTraceSink).
    TraceSink *trace = nullptr;

    /// VC storage; unbounded VCs grow it. Cross-references into it are
    /// indices (VcRef, slot keys), never pointers, so growth keeps them.
    std::vector<VirtualChannel> vcs;

    /// Only for Kind::Injection: the sources multiplexed onto this port.
    std::vector<InjectorQueue *> injectors;

    /// Find an allocatable VC honouring the reserved-VC policy. Returns
    /// the VC index or -1. Non-compliant packets may not take the reserved
    /// VC; compliant packets try regular VCs first to keep the escape VC
    /// available.
    int findFreeVc(Cycle now, bool rateCompliant);

    int occupiedVcs() const;

    // --- incremental activity state -----------------------------------

    /// VCs currently not Free — maintained by the VirtualChannel hooks
    /// once attachVcs() has run, so the engine and the candidate scan can
    /// skip empty ports without touching the VC array.
    int occupied() const { return occupied_; }

    /// Packets queued across this injection port's injector queues.
    int queuedPackets() const { return queuedPkts_; }

    /// Point every VC of this port back at it (idempotent; called from
    /// Network::finalizeRouters; unbounded-VC growth self-attaches).
    void attachVcs();

    /// Recompute occupied(), queuedPackets() and mutEpoch() from the VC
    /// and injector state (checkpoint restore rebuilds them after the raw
    /// overwrites that bypass the incremental hooks). mutEpoch restarts at
    /// zero: it only keys pure preemption-search memos, which restore also
    /// clears.
    void recountHot();

    /// Global enumeration base of this port's slots within its router's
    /// input-major candidate order (the round-robin key of VC/injector
    /// `k` is `enumBase + k + 1`; set by Router::finalize).
    std::uint32_t enumBase = 0;

    /// State-transition hooks (called by VirtualChannel / InjectorQueue).
    /// `headChanged` reports whether the queue's front packet — the only
    /// arbitration candidate — is a different packet afterwards. `freed`
    /// is the packet the VC held (its own pointer is already cleared).
    void onVcReserved(VirtualChannel &vc);
    void onVcFreed(VirtualChannel &vc, NetPacket *freed);
    void onVcDrained(VirtualChannel &vc);
    void onInjectorEnqueue(InjectorQueue &inj, bool headChanged);
    void onInjectorDequeue(InjectorQueue &inj);
    void onInjectorWindowChange(InjectorQueue &inj);

    /// Index of `vc` within this port's VC array.
    int vcIndex(const VirtualChannel &vc) const
    {
        return static_cast<int>(&vc - vcs.data());
    }

    /// Bumped on every VC state transition. The preemption victim search
    /// keys its "no victim here last time" memo on it (ports without an
    /// owning router — terminals, handoffs — included).
    std::uint64_t mutEpoch() const { return mutEpoch_; }

  private:
    int occupied_ = 0;
    int queuedPkts_ = 0;
    std::uint64_t mutEpoch_ = 0;
};

class OutputPort {
  public:
    /// One reachable downstream attach point of this channel.
    struct Drop {
        InputPort *down = nullptr;
        int wireDelay = 1;
        /// Mesh-equivalent hop count of this traversal (Sec. 5.3
        /// normalization: a MECS express span of d counts as d hops).
        double meshHops = 1.0;
    };

    /// The packet currently streaming through this output.
    struct Transfer {
        bool active = false;
        NetPacket *pkt = nullptr;
        int dropIdx = -1;
        int dstVc = -1;
        Cycle firstFlit = 0;  ///< cycle the head flit is on the wire
        Cycle tailDepart = 0; ///< cycle the tail flit is on the wire
        /// VC being drained at the sending router (port == nullptr when
        /// the packet entered from an injector queue).
        VcRef srcVc{};

        int flitsDeparted(Cycle now, int sizeFlits) const;
    };

    std::string name;
    NodeId node = kInvalidNode;
    std::vector<Drop> drops;

    /// Router this channel belongs to (set by addOutputPort; transfer
    /// start/completion keeps its active-transfer count in step).
    Router *owner = nullptr;

    /// Flow-state table this output charges/queries. Replicated mesh
    /// channels in the same direction form one logical output and share a
    /// table; every other output has its own (-1 until the builder
    /// assigns it).
    int tableIdx = -1;

    bool linkFree(Cycle now) const { return now >= nextStart_; }
    const Transfer &transfer() const { return xfer_; }

    /// Begin streaming `pkt` towards drop `dropIdx`, into VC `dstVc`.
    /// `srcVc` identifies the draining VC ({nullptr,-1} for injection).
    /// Caller has already reserved the downstream VC.
    void startTransfer(NetPacket *pkt, int dropIdx, int dstVc, VcRef srcVc,
                       Cycle now);

    /// Complete the transfer if its tail has departed: frees the source VC
    /// (credit visible after the source port's credit delay) and credits
    /// the packet with the hop traversal. Call once per cycle before
    /// arbitration.
    void tickCompletion(Cycle now);

    /// Abort the in-progress transfer because its packet was preempted.
    /// Returns the fraction of the hop that was wasted (flits already
    /// departed / packet size, in mesh-equivalent hops). The channel stays
    /// busy through its committed window.
    double cancelTransfer(Cycle now);

    /// Checkpoint access: channel-hold horizon plus the verbatim
    /// in-progress transfer. Restore bypasses the owner hooks — the
    /// restoring router recounts active transfers itself.
    Cycle nextStart() const { return nextStart_; }
    void restoreRaw(Cycle nextStart, const Transfer &xfer)
    {
        nextStart_ = nextStart;
        xfer_ = xfer;
    }

  private:
    Cycle nextStart_ = 0;
    Transfer xfer_{};
};

} // namespace taqos
