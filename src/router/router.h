/// \file router.h
/// A shared-region router with pluggable quality-of-service arbitration.
///
/// One Router class covers all five evaluated configurations; the topology
/// builder (src/topo) instantiates the port structure that makes it a mesh
/// xN, MECS, or DPS router. DPS intermediate "repeaters" are modelled as
/// extra pass-through input ports with a 1-cycle pipeline and no crossbar
/// group — the 2:1 mux of Figure 2(c).
///
/// The router owns the *mechanism* — VC allocation, cut-through transfer
/// management, preemption teardown — and delegates every *policy* question
/// (candidate priority, comparator, preemption decision) to the QosPolicy
/// its mode selects (qos/policy.h).
///
/// Per-cycle operation:
///   1. tickCompletion on every streaming output (tail departures free
///      source VCs).
///   2. Virtual-channel allocation per output port: the highest-priority
///      eligible packet gets a downstream VC and starts streaming
///      (virtual cut-through: the whole packet follows, crossbar
///      arbitration is subsumed by the allocation).
///   3. On allocation failure, the policy may preempt (PVC): if a
///      buffered lower-priority non-rate-compliant packet is blocking the
///      requester (priority inversion), it is discarded, NACKed to its
///      source, and replayed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "noc/activity.h"
#include "noc/metrics.h"
#include "noc/packet.h"
#include "noc/ports.h"
#include "qos/ack_network.h"
#include "qos/flow_table.h"
#include "qos/policy.h"
#include "qos/pvc.h"

namespace taqos {

/// Per-destination routing decision at this router.
struct RouteEntry {
    int outPort = -1;     ///< first of `numParallel` equivalent outputs
    int numParallel = 1;  ///< replicated mesh channels to spread across
    int dropIdx = 0;      ///< drop on the chosen output (MECS express span)
};

/// Exact counts of the engine's arbitration work (NetSim::engineStats).
/// Deterministic for a given run and engine. They describe how the
/// engine did the work, not what the network did, so they stay out of
/// SimMetrics, metricsDigest, cell-cache fragments and checkpoints.
struct EngineStats {
    std::uint64_t routerTicks = 0; ///< Router::tickArbitrate calls
    /// Per-output candidate scans of the activity engine (the always-tick
    /// engine's full scans are not counted).
    std::uint64_t outputScans = 0;
    std::uint64_t hops = 0; ///< transfers started (OutputPort::startTransfer)
    /// Ejection due-list entries the activity engine visited, stale ones
    /// (left by a packet killed in its terminal or handoff buffer)
    /// included; the always-tick engine's full scans are not counted.
    std::uint64_t ejections = 0;

    EngineStats &operator+=(const EngineStats &o)
    {
        routerTicks += o.routerTicks;
        outputScans += o.outputScans;
        hops += o.hops;
        ejections += o.ejections;
        return *this;
    }
};

/// Shared services handed to routers each cycle.
struct TickContext {
    Cycle now = 0;
    QuotaTracker *quota = nullptr;
    AckNetwork *ack = nullptr;
    SimMetrics *metrics = nullptr;
    /// Source-side policy gate (GSF frame budgets); null for policies
    /// without an injection gate.
    SourceGate *gate = nullptr;
    /// Legacy always-tick engine: rescan candidates every cycle and take
    /// no activity shortcuts (the bit-identity reference the activity-
    /// driven engine is checked against).
    bool forceScan = false;
    /// This cycle's work counts; the engine folds them into its totals.
    EngineStats stats;
};

class Router {
  public:
    /// A router whose flow table, if its policy keeps one, covers the
    /// global flow ids [flowBase, flowBase + flowCount): the flows that
    /// can reach it (see FlowTable).
    Router(NodeId node, QosMode mode, const PvcParams &params,
           FlowId flowBase, int flowCount);

    NodeId node() const { return node_; }
    QosMode mode() const { return policy_->mode(); }
    const QosPolicy &policy() const { return *policy_; }

    // --- construction (used by the topology builders) ---
    InputPort *addInputPort(std::unique_ptr<InputPort> port);
    OutputPort *addOutputPort(std::unique_ptr<OutputPort> port);
    XbarGroup *addXbarGroup();
    /// Route to `dest`. The table spans only the destinations the
    /// builder sets, from the lowest one up.
    void setRoute(NodeId dest, RouteEntry entry);
    /// Must be called once all output ports exist (sizes the flow table).
    void finalize();

    const std::vector<std::unique_ptr<InputPort>> &inputs() const
    {
        return inputs_;
    }
    const std::vector<std::unique_ptr<OutputPort>> &outputs() const
    {
        return outputs_;
    }
    OutputPort *output(int idx) { return outputs_[static_cast<std::size_t>(idx)].get(); }
    const FlowTable &flowTable() const { return flowTable_; }
    /// Mutable access for checkpoint restore (counter overwrite).
    FlowTable &flowTable() { return flowTable_; }
    const std::vector<std::unique_ptr<XbarGroup>> &groups() const
    {
        return groups_;
    }
    std::vector<std::unique_ptr<XbarGroup>> &groups() { return groups_; }
    /// Mutable policy access for checkpoint pack/unpack.
    QosPolicy &policyState() { return *policy_; }

    /// Routing decision for a packet sitting at this router.
    RouteEntry routeFor(const NetPacket &pkt) const;

    /// One simulation cycle, phase 1: retire transfers whose tail has
    /// departed. Must run on ALL routers before any arbitration so that a
    /// packet's completion is visible regardless of router tick order.
    void tickCompletions(Cycle now);

    /// One simulation cycle, phase 2: VC allocation / preemption.
    void tickArbitrate(TickContext &ctx);

    /// Both phases (single-router unit tests only).
    void tick(TickContext &ctx);

    /// PVC frame boundary: flush bandwidth counters.
    void frameFlush();

    /// Discard a packet (preemption): tears down its VC chain and
    /// in-flight transfers, NACKs the source. Public so tests can inject
    /// failures directly.
    void killPacket(NetPacket *victim, TickContext &ctx);

    /// Attach (or detach, with nullptr) a flit-trace recorder: registers
    /// every input port with the sink and points the router's and ports'
    /// hooks at it. Wired fabric-wide by Network::setTraceSink.
    void setTraceSink(TraceSink *sink);

    // --- activity tracking (the activity-driven engine) ---------------
    //
    // Two layers. (1) Engine worklist: the engine ticks only routers on
    // the shared worklist (noc/activity.h); a router re-arms itself when
    // an event gives it work. (2) Per-output candidate cache: each output
    // keeps the list of arbitration slots currently routed to it — a
    // Reserved VC, or an injector queue's head packet — maintained
    // incrementally by the port hooks, plus a dirty flag and a
    // time-driven wake. An output's candidate scan reruns only when an
    // event dirtied its inputs or a scheduled eligibility (head arrival +
    // pipeline, injection readiness) has come due; everything else
    // re-attempts the cached winner, which is exactly what the
    // always-tick engine would recompute. A new slot schedules a wake at
    // its eligibility instead of dirtying: it cannot win before then.
    // Each slot carries what the scan reads, so a scan touches no port or
    // VC. All scans of a cycle run before any grant, mirroring the legacy
    // collect-then-grant phases. Four bit sets over the outputs (dirty,
    // wake pending, cached winner, active transfer) let the scan, grant
    // and completion loops visit only the outputs with work, in ascending
    // output order. See README "Performance".

    /// Register with the engine worklist (arms the router immediately).
    void setWorklist(ActivityWorklist *wl);
    bool inWorklist() const { return inWorklist_; }
    /// Engine sweep: drop an idle router from the worklist.
    void leaveWorklist() { inWorklist_ = false; }

    /// Any work at all: an occupied VC (even one still arriving), a
    /// queued source packet (even a gated one), or an in-flight transfer.
    /// A router with none is a provable no-op and is skipped entirely.
    bool hasWork() const
    {
        return occupiedVcs_ + queuedPkts_ > 0 || anyOutBit(kXfer);
    }

    /// Policy state changed behind every output's back (frame flush, GSF
    /// window advance): invalidate all cached winner sets.
    void markArbDirty();

    /// Checkpoint restore: the raw overwrites (VC states, injector
    /// queues, transfers) bypassed every incremental hook, so recompute
    /// all derived activity state from the restored structural state —
    /// work counters, arbitration slot lists, cached winners, dirty
    /// flags, wakes. Leaves every output dirty with wake 0 and the router
    /// off the worklist (the engine re-arms it); the first tick then does
    /// the same full rescan a frame-boundary invalidation would, which is
    /// proven bit-identical.
    void rebuildFromRestore();

    // Hooks from the port layer (see ports.h). Work-creating events arm
    // the router onto the worklist; work-neutral events only dirty the
    // affected outputs (the `hasWork() implies inWorklist()` invariant
    // makes that sound).
    void noteVcReserved(InputPort *in, int vcIdx);
    void noteVcFreed(InputPort *in, VirtualChannel &vc);
    void noteVcDrained(InputPort *in, VirtualChannel &vc);
    void noteInjectorEnqueue(InjectorQueue &inj, bool headChanged);
    void noteInjectorDequeue(InjectorQueue &inj);
    void noteInjectorWindowChange(InjectorQueue &inj);
    /// Output `out` began streaming; its tail departs at `tailDepart`.
    void noteXferStarted(int out, Cycle tailDepart);
    void noteXferEnded(int out); ///< transfer completed or cancelled
    /// Flow-table mutation at table `tableIdx` (-1 = all tables): the
    /// virtual-clock priorities of every output charging that table are
    /// stale. Replicated mesh channels share one table, so one charge can
    /// dirty several outputs.
    void noteTableMutated(int tableIdx);

    int occupiedVcCount() const { return occupiedVcs_; }
    int queuedPacketCount() const { return queuedPkts_; }

    /// Assert that every arbitration slot matches the live state it
    /// caches (packet, eligibility cycle, age, flow, carried flag, route)
    /// and that every Reserved VC and non-empty injector queue holds one;
    /// that each output's wake-pending and active-transfer bits equal
    /// the state they summarise, and no bit is set past the last output.
    /// `now` is the next cycle to run; with `wakes`, also assert that
    /// every slot not yet eligible at `now` has its output dirty or woken
    /// by then, and that the cached-winner bits equal the cached winners
    /// (activity engine only). NetSim::checkInvariants calls it.
    void checkSlots(Cycle now, bool wakes) const;

  private:
    /// One cached arbitration slot: a Reserved VC (vc >= 0) or an
    /// injector queue's head packet (inj != nullptr), routed to the
    /// output whose list holds it. It carries everything the scan reads
    /// of its candidate. Those values are fixed for the slot's life:
    /// every event that changes one (reserve, drain, free, head enqueue
    /// or dequeue, NACK requeue) removes or re-inserts the slot.
    struct ArbSlot {
        NetPacket *pkt = nullptr;
        InputPort *port = nullptr;
        InjectorQueue *inj = nullptr;
        /// First cycle the candidate is eligible by time: head arrival
        /// (VC) or queue entry (injector head) plus the port's pipeline.
        Cycle eligible = 0;
        Cycle genCycle = 0; ///< age key
        int vc = -1;
        std::uint32_t key = 0; ///< static enumeration position (rrKey)
        int dropIdx = 0;
        FlowId flow = kInvalidFlow;
        bool carried = false; ///< port reuses the carried priority
    };

    /// An output's winner: a copy of its slot (the list may change
    /// before the grant) and the rank it won with. No winner: slot.pkt
    /// is null.
    struct Winner {
        ArbSlot slot;
        std::uint64_t prio = 0;
    };

    /// One arbitration phase ranked by policy `P`'s inline rank() and
    /// better(), instantiated once per policy class and picked at
    /// finalize(): the always-tick engine's collect-then-grant, or the
    /// activity engine's cached scans and grants.
    template <class P>
    void arbitrate(TickContext &ctx);
    /// Legacy full scan: every input, every VC, every injector, all
    /// outputs at once (the always-tick reference path). It judges
    /// eligibility and numbers candidates from the live VC and queue
    /// state, and offers each in a slot's shape.
    template <class P>
    void collectCandidates(TickContext &ctx);
    /// Activity path: re-derive one output's winner from its slot list.
    template <class P>
    void scanOutput(int outPort, TickContext &ctx);

    /// The slot of `pkt` entering at `in`, eligible from `readyFrom`
    /// plus the port's pipeline (vc and inj left for the caller).
    ArbSlot slotFor(InputPort *in, NetPacket *pkt, Cycle readyFrom,
                    std::uint32_t key, int dropIdx) const;
    void addVcSlot(InputPort *in, int vcIdx);
    void updateInjectorSlot(InjectorQueue &inj);
    void insertSlot(int outPort, const ArbSlot &slot);
    void removeVcSlot(int outPort, const InputPort *in, int vcIdx);
    void removeInjectorSlot(int outPort, const InjectorQueue *inj);

    /// The four per-output bit sets, `outWords_` words each.
    enum OutBit { kDirty, kWake, kWinner, kXfer, kNumOutBits };
    std::uint64_t *outBits(OutBit kind)
    {
        return outBitWords_.data() + kind * outWords_;
    }
    const std::uint64_t *outBits(OutBit kind) const
    {
        return outBitWords_.data() + kind * outWords_;
    }
    void setOutBit(OutBit kind, int outPort, bool on)
    {
        std::uint64_t &w = outBits(kind)[outPort / 64];
        w = on ? (w | bitOf(outPort)) : (w & ~bitOf(outPort));
    }
    bool outBit(OutBit kind, int outPort) const
    {
        return (outBits(kind)[outPort / 64] & bitOf(outPort)) != 0;
    }
    bool anyOutBit(OutBit kind) const
    {
        const std::uint64_t *words = outBits(kind);
        return std::any_of(words, words + outWords_,
                           [](std::uint64_t w) { return w != 0; });
    }
    void dirtyOutput(int outPort) { setOutBit(kDirty, outPort, true); }
    /// Set `kind`'s bit for every output.
    void setAllOutBits(OutBit kind);

    static ArbKey arbKey(const ArbSlot &slot, std::uint64_t prio)
    {
        return ArbKey{prio, slot.genCycle, slot.flow, slot.key};
    }
    void tryGrant(int outPort, TickContext &ctx);
    void tryPreempt(int outPort, InputPort *down, TickContext &ctx);
    /// Is `pkt` shielded from preemption by the reserved per-frame quota?
    bool quotaProtected(const NetPacket &pkt, bool localState,
                        int tableIdx) const;
    /// Does `slot`'s packet still sit where the slot says?
    bool validate(const ArbSlot &slot) const;

    NodeId node_;
    const PvcParams *params_;
    /// The flow table's window of global flow ids.
    FlowId flowBase_;
    int flowCount_;
    /// Flit-trace recorder (null = not recording): injection grants,
    /// hop starts and preemption kills are emitted from this router.
    TraceSink *trace_ = nullptr;
    /// Every priority / preemption / quota decision (owns the per-router
    /// arbitration state, e.g. the NoQos rotating pointers).
    std::unique_ptr<QosPolicy> policy_;
    /// arbitrate instantiated for policy_'s class (set by finalize()).
    void (Router::*arbitrate_)(TickContext &) = nullptr;

    std::vector<std::unique_ptr<InputPort>> inputs_;
    std::vector<std::unique_ptr<OutputPort>> outputs_;
    std::vector<std::unique_ptr<XbarGroup>> groups_;
    /// Indexed by destination - routeBase_.
    std::vector<RouteEntry> routes_;
    NodeId routeBase_ = 0;
    FlowTable flowTable_;

    /// Winner per output; cached between cycles and re-derived only
    /// when the output is dirty or its wake has come due.
    std::vector<Winner> best_;

    /// Per-output cached candidate state. `slots_[o]` is kept sorted by
    /// enumeration key, so a scan visits candidates in exactly the order
    /// the legacy input-major scan would. `outWake_[o]` is the earliest
    /// cycle a currently-ineligible slot matures by time alone (kNoCycle
    /// = none pending); it starts at 0 so the first tick scans.
    std::vector<std::vector<ArbSlot>> slots_;
    std::vector<Cycle> outWake_;
    /// tableIdx -> outputs charging it (replicated channels share).
    std::vector<std::vector<int>> tableOuts_;

    /// One bit per output for each OutBit kind, kind-major: output o's
    /// bit is bit o % 64 of word o / 64 of its kind. kDirty: an event
    /// invalidated the cached winner. kWake: outWake_[o] != kNoCycle.
    /// kWinner: best_[o] holds a winner (activity engine). kXfer: the
    /// output is streaming a packet. Bits past the last output stay 0.
    std::vector<std::uint64_t> outBitWords_;
    int outWords_ = 0;
    /// Min of outWake_: with no dirty bit, tickArbitrate scans nothing
    /// before this cycle.
    Cycle minWake_ = 0;

    ActivityWorklist *worklist_ = nullptr;
    bool inWorklist_ = false;

    /// The counts hasWork() sums with the transfer bits, kept by the port
    /// hooks: VCs not Free, packets in injector queues.
    int occupiedVcs_ = 0;
    int queuedPkts_ = 0;
    /// Lower bound on the earliest in-flight transfer completion
    /// (kNoCycle when none): completion ticks before it are exact no-ops.
    Cycle nextCompletion_ = kNoCycle;

    void arm();
};

} // namespace taqos
