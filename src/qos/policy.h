/// \file policy.h
/// The pluggable arbitration-policy layer of the shared-region routers.
///
/// A QosPolicy owns every priority / preemption / quota decision a Router
/// makes; the Router keeps the mechanism (VC allocation, cut-through
/// transfers, preemption teardown) and delegates the policy questions:
///
///   - priority(...)    what is this packet's arbitration rank?
///   - betterThan(...)  which of two candidates wins an output?
///   - onAllocFail(...) a blocked candidate: pay the preemption cost?
///   - onGrant(...)     a candidate won its output (rotate state)
///   - rollover()       frame boundary: flush per-router policy state
///
/// plus structural properties the topology builders and the engine query
/// (flow-state tables, reserved escape VCs, unbounded per-flow queues,
/// source quotas, frame length).
///
/// Source-side policy state that is global to a simulation — GSF's
/// frame-windowed injection budgets — lives in a SourceGate the engine
/// owns and threads to every router through the TickContext: admit() gates
/// (and frame-stamps) packets at the injection boundary, onDeliver()
/// retires them, rollover() advances the global frame window.
///
/// Policies are per-router instances (arbitration state such as the
/// round-robin pointers is router-local); makeQosPolicy is the factory
/// the Router constructor uses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "qos/flow_table.h"
#include "qos/pvc.h"

namespace taqos {

struct NetPacket;

/// The policy-relevant identity of one arbitration candidate.
struct ArbKey {
    std::uint64_t prio = 0; ///< policy priority (lower wins)
    Cycle age = 0;          ///< generation cycle (lower = older)
    FlowId flow = kInvalidFlow;
    std::uint32_t rrKey = 0; ///< stable enumeration position at this router
};

class QosPolicy {
  public:
    explicit QosPolicy(const PvcParams &params) : params_(&params) {}
    virtual ~QosPolicy();
    QosPolicy(const QosPolicy &) = delete;
    QosPolicy &operator=(const QosPolicy &) = delete;

    virtual QosMode mode() const = 0;

    // --- structural properties (builders and engine) ---

    /// Keeps per-flow bandwidth state at each tracked output port.
    virtual bool usesFlowTable() const { return false; }
    /// Reserves one VC per network port for rate-compliant traffic.
    virtual bool usesReservedVc() const { return false; }
    /// Per-flow-queueing reference: VCs grow on demand.
    virtual bool unboundedVcs() const { return false; }
    /// Engine keeps a source-side QuotaTracker (PVC compliance marking).
    virtual bool usesSourceQuota() const { return false; }
    /// Router-state flush interval (0 = frameless). The engine flushes
    /// flow tables, quotas and carried priorities on this boundary.
    virtual Cycle frameLen() const { return 0; }

    /// Activity-driven engine: frame (or gate-window) boundaries rewrite
    /// policy state that cached arbitration decisions were derived from,
    /// so every router's cached winner set must be invalidated there.
    /// True for PVC (the frame flush zeroes flow tables, quota counters
    /// and carried priorities) and for GSF (a window advance can newly
    /// admit gated source packets); policies whose priorities never
    /// change behind the routers' backs keep the default. New QosPolicy
    /// implementations with engine-global or time-flushed state MUST
    /// override this (see README "Performance").
    virtual bool invalidatesOnFrameBoundary() const
    {
        return frameLen() != 0;
    }

    // --- per-router lifecycle ---

    /// Called from Router::finalize once the port structure exists.
    virtual void init(int numOutputs) { (void)numOutputs; }

    /// Frame boundary: flush per-router policy state (the Router flushes
    /// the flow table itself; this hook covers policy-private state).
    virtual void rollover() {}

    /// Checkpointing: the policy's mutable per-router state as an opaque
    /// word vector (empty = stateless). A policy that adds mutable state
    /// MUST override both or restored runs diverge. unpackState runs on
    /// a freshly init()-ed instance of the same mode and geometry.
    virtual std::vector<std::uint64_t> packState() const { return {}; }
    virtual void unpackState(const std::vector<std::uint64_t> &words)
    {
        (void)words;
    }

    // --- arbitration ---

    /// Arbitration rank of `pkt` at an output (lower = higher priority).
    /// `carried` is true at pass-through inputs that reuse the priority
    /// computed at the packet's source (DPS repeaters).
    virtual std::uint64_t priority(const NetPacket &pkt, bool carried,
                                   const FlowTable &table,
                                   int tableIdx) const;

    /// Does candidate `a` beat candidate `b` for output `outPort`? The
    /// default is the virtual-clock order: priority, then age, then flow,
    /// then enumeration position.
    virtual bool betterThan(const ArbKey &a, const ArbKey &b,
                            int outPort) const;

    /// A candidate won output `outPort` and started streaming.
    virtual void onGrant(int outPort, const ArbKey &winner)
    {
        (void)outPort;
        (void)winner;
    }

    /// The winning candidate failed to allocate downstream resources and
    /// has been blocked for `waited` cycles (`xferBlocked`: behind an
    /// in-progress transfer rather than VC exhaustion). Return true to
    /// attempt a preemption.
    virtual bool onAllocFail(Cycle waited, bool xferBlocked) const
    {
        (void)waited;
        (void)xferBlocked;
        return false;
    }

  protected:
    const PvcParams *params_;
};

/// Factory: the policy implementation for `mode`, configured by `params`
/// (which must outlive the policy).
std::unique_ptr<QosPolicy> makeQosPolicy(QosMode mode,
                                         const PvcParams &params);

/// Simulation-global source-side policy state (see file comment). Null
/// for policies without an injection gate.
class SourceGate {
  public:
    virtual ~SourceGate();

    /// May `pkt` (the head of its source queue) enter the network this
    /// cycle? May stamp per-packet policy state (GSF frame tags) on first
    /// admission; must stay true for an already-admitted packet.
    virtual bool admit(NetPacket &pkt, Cycle now) = 0;

    /// `pkt` reached its final destination terminal.
    virtual void onDeliver(const NetPacket &pkt, Cycle now) = 0;

    /// Per-cycle bookkeeping (frame advance / reclamation).
    virtual void rollover(Cycle now) = 0;

    /// Monotonic counter that advances whenever gate state changes in a
    /// way that can newly admit a previously-stalled packet (GSF: the
    /// head-frame advance, which resets injection budgets). The engine
    /// compares it around rollover() and invalidates every router's
    /// cached arbitration state on a change, so source queues stalled on
    /// admit() are re-examined exactly when the always-tick engine would
    /// re-admit them.
    virtual std::uint64_t epoch() const { return 0; }

    /// Checkpointing: the gate's full mutable state as an opaque word
    /// vector (same contract as QosPolicy::packState).
    virtual std::vector<std::uint64_t> packState() const { return {}; }
    virtual void unpackState(const std::vector<std::uint64_t> &words)
    {
        (void)words;
    }
};

std::unique_ptr<SourceGate> makeSourceGate(QosMode mode,
                                           const PvcParams &params);

} // namespace taqos
