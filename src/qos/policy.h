/// \file policy.h
/// The pluggable arbitration-policy layer of the shared-region routers.
///
/// A QosPolicy owns every priority / preemption / quota decision a Router
/// makes; the Router keeps the mechanism (VC allocation, cut-through
/// transfers, preemption teardown) and delegates the policy questions:
///
///   - rank(...)        what is this packet's arbitration rank?
///   - better(...)      which of two candidates wins an output?
///   - onAllocFail(...) a blocked candidate: pay the preemption cost?
///   - onGrant(...)     a candidate won its output (rotate state)
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
///
/// Each policy's rank and comparator are written once, as the inline,
/// non-virtual rank()/better() members of its `final` class (see
/// RankDefaults). The router's arbitration is instantiated once per
/// policy class (Router::arbitrate<P>, picked at Router::finalize), so
/// both engines rank through one dispatch per router tick and no virtual
/// call per candidate. A new policy derives from RankDefaults and joins
/// the router's dispatch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "noc/packet.h"
#include "qos/flow_table.h"
#include "qos/pvc.h"

namespace taqos {

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

    /// Checkpointing: the policy's mutable per-router state as an opaque
    /// word vector (empty = stateless). A policy that adds mutable state
    /// MUST override both or restored runs diverge. unpackState runs on
    /// a freshly init()-ed instance of the same mode and geometry.
    virtual std::vector<std::uint64_t> packState() const { return {}; }
    virtual void unpackState(const std::vector<std::uint64_t> &words)
    {
        (void)words;
    }

    // --- arbitration (rank and comparator: see RankDefaults) ---

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

/// The concrete policies' base: QosPolicy plus the default ranking, the
/// virtual clock. A concrete policy `P` derives from RankDefaults and may
/// hide either inline member with its own:
///
///   std::uint64_t rank(const NetPacket &, bool carried,
///                      const FlowTable &, int tableIdx) const;
///   bool better(const ArbKey &a, const ArbKey &b, int outPort) const;
///
/// Router::arbitrate<P> calls P's members, so they are the one definition
/// of P's ranking. They are not virtual and QosPolicy does not declare
/// them: a QosPolicy pointer cannot reach the defaults, so a policy that
/// hides them is never ranked by the virtual clock by mistake.
class RankDefaults : public QosPolicy {
  public:
    using QosPolicy::QosPolicy;

    /// Arbitration rank of `pkt` at an output (lower = higher priority).
    /// `carried` is true at pass-through inputs that reuse the priority
    /// computed at the packet's source (DPS repeaters). Virtual clock
    /// (PVC, per-flow queueing): a flow's consumed bandwidth scaled by
    /// its provisioned rate; ports without local flow state reuse the
    /// source-computed value.
    std::uint64_t rank(const NetPacket &pkt, bool carried,
                       const FlowTable &table, int tableIdx) const
    {
        if (carried || !table.enabled())
            return pkt.carriedPrio;
        return table.priorityOf(tableIdx, pkt.flow);
    }

    /// Does candidate `a` beat candidate `b` for output `outPort`?
    /// Virtual-clock order: priority, then age, then flow, then
    /// enumeration position.
    bool better(const ArbKey &a, const ArbKey &b, int /*outPort*/) const
    {
        if (a.prio != b.prio)
            return a.prio < b.prio;
        if (a.age != b.age)
            return a.age < b.age;
        if (a.flow != b.flow)
            return a.flow < b.flow;
        return a.rrKey < b.rrKey;
    }
};

/// Preemptive Virtual Clock — the paper's scheme. Priority and comparator
/// are the virtual-clock defaults; what makes PVC preemptive is the
/// onAllocFail decision (inversion detection thresholds), and what makes
/// it safe is the source quota + reserved escape VC the structural
/// properties enable.
class PvcPolicy final : public RankDefaults {
  public:
    using RankDefaults::RankDefaults;
    QosMode mode() const override { return QosMode::Pvc; }
    bool usesFlowTable() const override { return true; }
    bool usesReservedVc() const override
    {
        return params_->reservedVcEnabled;
    }
    bool usesSourceQuota() const override { return true; }
    Cycle frameLen() const override { return params_->frameLen; }

    bool onAllocFail(Cycle waited, bool xferBlocked) const override
    {
        // Transient buffer-full is not an inversion; the requester must
        // have been stuck past the wait threshold before PVC pays the
        // preemption cost. Ongoing transfers are interrupted on a
        // separate (shorter) threshold.
        const int wait = xferBlocked ? params_->preemptXferWaitCycles
                                     : params_->preemptWaitCycles;
        return waited >= static_cast<Cycle>(wait);
    }
};

/// Per-flow queueing (Fig. 6 reference): same virtual-clock schedule as
/// PVC but with unbounded per-flow buffers, so allocation never fails and
/// preemption never triggers.
class PerFlowQueuePolicy final : public RankDefaults {
  public:
    using RankDefaults::RankDefaults;
    QosMode mode() const override { return QosMode::PerFlowQueue; }
    bool usesFlowTable() const override { return true; }
    bool unboundedVcs() const override { return true; }
};

/// Locally-fair rotating arbitration, no flow state (the starvation
/// baseline of Sec. 5.3).
class NoQosPolicy final : public RankDefaults {
  public:
    using RankDefaults::RankDefaults;
    QosMode mode() const override { return QosMode::NoQos; }

    void init(int numOutputs) override
    {
        rrPtr_.assign(static_cast<std::size_t>(numOutputs), 0);
    }

    std::uint64_t rank(const NetPacket &, bool, const FlowTable &,
                       int) const
    {
        return 0;
    }

    /// Rotating order from the output's own pointer.
    bool better(const ArbKey &a, const ArbKey &b, int outPort) const
    {
        const std::uint32_t ptr = rrPtr_[static_cast<std::size_t>(outPort)];
        return cyclicRank(a.rrKey, ptr) < cyclicRank(b.rrKey, ptr);
    }

    void onGrant(int outPort, const ArbKey &winner) override
    {
        rrPtr_[static_cast<std::size_t>(outPort)] = winner.rrKey + 1;
    }

    std::vector<std::uint64_t> packState() const override
    {
        return {rrPtr_.begin(), rrPtr_.end()};
    }

    void unpackState(const std::vector<std::uint64_t> &words) override
    {
        TAQOS_ASSERT(words.size() == rrPtr_.size(),
                     "rotating-arbiter restore geometry mismatch");
        for (std::size_t i = 0; i < words.size(); ++i)
            rrPtr_[i] = static_cast<std::uint32_t>(words[i]);
    }

  private:
    /// Modulus for the rotating arbiter's cyclic ranking.
    static constexpr std::uint32_t kRrModulus = 4096;

    static std::uint32_t cyclicRank(std::uint32_t key, std::uint32_t ptr)
    {
        return (key + kRrModulus - (ptr % kRrModulus)) % kRrModulus;
    }

    /// Rotating-arbiter pointers, one per output.
    std::vector<std::uint32_t> rrPtr_;
};

/// Globally Synchronized Frames (Lee et al., ISCA 2008), the frame-based
/// reservation scheme the paper compares against. Packets are stamped
/// with a frame number at the source (see the GSF SourceGate); routers
/// give strict priority to earlier frames and break ties oldest-first,
/// so a frame's traffic cannot be delayed by later frames — per-flow
/// bandwidth is guaranteed at frame granularity without preemption or
/// per-router flow state.
class GsfPolicy final : public RankDefaults {
  public:
    using RankDefaults::RankDefaults;
    QosMode mode() const override { return QosMode::Gsf; }

    std::uint64_t rank(const NetPacket &pkt, bool, const FlowTable &,
                       int) const
    {
        return pkt.frameTag;
    }

    /// The gate's head-frame advance (drain-driven or timed) resets the
    /// per-flow injection budgets: stalled sources become admittable.
    bool invalidatesOnFrameBoundary() const override { return true; }
};

/// Age-based arbitration: oldest packet first, network-wide. No flow
/// state at all, yet starvation-free — the locally-fair baseline's
/// pathological hotspot tree (Table 2) cannot starve a distant node
/// because a waiting packet's rank only improves with time.
class AgePolicy final : public RankDefaults {
  public:
    using RankDefaults::RankDefaults;
    QosMode mode() const override { return QosMode::AgeArb; }

    std::uint64_t rank(const NetPacket &pkt, bool, const FlowTable &,
                       int) const
    {
        return pkt.genCycle;
    }
};

/// Weighted round-robin over flows at each output port. Reuses the
/// per-output flow table as the service meter but ranks by *completed
/// rounds* (served flits / weight, integer division), so a flow bursts up
/// to `weight` flits per round — classic WRR, as opposed to the
/// flit-interleaved virtual clock.
class WrrPolicy final : public RankDefaults {
  public:
    using RankDefaults::RankDefaults;
    QosMode mode() const override { return QosMode::Wrr; }
    bool usesFlowTable() const override { return true; }

    std::uint64_t rank(const NetPacket &pkt, bool carried,
                       const FlowTable &table, int tableIdx) const
    {
        if (carried || !table.enabled())
            return pkt.carriedPrio;
        // A zero provisioned weight (deprovisioned VM slot) rounds up to
        // 1 rather than dividing by zero — best-effort, never starved.
        const std::uint64_t weight =
            std::max<std::uint64_t>(1, params_->weightOf(pkt.flow));
        return table.countOf(tableIdx, pkt.flow) / weight;
    }
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
