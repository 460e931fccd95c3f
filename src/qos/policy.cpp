#include "qos/policy.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"
#include "noc/packet.h"

namespace taqos {

QosPolicy::~QosPolicy() = default;
SourceGate::~SourceGate() = default;

std::uint64_t
QosPolicy::priority(const NetPacket &pkt, bool carried,
                    const FlowTable &table, int tableIdx) const
{
    // Virtual-clock default (PVC and the per-flow queueing reference):
    // a flow's consumed bandwidth scaled by its provisioned rate; ports
    // without local flow state reuse the source-computed value.
    if (carried || !table.enabled())
        return pkt.carriedPrio;
    return table.priorityOf(tableIdx, pkt.flow);
}

bool
QosPolicy::betterThan(const ArbKey &a, const ArbKey &b, int outPort) const
{
    (void)outPort;
    if (a.prio != b.prio)
        return a.prio < b.prio;
    if (a.age != b.age)
        return a.age < b.age;
    if (a.flow != b.flow)
        return a.flow < b.flow;
    return a.rrKey < b.rrKey;
}

namespace {

/// Preemptive Virtual Clock — the paper's scheme. Priority and comparator
/// are the virtual-clock defaults; what makes PVC preemptive is the
/// onAllocFail decision (inversion detection thresholds), and what makes
/// it safe is the source quota + reserved escape VC the structural
/// properties enable.
class PvcPolicy final : public QosPolicy {
  public:
    using QosPolicy::QosPolicy;
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
class PerFlowQueuePolicy final : public QosPolicy {
  public:
    using QosPolicy::QosPolicy;
    QosMode mode() const override { return QosMode::PerFlowQueue; }
    bool usesFlowTable() const override { return true; }
    bool unboundedVcs() const override { return true; }
};

/// Locally-fair rotating arbitration, no flow state (the starvation
/// baseline of Sec. 5.3).
class NoQosPolicy final : public QosPolicy {
  public:
    using QosPolicy::QosPolicy;
    QosMode mode() const override { return QosMode::NoQos; }

    void init(int numOutputs) override
    {
        rrPtr_.assign(static_cast<std::size_t>(numOutputs), 0);
    }

    std::uint64_t priority(const NetPacket &, bool, const FlowTable &,
                           int) const override
    {
        return 0;
    }

    bool betterThan(const ArbKey &a, const ArbKey &b,
                    int outPort) const override
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
/// with a frame number at the source (see GsfGate); routers give strict
/// priority to earlier frames and break ties oldest-first, so a frame's
/// traffic cannot be delayed by later frames — per-flow bandwidth is
/// guaranteed at frame granularity without preemption or per-router flow
/// state.
class GsfPolicy final : public QosPolicy {
  public:
    using QosPolicy::QosPolicy;
    QosMode mode() const override { return QosMode::Gsf; }

    std::uint64_t priority(const NetPacket &pkt, bool, const FlowTable &,
                           int) const override
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
class AgePolicy final : public QosPolicy {
  public:
    using QosPolicy::QosPolicy;
    QosMode mode() const override { return QosMode::AgeArb; }

    std::uint64_t priority(const NetPacket &pkt, bool, const FlowTable &,
                           int) const override
    {
        return pkt.genCycle;
    }
};

/// Weighted round-robin over flows at each output port. Reuses the
/// per-output flow table as the service meter but ranks by *completed
/// rounds* (served flits / weight, integer division), so a flow bursts up
/// to `weight` flits per round — classic WRR, as opposed to the
/// flit-interleaved virtual clock.
class WrrPolicy final : public QosPolicy {
  public:
    using QosPolicy::QosPolicy;
    QosMode mode() const override { return QosMode::Wrr; }
    bool usesFlowTable() const override { return true; }

    std::uint64_t priority(const NetPacket &pkt, bool carried,
                           const FlowTable &table,
                           int tableIdx) const override
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

/// GSF source gate: the frame-windowed injection budgets plus the global
/// frame window. Each flow may inject up to its provisioned share of a
/// frame (weight/sumW x gsfFrameLen flits) into each of the next
/// `gsfFrames` frames; a flow that exhausts the whole window stalls at
/// the source. The window advances when the oldest frame has fully
/// drained — signalled by the delivery notifications the ACK network
/// already carries for every packet (early reclamation) — or, for idle
/// frames, when `gsfFrameLen` cycles elapse.
class GsfGate final : public SourceGate {
  public:
    explicit GsfGate(const PvcParams &params) : params_(&params)
    {
        TAQOS_ASSERT(params.gsfFrames > 0, "GSF needs a positive window");
        TAQOS_ASSERT(params.gsfFrameLen > 0, "GSF needs a frame length");
        windows_.resize(static_cast<std::size_t>(params.gsfFrames));
        for (auto &w : windows_)
            w.injected.assign(static_cast<std::size_t>(params.numFlows), 0);
    }

    bool admit(NetPacket &pkt, Cycle now) override
    {
        (void)now;
        if (pkt.frameTag != kNoFrameTag)
            return true; // already admitted (re-candidacy, column re-entry)
        const auto flow = static_cast<std::size_t>(pkt.flow);
        const std::uint64_t budget = budgetOf(pkt.flow);
        for (std::size_t w = 0; w < windows_.size(); ++w) {
            Window &win = windows_[slot(w)];
            if (win.injected[flow] >= budget)
                continue;
            // Charge-then-overshoot (rather than fit-then-charge) so a
            // budget smaller than one packet still guarantees progress.
            win.injected[flow] += static_cast<std::uint64_t>(pkt.sizeFlits);
            ++win.outstanding;
            ++win.stamped;
            pkt.frameTag = head_ + static_cast<std::uint64_t>(w);
            return true;
        }
        return false; // window exhausted: stall the source
    }

    void onDeliver(const NetPacket &pkt, Cycle now) override
    {
        (void)now;
        if (pkt.frameTag == kNoFrameTag)
            return;
        TAQOS_ASSERT(pkt.frameTag >= head_,
                     "delivery for an already-reclaimed GSF frame");
        const auto w = static_cast<std::size_t>(pkt.frameTag - head_);
        TAQOS_ASSERT(w < windows_.size(), "GSF frame tag out of window");
        Window &win = windows_[slot(w)];
        TAQOS_ASSERT(win.outstanding > 0, "GSF frame accounting underflow");
        --win.outstanding;
    }

    void rollover(Cycle now) override
    {
        // Early reclamation: a frame that saw traffic and fully drained
        // advances immediately; an idle frame advances on the timer.
        while (true) {
            Window &win = windows_[headSlot_];
            const bool timedOut = now >= headStart_ + params_->gsfFrameLen;
            if (win.outstanding != 0 || (win.stamped == 0 && !timedOut))
                return;
            std::fill(win.injected.begin(), win.injected.end(), 0);
            win.stamped = 0;
            headSlot_ = (headSlot_ + 1) % windows_.size();
            ++head_;
            headStart_ = now;
        }
    }

    std::uint64_t headFrame() const { return head_; }

    /// Admission decisions can only flip from "stall" to "admit" when the
    /// head frame advances (budgets reset); charging within a window only
    /// ever consumes budget.
    std::uint64_t epoch() const override { return head_; }

    std::vector<std::uint64_t> packState() const override
    {
        std::vector<std::uint64_t> w;
        w.push_back(static_cast<std::uint64_t>(headSlot_));
        w.push_back(head_);
        w.push_back(headStart_);
        for (const Window &win : windows_) {
            w.push_back(win.outstanding);
            w.push_back(win.stamped);
            w.insert(w.end(), win.injected.begin(), win.injected.end());
        }
        return w;
    }

    void unpackState(const std::vector<std::uint64_t> &words) override
    {
        const std::size_t perWin =
            2 + static_cast<std::size_t>(params_->numFlows);
        TAQOS_ASSERT(words.size() == 3 + windows_.size() * perWin,
                     "GSF gate restore geometry mismatch");
        std::size_t i = 0;
        headSlot_ = static_cast<std::size_t>(words[i++]);
        head_ = words[i++];
        headStart_ = words[i++];
        for (Window &win : windows_) {
            win.outstanding = words[i++];
            win.stamped = words[i++];
            for (auto &flits : win.injected)
                flits = words[i++];
        }
    }

  private:
    struct Window {
        std::vector<std::uint64_t> injected; ///< flits stamped, per flow
        std::uint64_t outstanding = 0;       ///< stamped, not yet delivered
        std::uint64_t stamped = 0;           ///< packets ever stamped
    };

    std::uint64_t budgetOf(FlowId flow) const
    {
        const std::uint64_t sum = params_->sumWeights();
        TAQOS_ASSERT(sum > 0, "zero total weight");
        return std::max<std::uint64_t>(
            1, params_->gsfFrameLen * params_->weightOf(flow) / sum);
    }

    std::size_t slot(std::size_t offset) const
    {
        return (headSlot_ + offset) % windows_.size();
    }

    const PvcParams *params_;
    std::vector<Window> windows_; ///< circular, windows_[slot(0)] == head
    std::size_t headSlot_ = 0;
    std::uint64_t head_ = 0;   ///< oldest active frame number
    Cycle headStart_ = 0;      ///< cycle the head frame opened
};

} // namespace

std::unique_ptr<QosPolicy>
makeQosPolicy(QosMode mode, const PvcParams &params)
{
    switch (mode) {
      case QosMode::Pvc: return std::make_unique<PvcPolicy>(params);
      case QosMode::PerFlowQueue:
        return std::make_unique<PerFlowQueuePolicy>(params);
      case QosMode::NoQos: return std::make_unique<NoQosPolicy>(params);
      case QosMode::Gsf: return std::make_unique<GsfPolicy>(params);
      case QosMode::AgeArb: return std::make_unique<AgePolicy>(params);
      case QosMode::Wrr: return std::make_unique<WrrPolicy>(params);
    }
    TAQOS_ASSERT(false, "unknown QOS mode %d", static_cast<int>(mode));
    return nullptr;
}

std::unique_ptr<SourceGate>
makeSourceGate(QosMode mode, const PvcParams &params)
{
    if (mode == QosMode::Gsf)
        return std::make_unique<GsfGate>(params);
    return nullptr;
}

} // namespace taqos
