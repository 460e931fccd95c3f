#include "qos/policy.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"
#include "noc/packet.h"

namespace taqos {

QosPolicy::~QosPolicy() = default;
SourceGate::~SourceGate() = default;

namespace {

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
