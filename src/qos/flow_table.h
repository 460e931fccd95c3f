/// \file flow_table.h
/// Per-router PVC flow state: one bandwidth-counter table per tracked
/// output port. The Virtual Clock priority of a packet is its flow's
/// consumed bandwidth scaled by the flow's provisioned rate; lower values
/// win arbitration.
///
/// A table holds counters for one contiguous window of global flow ids:
/// the flows whose packets can reach its router. A standalone column
/// (and a one-block fabric) windows every flow; a multi-block fabric's
/// router windows only its own block's flows, so its state grows with
/// the block, not the machine. Callers always pass global flow ids, and
/// weights are read by global id.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "qos/pvc.h"

namespace taqos {

class Router;

class FlowTable {
  public:
    FlowTable() = default;
    /// Counters for every flow of `params` (the full window).
    FlowTable(const PvcParams &params, int numOutputs);
    /// Counters for the global flow ids [flowBase, flowBase + flowCount).
    FlowTable(const PvcParams &params, int numOutputs, FlowId flowBase,
              int flowCount);

    bool enabled() const { return params_ != nullptr; }

    /// Attach the router whose arbitration reads this table. Every
    /// mutation (charge/uncharge/flush) then invalidates its cached
    /// candidate rankings — including refunds issued by a *remote*
    /// router's preemption teardown, which reach the table through the
    /// victim packet's charge log. Null (unit-test tables) disables the
    /// notification.
    void setOwner(Router *owner) { owner_ = owner; }

    /// Virtual-clock priority value of `flow` at output `out`
    /// (lower = higher priority). Inline: read for every candidate of
    /// every arbitration scan.
    std::uint64_t priorityOf(int out, FlowId flow) const
    {
        // counter / rate == counter * sumWeights / weight; integer-scaled
        // so equal-weight flows compare by raw counters.
        const std::uint64_t count = counts_[index(out, flow)];
        return count * params_->sumWeights() / params_->weightOf(flow);
    }

    /// Charge `flits` of bandwidth to `flow` at output `out` (called when
    /// a transfer wins the output).
    void charge(int out, FlowId flow, int flits);

    /// Refund a charge whose packet was preempted: the virtual clock
    /// tracks *delivered* service, so discarded forwarding must not count
    /// against the victim (it would look like a hog and be victimized
    /// again — a starvation spiral). Clamps at zero across frame flushes.
    void uncharge(int out, FlowId flow, int flits);

    /// Frame boundary: flush all counters.
    void flush();

    std::uint64_t countOf(int out, FlowId flow) const
    {
        return counts_[index(out, flow)];
    }

    /// Checkpoint access: the flat counter array (configuration —
    /// params, owner, geometry — is rebuilt by the restoring sim).
    const std::vector<std::uint64_t> &counts() const { return counts_; }
    void restoreCounts(const std::vector<std::uint64_t> &counts)
    {
        TAQOS_ASSERT(counts.size() == counts_.size(),
                     "flow-table restore geometry mismatch");
        counts_ = counts;
    }

  private:
    std::size_t index(int out, FlowId flow) const
    {
        TAQOS_ASSERT(out >= 0 && out < numOutputs_,
                     "output %d out of range", out);
        TAQOS_ASSERT(flow >= flowBase_ && flow - flowBase_ < flowCount_,
                     "flow %d outside the table's window [%d, %d)", flow,
                     flowBase_, flowBase_ + flowCount_);
        return static_cast<std::size_t>(out) *
                   static_cast<std::size_t>(flowCount_) +
               static_cast<std::size_t>(flow - flowBase_);
    }

    const PvcParams *params_ = nullptr;
    Router *owner_ = nullptr;
    int numOutputs_ = 0;
    FlowId flowBase_ = 0;
    int flowCount_ = 0;
    /// [out * flowCount + (flow - flowBase)]
    std::vector<std::uint64_t> counts_;
};

} // namespace taqos
