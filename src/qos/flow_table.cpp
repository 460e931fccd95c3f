#include "qos/flow_table.h"

#include "common/assert.h"
#include "router/router.h"

namespace taqos {

FlowTable::FlowTable(const PvcParams &params, int numOutputs)
    : FlowTable(params, numOutputs, 0, params.numFlows)
{
}

FlowTable::FlowTable(const PvcParams &params, int numOutputs,
                     FlowId flowBase, int flowCount)
    : params_(&params), numOutputs_(numOutputs), flowBase_(flowBase),
      flowCount_(flowCount),
      counts_(static_cast<std::size_t>(numOutputs) *
                  static_cast<std::size_t>(flowCount),
              0)
{
    TAQOS_ASSERT(flowBase >= 0 && flowCount >= 0 &&
                     flowBase + flowCount <= params.numFlows,
                 "flow window [%d, %d) outside the %d flows", flowBase,
                 flowBase + flowCount, params.numFlows);
}

void
FlowTable::charge(int out, FlowId flow, int flits)
{
    counts_[index(out, flow)] += static_cast<std::uint64_t>(flits);
    if (owner_ != nullptr)
        owner_->noteTableMutated(out);
}

void
FlowTable::uncharge(int out, FlowId flow, int flits)
{
    std::uint64_t &count = counts_[index(out, flow)];
    const auto amount = static_cast<std::uint64_t>(flits);
    count = count > amount ? count - amount : 0;
    if (owner_ != nullptr)
        owner_->noteTableMutated(out);
}

void
FlowTable::flush()
{
    for (auto &c : counts_)
        c = 0;
    if (owner_ != nullptr)
        owner_->noteTableMutated(-1);
}

} // namespace taqos
