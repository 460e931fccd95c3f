#include "chip/os.h"

#include "common/assert.h"
#include "topo/fabric.h"

namespace taqos {

OsScheduler::OsScheduler(const ChipConfig &chip) : chip_(chip), alloc_(chip)
{
}

std::optional<VmInfo>
OsScheduler::createVm(int vmId, int numThreads, std::uint32_t weight)
{
    TAQOS_ASSERT(numThreads > 0, "VM with no threads");
    TAQOS_ASSERT(vm(vmId) == nullptr, "VM %d already exists", vmId);
    TAQOS_ASSERT(weight > 0, "zero weight");

    const int perNode = chip_.terminalsPerNode();
    const int nodes = (numThreads + perNode - 1) / perNode;
    auto domain = alloc_.allocate(vmId, nodes);
    if (!domain.has_value())
        return std::nullopt;

    VmInfo info;
    info.id = vmId;
    info.domain = *domain;
    info.numThreads = numThreads;
    info.weight = weight;

    // Co-schedule: fill one node's terminals completely before the next,
    // so no node ever hosts two VMs.
    int thread = 0;
    for (const auto &node : domain->nodes()) {
        for (int t = 0; t < perNode && thread < numThreads; ++t, ++thread)
            info.threads.push_back(ThreadPlacement{vmId, thread, node, t});
        if (thread >= numThreads)
            break;
    }
    vms_.push_back(info);
    return info;
}

bool
OsScheduler::destroyVm(int vmId)
{
    for (std::size_t i = 0; i < vms_.size(); ++i) {
        if (vms_[i].id == vmId) {
            alloc_.release(vmId);
            vms_.erase(vms_.begin() + static_cast<long>(i));
            return true;
        }
    }
    return false;
}

const VmInfo *
OsScheduler::vm(int vmId) const
{
    for (const auto &v : vms_)
        if (v.id == vmId)
            return &v;
    return nullptr;
}

bool
OsScheduler::coScheduleInvariant() const
{
    std::vector<int> owner(static_cast<std::size_t>(chip_.numNodes()), -1);
    for (const auto &v : vms_) {
        for (const auto &t : v.threads) {
            auto &o = owner[static_cast<std::size_t>(chip_.nodeIndex(t.node))];
            if (o != -1 && o != v.id)
                return false;
            o = v.id;
        }
    }
    return true;
}

int
OsScheduler::ownerOf(NodeCoord c) const
{
    for (const auto &v : vms_)
        if (v.domain.contains(c))
            return v.id;
    return -1;
}

PvcParams
OsScheduler::flowRegisters(const FabricLayout &layout, PvcParams pvc) const
{
    TAQOS_ASSERT(layout.chips() == 1 &&
                     layout.spec().chip.numNodes() == chip_.numNodes(),
                 "one hypervisor programs its own chip's columns");
    pvc.numFlows = layout.totalFlows();
    std::vector<std::uint32_t> weights(
        static_cast<std::size_t>(layout.totalFlows()), 1);
    for (FlowId f = 0; f < layout.totalFlows(); ++f) {
        const std::optional<FlowOrigin> origin = layout.originOf(f);
        const int owner = origin.has_value() ? ownerOf(origin->node) : -1;
        if (owner >= 0)
            weights[static_cast<std::size_t>(f)] = vm(owner)->weight;
    }
    pvc.setWeights(std::move(weights));
    return pvc;
}

} // namespace taqos
