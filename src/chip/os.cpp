#include "chip/os.h"

#include "common/assert.h"

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
OsScheduler::columnFlowRegisters(int column, const ColumnConfig &col) const
{
    TAQOS_ASSERT(chip_.isSharedColumn(column), "column %d is not shared",
                 column);
    TAQOS_ASSERT(col.numNodes == chip_.nodesY(),
                 "column height mismatch: %d vs %d", col.numNodes,
                 chip_.nodesY());

    PvcParams params = col.pvc;
    params.numFlows = col.numFlows();
    std::vector<std::uint32_t> weights(
        static_cast<std::size_t>(col.numFlows()), 1);

    for (int row = 0; row < chip_.nodesY(); ++row) {
        // Row injectors 1.. map to the row's compute nodes ordered by x.
        int injector = 1;
        for (int x = 0; x < chip_.nodesX(); ++x) {
            if (x == column)
                continue;
            if (injector >= col.injectorsPerNode)
                break;
            const int owner = ownerOf(NodeCoord{x, row});
            if (owner >= 0) {
                const VmInfo *v = vm(owner);
                weights[static_cast<std::size_t>(
                    col.flowOf(row, injector))] = v->weight;
            }
            ++injector;
        }
    }
    params.setWeights(std::move(weights));
    return params;
}

} // namespace taqos
