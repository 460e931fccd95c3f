/// \file os.h
/// The three OS/hypervisor services the scheme relies on (Sec. 2.2):
///   1. co-schedule only same-VM threads onto a node's terminals,
///   2. allocate convex domains of compute/storage nodes per VM,
///   3. program per-flow rates/priorities into the memory-mapped flow
///      registers of the QOS-enabled shared-region routers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "chip/allocator.h"
#include "chip/geometry.h"
#include "qos/pvc.h"

namespace taqos {

class FabricLayout;

struct ThreadPlacement {
    int vmId = -1;
    int threadId = -1;
    NodeCoord node;
    int terminal = 0; ///< slot within the node (0..concentration-1)
};

/// A VM to admit: its id, thread count and SLA weight.
struct VmSpec {
    int id = 0;
    int threads = 0;
    std::uint32_t weight = 1;
};

struct VmInfo {
    int id = -1;
    Domain domain;
    int numThreads = 0;
    std::uint32_t weight = 1; ///< provisioned service weight (SLA class)
    std::vector<ThreadPlacement> threads;
};

class OsScheduler {
  public:
    explicit OsScheduler(const ChipConfig &chip);

    /// Admit a VM: allocates a convex domain sized for its thread count
    /// (ceil(threads / concentration) nodes) and co-schedules the threads
    /// onto the domain's terminals. Returns nullopt if the chip is full.
    std::optional<VmInfo> createVm(int vmId, int numThreads,
                                   std::uint32_t weight = 1);

    bool destroyVm(int vmId);

    const VmInfo *vm(int vmId) const;
    const std::vector<VmInfo> &vms() const { return vms_; }
    DomainAllocator &allocator() { return alloc_; }
    const ChipConfig &chip() const { return chip_; }

    /// Co-scheduling invariant: every node hosts threads of at most one
    /// VM (so row links are only shared by "friendly" threads and need no
    /// QOS).
    bool coScheduleInvariant() const;

    /// Which VM owns a node (-1 if unallocated / shared).
    int ownerOf(NodeCoord c) const;

    /// Program the flow registers of this chip's shared columns, laid out
    /// as `layout` (a one-chip fabric on this chip's grid): `pvc` with one
    /// weight per flow, the owning VM's on each flow a compute node
    /// originates (layout.originOf) and 1 on every other flow.
    PvcParams flowRegisters(const FabricLayout &layout, PvcParams pvc) const;

  private:
    ChipConfig chip_;
    DomainAllocator alloc_;
    std::vector<VmInfo> vms_;
};

} // namespace taqos
