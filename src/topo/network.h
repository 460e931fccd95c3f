/// \file network.h
/// Topology-agnostic network substrate: the routers, injector queues and
/// terminal (ejection) buffers a simulated fabric is made of, plus the
/// builder helpers the topology wiring code shares.
///
/// A Network owns no cycle semantics — that is the NetSim engine
/// (sim/net_sim.h). Its one concrete subclass, FabricNetwork
/// (topo/fabric.h), wires the paper's QOS-protected shared columns
/// (topo/column_wiring.h), the unprotected row meshes feeding them and
/// the links between chips; the standalone column is its row-less case.
#pragma once

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "noc/activity.h"
#include "noc/ports.h"
#include "qos/policy.h"
#include "qos/pvc.h"
#include "router/router.h"

namespace taqos {

class Network {
  public:
    virtual ~Network();
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /// QOS discipline of this network's protected routers.
    QosMode mode() const { return mode_; }
    const PvcParams &pvcParams() const { return pvc_; }

    /// Structural properties of the mode's policy (flow tables, reserved
    /// VCs, frames, source quotas) — a stateless prototype instance; the
    /// stateful per-router policies live inside the routers.
    const QosPolicy &policyTraits() const { return *traits_; }

    int numNodes() const { return static_cast<int>(routers_.size()); }
    int numFlows() const { return static_cast<int>(injectors_.size()); }

    Router *router(NodeId n)
    {
        return routers_[static_cast<std::size_t>(n)].get();
    }
    const Router *router(NodeId n) const
    {
        return routers_[static_cast<std::size_t>(n)].get();
    }

    /// Ejection buffer at node `n`'s terminal.
    InputPort *termPort(NodeId n)
    {
        return termPorts_[static_cast<std::size_t>(n)].get();
    }

    /// Canonical per-flow source queue at the network's injection
    /// boundary: traffic enters here, NACKed packets return here, and the
    /// retransmission window is accounted here.
    InjectorQueue &injector(FlowId flow)
    {
        return injectors_[static_cast<std::size_t>(flow)];
    }

    std::vector<InjectorQueue> &injectors() { return injectors_; }

    /// ACK-network hop distance between two node ids (the modelled
    /// ACK/NACK return delay is proportional to it).
    int ackDistance(NodeId src, NodeId dst) const
    {
        return std::abs(dst - src);
    }

    /// Buffers not owned by any router beyond the per-node terminals
    /// (e.g. the chip's row-to-column handoff buffers, registered by the
    /// topology builder). The engine includes them in frame flushes and
    /// invariant checks.
    const std::vector<InputPort *> &auxPorts() const { return auxPorts_; }

    /// The routers with work, one bit per node (see noc/activity.h):
    /// routers arm themselves on activity events, and the
    /// activity-driven NetSim walks and sweeps it every cycle.
    ActivityWorklist &worklist() { return worklist_; }

    /// Invalidate every router's cached arbitration state (frame flushes,
    /// GSF window advances: policy state changed behind the routers'
    /// backs). Does not arm idle routers — a router with no work has
    /// nothing to rescan, and whatever gives it work later re-arms it.
    void invalidateArbitration();

    /// Rewrite the per-flow QOS weights in place — the memory-mapped
    /// flow-register reprogramming the hypervisor performs when tenants
    /// arrive or depart (Sec. 2.2). Every router references pvc_, so the
    /// new weights take effect immediately; cached arbitration state is
    /// invalidated. Callers should apply this at frame boundaries (the
    /// tenant-churn driver does), where in-flight priority state resets
    /// anyway. `weights` must be empty (all-ones) or sized numFlows.
    void reprogramFlowWeights(std::vector<std::uint32_t> weights);

    /// Attach (or detach, with nullptr) a flit-trace recorder to every
    /// router, terminal and aux port: registers each port with the sink
    /// and points the state-transition hooks at it. Usually reached via
    /// NetSim::attachTraceSink, which also feeds the engine-side events.
    void setTraceSink(TraceSink *sink);

    // --- builder interface (used by the topology wiring code and tests) --

    /// VC index reserved for rate-compliant packets (-1 when disabled).
    int reservedIdx() const;
    /// Per-flow-queueing reference: VCs grow on demand.
    bool unbounded() const;

    /// Create a router with an explicit mode (unprotected row routers).
    Router *addRouter(NodeId node, QosMode mode);
    /// Create a router whose flow table covers only the global flow ids
    /// [flowBase, flowBase + flowCount) (one block of a larger fabric).
    Router *addRouter(NodeId node, QosMode mode, FlowId flowBase,
                      int flowCount);

    /// Create the ejection buffer for node `node`. Routers and terminal
    /// ports must be created in the same node order so the per-node
    /// indexing stays aligned.
    InputPort *addTermPort(NodeId node, int vcs);

    /// Create a network input port on `r` (column channel or DPS subnet).
    InputPort *makeNetInput(Router *r, std::string name, NodeId node,
                            int vcs, int creditDelay, int pipeDelay,
                            bool passThrough, XbarGroup *group);

    /// Create the terminal output port on node `n` (drop into the ejection
    /// buffer) and record its index; also sets the self-route.
    void addTerminalOutput(NodeId n);

    /// Call Router::finalize on every router, then wire the activity
    /// tracking: VC-to-port back-pointers (transition hooks),
    /// injector-to-port back-pointers (enqueue arming), and the shared
    /// worklist every router initially arms onto. Builders must call this
    /// once, after the full port structure exists.
    void finalizeRouters();

    /// Always 0: routers and ports keep their own state, and no arena
    /// holds it. Kept only because the benchmark's `topo.hot_arena_kb`
    /// reads it; the next benchmark change drops both (ROADMAP item 4).
    std::size_t hotArenaBytes() const { return 0; }

    /// Next unused flow-table id on `r` (builders group replicated
    /// channels under one id; everything else gets its own).
    static int nextTableIdx(Router *r);

  protected:
    Network(QosMode mode, PvcParams pvc);

    QosMode mode_;
    /// Stable storage for the QOS parameters every router references.
    PvcParams pvc_;
    /// Prototype policy instance backing policyTraits().
    std::unique_ptr<QosPolicy> traits_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<InputPort>> termPorts_;
    std::vector<InjectorQueue> injectors_;
    std::vector<InputPort *> auxPorts_;
    ActivityWorklist worklist_;
};

} // namespace taqos
