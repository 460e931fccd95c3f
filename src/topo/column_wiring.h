/// \file column_wiring.h
/// Wiring of one QOS-protected shared column — 8 routers, their
/// terminals (memory controllers / accelerators) and 64 injectors, in
/// one of the five Table-1 topologies or the flattened butterfly — into
/// a Network.
///
/// The wiring is expressed against a ColumnWiring context, so the same
/// topology builders serve every block of a FabricNetwork
/// (topo/fabric.h): one block per shared column, with offset node/flow
/// id bases, all under the network's one QoS policy. The standalone
/// column is the row-less one-chip fabric (columnFabricSpec), whose only
/// block is wired at base 0 with no port-name prefix.
#pragma once

#include <string>

#include "noc/ports.h"
#include "router/router.h"
#include "topo/network.h"
#include "topo/topology.h"

namespace taqos {

/// Context for wiring one column block into a (possibly larger) network.
/// Local node ids 0..cfg.numNodes-1 and local flow ids map into the
/// network's global id spaces through `base`/`flowBase`; port names get
/// `prefix` so multi-block traces stay readable. A block at base 0 with
/// an empty prefix is the standalone column. Routers and ports take the
/// network's policy (Network::mode, reservedIdx, unbounded).
struct ColumnWiring {
    Network &net;
    const ColumnConfig &cfg;
    NodeId base = 0;     ///< global id of this block's local node 0
    FlowId flowBase = 0; ///< global id of this block's local flow 0
    std::string prefix;  ///< port-name prefix ("" for a lone block)

    NodeId node(int i) const { return base + i; }
    FlowId flow(int i, int slot) const
    {
        return flowBase + cfg.flowOf(i, slot);
    }
    std::string name(const std::string &s) const { return prefix + s; }

    Router *router(int i) const { return net.router(node(i)); }
    /// The block's routers keep flow state for the block's own flows
    /// only: remote flows keep their destination block's ids, so no
    /// other flow reaches them.
    Router *addRouter(int i) const
    {
        return net.addRouter(node(i), net.mode(), flowBase, cfg.numFlows());
    }

    InputPort *addTermPort(int i, int vcs) const
    {
        return net.addTermPort(node(i), vcs);
    }

    InputPort *makeNetInput(Router *r, const std::string &portName, int i,
                            int vcs, int creditDelay, int pipeDelay,
                            bool passThrough, XbarGroup *group) const
    {
        return net.makeNetInput(r, name(portName), node(i), vcs,
                                creditDelay, pipeDelay, passThrough, group);
    }

    void addTerminalOutput(int i) const { net.addTerminalOutput(node(i)); }

    void setRoute(Router *r, int d, RouteEntry e) const
    {
        r->setRoute(node(d), e);
    }
};

/// Create the block's routers, terminal ejection buffers and
/// (topology-independent) injection ports over its injector queues. The
/// network's injector store must already hold every flow of the fabric:
/// ports keep pointers into it.
void wireColumnInjection(const ColumnWiring &w);

/// The topology-specific channel/route wiring of one block.
void wireColumnTopology(const ColumnWiring &w);

/// Topology-specific wiring (implemented in build_*.cpp).
void buildMeshColumn(const ColumnWiring &w);
void buildMecsColumn(const ColumnWiring &w);
void buildDpsColumn(const ColumnWiring &w);
void buildFlatButterflyColumn(const ColumnWiring &w);

} // namespace taqos
