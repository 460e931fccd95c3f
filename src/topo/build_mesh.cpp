/// \file build_mesh.cpp
/// Wiring for the mesh x1 / x2 / x4 columns: R parallel channels between
/// adjacent nodes in each direction, all feeding a single monolithic
/// crossbar per node (the replication variant evaluated in Sec. 3.2).
#include <string>
#include <vector>

#include "noc/packet.h"
#include "topo/column_wiring.h"

namespace taqos {

void
buildMeshColumn(const ColumnWiring &w)
{
    const ColumnConfig &cfg = w.cfg;
    const int n = cfg.numNodes;
    const int rep = replicationOf(cfg.topology);
    const int vcs = cfg.effectiveVcs();
    const int depth = pipelineDepth(cfg.topology);

    // An end-to-end route charges one flow-table entry at each of the n
    // routers it crosses (ejection included), and a packet logs every
    // charge of its attempt so a preemption can refund them.
    TAQOS_ASSERT(n <= NetPacket::kMaxCharges ||
                     !w.router(0)->policy().usesFlowTable(),
                 "%s column of %d rows under %s: a route charges one "
                 "flow-table entry per row and the packet charge log holds "
                 "%d",
                 topologyName(cfg.topology), n, qosModeName(w.net.mode()),
                 NetPacket::kMaxCharges);

    // inNorth[i][k]: input at node i fed by node i-1 on channel k.
    // inSouth[i][k]: input at node i fed by node i+1 on channel k.
    std::vector<std::vector<InputPort *>> inNorth(
        static_cast<std::size_t>(n));
    std::vector<std::vector<InputPort *>> inSouth(
        static_cast<std::size_t>(n));

    for (int i = 0; i < n; ++i) {
        Router *r = w.router(i);
        for (int k = 0; k < rep; ++k) {
            if (i > 0) {
                inNorth[static_cast<std::size_t>(i)].push_back(
                    w.makeNetInput(r,
                                   "mesh_in_n" + std::to_string(k) + "_" +
                                       std::to_string(i),
                                   i, vcs, /*creditDelay=*/1, depth,
                                   /*passThrough=*/false,
                                   r->addXbarGroup()));
            }
            if (i < n - 1) {
                inSouth[static_cast<std::size_t>(i)].push_back(
                    w.makeNetInput(r,
                                   "mesh_in_s" + std::to_string(k) + "_" +
                                       std::to_string(i),
                                   i, vcs, /*creditDelay=*/1, depth,
                                   /*passThrough=*/false,
                                   r->addXbarGroup()));
            }
        }
    }

    for (int i = 0; i < n; ++i) {
        Router *r = w.router(i);

        if (i > 0) {
            const int base = static_cast<int>(r->outputs().size());
            // The rep parallel channels are one logical "north" output:
            // they share a single per-direction flow-state table.
            const int table = Network::nextTableIdx(r);
            for (int k = 0; k < rep; ++k) {
                auto out = std::make_unique<OutputPort>();
                out->name = w.name("mesh_out_n" + std::to_string(k) + "_" +
                                   std::to_string(i));
                out->node = w.node(i);
                out->tableIdx = table;
                out->drops.push_back(OutputPort::Drop{
                    inSouth[static_cast<std::size_t>(i - 1)]
                           [static_cast<std::size_t>(k)],
                    /*wireDelay=*/1, /*meshHops=*/1.0});
                r->addOutputPort(std::move(out));
            }
            for (int d = 0; d < i; ++d)
                w.setRoute(r, d, RouteEntry{base, rep, 0});
        }

        if (i < n - 1) {
            const int base = static_cast<int>(r->outputs().size());
            const int table = Network::nextTableIdx(r);
            for (int k = 0; k < rep; ++k) {
                auto out = std::make_unique<OutputPort>();
                out->name = w.name("mesh_out_s" + std::to_string(k) + "_" +
                                   std::to_string(i));
                out->node = w.node(i);
                out->tableIdx = table;
                out->drops.push_back(OutputPort::Drop{
                    inNorth[static_cast<std::size_t>(i + 1)]
                           [static_cast<std::size_t>(k)],
                    /*wireDelay=*/1, /*meshHops=*/1.0});
                r->addOutputPort(std::move(out));
            }
            for (int d = i + 1; d < n; ++d)
                w.setRoute(r, d, RouteEntry{base, rep, 0});
        }

        w.addTerminalOutput(i);
    }
}

} // namespace taqos
