/// \file build_dps.cpp
/// Wiring for Destination Partitioned Subnets: one dedicated lightweight
/// subnetwork per destination node. A subnet for destination d is a pair
/// of linear chains converging on d. Intermediate hops are a 2:1 mux
/// between the pass-through VCs and locally injected traffic — no crossbar,
/// no flow-state query (packets arbitrate with their source-computed PVC
/// priority), single-cycle traversal. Source and destination routers are
/// mesh-like; the source crossbar has one output per subnet.
#include <string>
#include <vector>

#include "topo/column_wiring.h"

namespace taqos {

void
buildDpsColumn(const ColumnWiring &w)
{
    const ColumnConfig &cfg = w.cfg;
    const int n = cfg.numNodes;
    const int vcs = cfg.effectiveVcs();
    const int depth = pipelineDepth(cfg.topology); // source/dest pipeline

    const auto at = [n](int i, int d) {
        return static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(d);
    };

    // pass[i*n+d]: pass-through input at node i on subnet d (fed by the
    // neighbour farther from d). destIn[d] north/south: terminating inputs.
    std::vector<InputPort *> pass(static_cast<std::size_t>(n) *
                                      static_cast<std::size_t>(n),
                                  nullptr);
    std::vector<InputPort *> destInNorth(static_cast<std::size_t>(n), nullptr);
    std::vector<InputPort *> destInSouth(static_cast<std::size_t>(n), nullptr);

    for (int i = 0; i < n; ++i) {
        Router *r = w.router(i);

        // Terminating inputs of this node's own subnet (dest side is
        // mesh-like: buffered VCs, full pipeline, own crossbar port).
        if (i > 0) {
            destInNorth[static_cast<std::size_t>(i)] = w.makeNetInput(
                r, "dps_in_" + std::to_string(i) + "_n", i, vcs,
                /*creditDelay=*/1, depth, /*passThrough=*/false,
                r->addXbarGroup());
        }
        if (i < n - 1) {
            destInSouth[static_cast<std::size_t>(i)] = w.makeNetInput(
                r, "dps_in_" + std::to_string(i) + "_s", i, vcs,
                /*creditDelay=*/1, depth, /*passThrough=*/false,
                r->addXbarGroup());
        }

        // Pass-through inputs for subnets flowing through this node.
        for (int d = 0; d < n; ++d) {
            if (d == i)
                continue;
            const bool onNorthChain = i < d && i > 0;     // fed from i-1
            const bool onSouthChain = i > d && i < n - 1; // fed from i+1
            if (!onNorthChain && !onSouthChain)
                continue;
            pass[at(i, d)] = w.makeNetInput(
                r,
                "dps_pass_" + std::to_string(d) + "_at_" + std::to_string(i),
                i, vcs, /*creditDelay=*/1, /*pipeDelay=*/1,
                /*passThrough=*/true, /*group=*/nullptr);
        }
    }

    for (int i = 0; i < n; ++i) {
        Router *r = w.router(i);
        for (int d = 0; d < n; ++d) {
            if (d == i)
                continue;
            const int next = d > i ? i + 1 : i - 1;
            InputPort *target;
            if (next == d) {
                target = d > i ? destInNorth[static_cast<std::size_t>(d)]
                               : destInSouth[static_cast<std::size_t>(d)];
            } else {
                target = pass[at(next, d)];
            }
            auto out = std::make_unique<OutputPort>();
            out->name = w.name("dps_out_" + std::to_string(d) + "_at_" +
                               std::to_string(i));
            out->node = w.node(i);
            // DPS keeps a separate table per subnet output — the state
            // scale-up Sec. 3.2 calls out.
            out->tableIdx = Network::nextTableIdx(r);
            out->drops.push_back(
                OutputPort::Drop{target, /*wireDelay=*/1, /*meshHops=*/1.0});
            const int idx = static_cast<int>(r->outputs().size());
            r->addOutputPort(std::move(out));
            w.setRoute(r, d, RouteEntry{idx, 1, 0});
        }
        w.addTerminalOutput(i);
    }
}

} // namespace taqos
