/// \file build_fbfly.cpp
/// Wiring for the flattened-butterfly extension (Kim, Balfour & Dally,
/// cited in Sec. 2.2 as an alternative richly connected topology): a
/// dedicated point-to-point channel between every pair of nodes. Like
/// MECS it reaches any destination in one network hop, but each receiver
/// keeps a private crossbar port per upstream node instead of sharing one
/// per direction — lower arbitration conflict, much higher switch radix.
#include <string>
#include <vector>

#include "topo/column_wiring.h"

namespace taqos {

void
buildFlatButterflyColumn(const ColumnWiring &w)
{
    const ColumnConfig &cfg = w.cfg;
    const int n = cfg.numNodes;
    const int vcs = cfg.effectiveVcs();
    const int depth = pipelineDepth(cfg.topology);

    // inFrom[j][s]: input at node j fed by node s's dedicated channel.
    std::vector<std::vector<InputPort *>> inFrom(
        static_cast<std::size_t>(n),
        std::vector<InputPort *>(static_cast<std::size_t>(n), nullptr));

    for (int j = 0; j < n; ++j) {
        Router *r = w.router(j);
        for (int s = 0; s < n; ++s) {
            if (s == j)
                continue;
            const int span = s < j ? j - s : s - j;
            inFrom[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
                w.makeNetInput(r,
                               "fb_in_" + std::to_string(j) + "_from_" +
                                   std::to_string(s),
                               j, vcs, /*creditDelay=*/span, depth,
                               /*passThrough=*/false, r->addXbarGroup());
        }
    }

    for (int i = 0; i < n; ++i) {
        Router *r = w.router(i);
        for (int d = 0; d < n; ++d) {
            if (d == i)
                continue;
            auto out = std::make_unique<OutputPort>();
            out->name = w.name("fb_out_" + std::to_string(i) + "_to_" +
                               std::to_string(d));
            out->node = w.node(i);
            out->tableIdx = Network::nextTableIdx(r);
            const int span = d < i ? i - d : d - i;
            out->drops.push_back(OutputPort::Drop{
                inFrom[static_cast<std::size_t>(d)]
                      [static_cast<std::size_t>(i)],
                /*wireDelay=*/span,
                /*meshHops=*/static_cast<double>(span)});
            const int idx = static_cast<int>(r->outputs().size());
            r->addOutputPort(std::move(out));
            w.setRoute(r, d, RouteEntry{idx, 1, 0});
        }
        w.addTerminalOutput(i);
    }
}

} // namespace taqos
