/// \file build_mecs.cpp
/// Wiring for the MECS column: each node drives one point-to-multipoint
/// express channel per direction with a drop at every downstream node, so
/// any node reaches any other in a single network hop. Receivers keep one
/// buffered input port per upstream node; all inputs from the same
/// direction share a single crossbar port through an input arbiter
/// (Figure 2(a)'s asymmetric router).
#include <string>
#include <vector>

#include "topo/column_wiring.h"

namespace taqos {

void
buildMecsColumn(const ColumnWiring &w)
{
    const ColumnConfig &cfg = w.cfg;
    const int n = cfg.numNodes;
    const int vcs = cfg.effectiveVcs();
    const int depth = pipelineDepth(cfg.topology);

    // inFrom[j][s]: input port at node j fed by node s's express channel.
    std::vector<std::vector<InputPort *>> inFrom(
        static_cast<std::size_t>(n),
        std::vector<InputPort *>(static_cast<std::size_t>(n), nullptr));

    for (int j = 0; j < n; ++j) {
        Router *r = w.router(j);
        XbarGroup *northGroup = j > 0 ? r->addXbarGroup() : nullptr;
        XbarGroup *southGroup = j < n - 1 ? r->addXbarGroup() : nullptr;
        for (int s = 0; s < n; ++s) {
            if (s == j)
                continue;
            const int span = s < j ? j - s : s - j;
            // Credits ride back over the span; VC provisioning (14) covers
            // the worst-case round trip (Table 1).
            inFrom[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
                w.makeNetInput(r,
                               "mecs_in_" + std::to_string(j) + "_from_" +
                                   std::to_string(s),
                               j, vcs, /*creditDelay=*/span, depth,
                               /*passThrough=*/false,
                               s < j ? northGroup : southGroup);
        }
    }

    for (int i = 0; i < n; ++i) {
        Router *r = w.router(i);

        if (i > 0) {
            auto out = std::make_unique<OutputPort>();
            out->name = w.name("mecs_out_n_" + std::to_string(i));
            out->node = w.node(i);
            out->tableIdx = Network::nextTableIdx(r);
            // Drops ordered by distance: dropIdx = span - 1.
            for (int j = i - 1; j >= 0; --j) {
                out->drops.push_back(OutputPort::Drop{
                    inFrom[static_cast<std::size_t>(j)]
                          [static_cast<std::size_t>(i)],
                    /*wireDelay=*/i - j,
                    /*meshHops=*/static_cast<double>(i - j)});
            }
            const int idx = static_cast<int>(r->outputs().size());
            r->addOutputPort(std::move(out));
            for (int d = 0; d < i; ++d)
                w.setRoute(r, d, RouteEntry{idx, 1, i - d - 1});
        }

        if (i < n - 1) {
            auto out = std::make_unique<OutputPort>();
            out->name = w.name("mecs_out_s_" + std::to_string(i));
            out->node = w.node(i);
            out->tableIdx = Network::nextTableIdx(r);
            for (int j = i + 1; j < n; ++j) {
                out->drops.push_back(OutputPort::Drop{
                    inFrom[static_cast<std::size_t>(j)]
                          [static_cast<std::size_t>(i)],
                    /*wireDelay=*/j - i,
                    /*meshHops=*/static_cast<double>(j - i)});
            }
            const int idx = static_cast<int>(r->outputs().size());
            r->addOutputPort(std::move(out));
            for (int d = i + 1; d < n; ++d)
                w.setRoute(r, d, RouteEntry{idx, 1, d - i - 1});
        }

        w.addTerminalOutput(i);
    }
}

} // namespace taqos
