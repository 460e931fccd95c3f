/// Ablation A5 (ours): where and how many shared columns? The paper
/// places one column mid-chip; this ablation quantifies the trade-off the
/// choice embodies — average memory-access distance (row hop into the
/// column) versus the silicon spent on QOS-protected routers.
#include <cstdio>

#include "bench_util.h"
#include "chip/chip_cost.h"
#include "chip/routing.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"

using namespace taqos;

namespace {

/// Average MECS latency of a memory access (node -> nearest shared-column
/// MC in a uniformly random row), over all compute nodes.
double
avgMemoryLatency(const ChipConfig &chip, int packetFlits)
{
    const MecsRouter router(chip);
    RunningStat lat;
    for (int i = 0; i < chip.numNodes(); ++i) {
        const NodeCoord node = chip.coordOf(i);
        if (chip.isSharedNode(node))
            continue;
        for (int row = 0; row < chip.nodesY(); ++row) {
            const Route r = router.routeToSharedColumn(node, row);
            lat.push(router.latencyCycles(r, packetFlits));
        }
    }
    return lat.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    // Reads no options: any key fails instead of being ignored.
    OptionMap(argc, argv).rejectUnknown({});
    benchutil::header("Shared-column placement and count",
                      "Sec. 2.2 design choice (ablation, not a paper "
                      "figure)");

    struct Layout {
        const char *name;
        std::vector<int> columns;
    };
    const Layout layouts[] = {
        {"edge column (x=0)", {0}},
        {"mid column (x=4, the paper's)", {4}},
        {"two columns (x=2,6)", {2, 6}},
        {"four columns (x=1,3,5,7)", {1, 3, 5, 7}},
    };

    TextTable t;
    t.setHeader({"layout", "compute nodes", "avg mem latency (4-flit)",
                 "topology-aware area (mm^2)", "savings vs QOS-everywhere"});
    for (const auto &layout : layouts) {
        ChipConfig chip;
        chip.sharedColumns = layout.columns;
        const ChipCostReport cost =
            chipCostComparison(chip, TopologyKind::Dps);
        t.addRow({layout.name, strFormat("%d", chip.computeNodes()),
                  benchutil::num(avgMemoryLatency(chip, 4), 1),
                  benchutil::num(cost.topologyAwareMm2, 3),
                  benchutil::pct(cost.savingsPct())});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf(
        "A mid-chip column halves the worst-case row distance of an edge\n"
        "placement; extra columns cut memory latency further but give up\n"
        "compute nodes and QOS-free router savings. The paper's single\n"
        "mid-chip column is the balance point for one MC column per 8\n"
        "rows.\n");
    return 0;
}
