/// Ablation A1 (ours): chip-level router cost of hardware QOS at every
/// node (the Fig. 1(a) baseline) versus the topology-aware scheme that
/// confines QOS to the shared columns (Fig. 1(b)) — quantifying the
/// "significant savings in router cost" claim of Secs. 1-2.
#include <cstdio>

#include "bench_util.h"
#include "chip/chip_cost.h"
#include "common/table.h"
#include "topo/topology.h"

using namespace taqos;

int
main(int argc, char **argv)
{
    // Reads no options: any key fails instead of being ignored.
    OptionMap(argc, argv).rejectUnknown({});
    benchutil::header(
        "Chip-wide router cost: QOS everywhere vs topology-aware",
        "Secs. 1-2 claim (ablation, not a paper figure)");

    const ChipConfig chip;
    TextTable t;
    t.setHeader({"shared topology", "QOS everywhere (mm^2)",
                 "topology-aware (mm^2)", "savings", "flow state saved",
                 "buffers saved"});
    for (auto kind : kAllTopologies) {
        const ChipCostReport r = chipCostComparison(chip, kind);
        t.addRow({topologyName(kind),
                  benchutil::num(r.qosEverywhereMm2, 3),
                  benchutil::num(r.topologyAwareMm2, 3),
                  benchutil::pct(r.savingsPct()),
                  benchutil::num(r.flowStateSavedMm2, 3) + " mm^2",
                  benchutil::num(r.buffersSavedMm2, 3) + " mm^2"});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("256-tile CMP, 4-way concentration (8x8 nodes), one shared "
                "column.\nCompute routers shed PVC flow state, the reserved "
                "VC, and arbitration\ncomplexity; the shared column keeps "
                "full QOS support.\n");
    return 0;
}
