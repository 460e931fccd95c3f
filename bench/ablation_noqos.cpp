/// Ablation A3 (ours): the motivating starvation result the paper cites
/// (Sec. 5.3, after [15, 9]) — without QOS support, locally-fair
/// round-robin arbitration gives sources near the hotspot a
/// disproportionate share while distant nodes starve. PVC restores
/// equality.
///
/// Options: fast=1
#include <cstdio>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

using namespace taqos;

namespace {

void
runMode(TopologyKind kind, QosMode mode, Cycle cycles, TextTable &t)
{
    ColumnConfig col = paperColumn(kind, mode);
    const TrafficConfig traffic = makeHotspotAll(col, 0.05);
    ColumnSim sim(col, traffic);
    sim.setMeasureWindow(20000, 20000 + cycles);
    sim.run(20000 + cycles);

    const SimMetrics &m = sim.metrics();
    std::vector<std::string> row{topologyName(kind), qosModeName(mode)};
    for (NodeId n = 0; n < col.numNodes; ++n) {
        std::uint64_t flits = 0;
        for (int k = 0; k < col.injectorsPerNode; ++k)
            flits += m.flowFlits[static_cast<std::size_t>(col.flowOf(n, k))];
        row.push_back(strFormat("%llu", (unsigned long long)flits));
    }
    t.addRow(row);
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast"});
    benchutil::header(
        "Hotspot throughput per node: no-QOS starvation vs PVC",
        "Sec. 5.3 premise (after Lee et al. [15] and Grot et al. [9])");

    const Cycle cycles = opts.getBool("fast", false) ? 60000 : 200000;

    TextTable t;
    t.setHeader({"topology", "mode", "node0", "node1", "node2", "node3",
                 "node4", "node5", "node6", "node7"});
    for (auto kind : {TopologyKind::MeshX1, TopologyKind::Dps}) {
        runMode(kind, QosMode::NoQos, cycles, t);
        runMode(kind, QosMode::Pvc, cycles, t);
        t.addRule();
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Expected: with no QOS, per-node delivered flits decay "
                "sharply with\ndistance from node 0 (locally-fair "
                "round-robin halves the share at\neach merge); PVC "
                "equalizes all nodes.\n");
    return 0;
}
