/// Figure 5: fraction of packets that experience preemption events and of
/// hop traversals wasted to replay, on the adversarial Workloads 1 and 2.
/// Each preemption of a packet counts as a separate event; MECS hop counts
/// are normalized to mesh-equivalent hops by communication distance.
///
/// Both workloads form one adversarial SweepSpec (10 cells) executed on
/// the parallel SweepRunner; json=<path> writes the combined
/// taqos-sweep/v1 record.
///
/// Options: fast=1, gencycles=<generation horizon, at least 1>, threads=N,
///          json=<path>
#include <cstdio>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"

using namespace taqos;

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast", "gencycles", "threads", "json"});
    // An explicit gencycles= wins over fast=1's horizon.
    const Cycle gen = opts.getCycles(
        "gencycles", opts.getBool("fast", false) ? 30000 : 100000);

    // One 10-cell sweep (5 topologies x 2 workloads) so the runner's
    // pool stays fully busy across both workloads.
    const SweepSpec spec = adversarialSpec(0, gen);
    const std::string err = sweepSpecError(spec); // rejects gencycles=0
    if (!err.empty())
        optionError(err);

    benchutil::header("Preemption incidence on adversarial workloads",
                      "Figure 5(a) Workload 1, Figure 5(b) Workload 2 "
                      "(Sec. 5.3)");
    const SweepResult result =
        SweepRunner(opts.getInt("threads", 0)).run(spec);
    const std::string json = opts.get("json", "");
    if (!json.empty()) {
        if (!result.writeJson(json))
            return 1;
        std::printf("wrote %s\n", json.c_str());
    }
    const auto rows = adversarialFromSweep(result);
    for (int w = 1; w <= 2; ++w) {
        std::printf("--- Workload %d ---\n", w);
        TextTable t;
        t.setHeader({"topology", "packets preempted", "hops replayed"});
        for (const auto &row : rows) {
            if (row.workload != w)
                continue;
            t.addRow({topologyName(row.topology),
                      benchutil::pct(row.preemptedPacketsPct),
                      benchutil::pct(row.replayedHopsPct)});
        }
        std::printf("%s\n", t.render().c_str());
    }
    std::printf(
        "Paper expectations (W1): replicated meshes worst (>24%% hops "
        "replayed —\nflows on parallel channels thrash converging at the "
        "destination);\nmesh_x1/DPS fewest replayed hops (~9%%), MECS close "
        "(~10%%) with its hop\nfraction equal to its packet fraction (rich "
        "buffers: victims discarded\nafter fully arriving). (W2): mesh_x1 "
        "and DPS preemptions drop sharply;\nreplicated meshes stay high; "
        "MECS sees only a slight increase.\n");
    return 0;
}
