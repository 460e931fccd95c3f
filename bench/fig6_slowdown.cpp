/// Figure 6: cost of preemptions — completion-time slowdown relative to a
/// preemption-free per-flow-queueing network on identical traffic, and the
/// per-source deviation from the max-min-fair expected throughput.
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
    Cycle gen = opts.getCycles("gencycles", 100000);
    if (opts.getBool("fast", false))
        gen = 30000;

    // One 10-cell sweep (5 topologies x 2 workloads) so the runner's
    // pool stays fully busy across both workloads.
    const SweepSpec spec = adversarialSpec(0, gen);
    const std::string err = sweepSpecError(spec); // rejects gencycles=0
    if (!err.empty())
        optionError(err);

    benchutil::header(
        "Preemption impact: slowdown and deviation from max-min fairness",
        "Figure 6(a) Workload 1, Figure 6(b) Workload 2 (Sec. 5.3)");
    const SweepResult result =
        SweepRunner(opts.getInt("threads", 0)).run(spec);
    const std::string json = opts.get("json", "");
    if (!json.empty() && result.writeJson(json))
        std::printf("wrote %s\n", json.c_str());
    const auto rows = adversarialFromSweep(result);
    for (int w = 1; w <= 2; ++w) {
        std::printf("--- Workload %d ---\n", w);
        TextTable t;
        t.setHeader({"topology", "slowdown", "avg deviation",
                     "deviation range"});
        for (const auto &row : rows) {
            if (row.workload != w)
                continue;
            t.addRow({topologyName(row.topology),
                      benchutil::pct(row.slowdownPct),
                      benchutil::pct(row.avgDeviationPct),
                      strFormat("[%+.2f%%, %+.2f%%]", row.minDeviationPct,
                                row.maxDeviationPct)});
        }
        std::printf("%s\n", t.render().c_str());
    }
    std::printf(
        "Paper expectations: slowdown under ~5%% everywhere — preemptions\n"
        "barely affect completion time; average deviation from the max-min\n"
        "expectation under ~1%%; DPS shows the tightest per-source "
        "deviation\nrange on Workload 1.\n");
    return 0;
}
