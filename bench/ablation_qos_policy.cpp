/// Ablation A5 (ours): the QOS-policy layer, end to end — every supported
/// arbitration policy (PVC, per-flow queueing, no-qos, GSF, age-based,
/// WRR) swept over the Fig. 4 grid (five topologies x injection rates),
/// one policy per series. Positions the paper's preemptive scheme against
/// the frame-based (GSF, after Lee et al. [15]) and locally-fair
/// alternatives Sec. 2 discusses.
///
/// Before the sweep, a fixed-work timing pass writes
/// `BENCH_qos_policy.json` (simulated cycles/second per policy, same
/// schema as BENCH_micro.json) so the CI perf gate covers the arbitration
/// hot path of every policy.
///
/// Options: fast=1 (short phases), maxrate=0.1, step=0.02, threads=N,
///          json=<path> (taqos-sweep/v1 record of the full grid)
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"
#include "exp/json_writer.h"
#include "sim/column_sim.h"

using namespace taqos;

namespace {

/// One policy's arbitration-path cost: simulated cycles/second of a DPS
/// column at a moderate uniform load (the micro_bench convention).
/// False when the record cannot be written.
bool
writePolicyPerfJson(const char *path)
{
    constexpr Cycle kCycles = 20000;
    JsonWriter w;
    w.beginObject();
    w.field("benchmark", "qos_policy");
    w.beginObject("unit");
    w.field("simCyclesPerSec", "Hz");
    w.field("wallMs", "ms");
    w.endObject();
    w.beginArray("results");
    for (QosMode mode : kAllQosModes) {
        const ColumnConfig col = paperColumn(TopologyKind::Dps, mode);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.08;
        ColumnSim sim(col, traffic);
        sim.run(2000); // warm-up outside the timed window
        const auto t0 = std::chrono::steady_clock::now();
        sim.run(kCycles);
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        w.beginObject();
        w.field("name", std::string("qos_policy_") + qosModeName(mode));
        w.field("simCycles", static_cast<std::uint64_t>(kCycles));
        w.field("wallMs", sec * 1e3);
        w.field("simCyclesPerSec", static_cast<double>(kCycles) / sec);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (!writeTextFile(path, w.str() + "\n"))
        return false;
    std::printf("wrote %s\n", path);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast", "maxrate", "step", "threads", "json"});
    RunPhases phases{5000, 15000, 10000};
    if (opts.getBool("fast", false))
        phases = RunPhases{1000, 4000, 2000};
    const std::vector<double> rates = benchutil::rateGrid(opts, 0.1, 0.02);
    const int threads = opts.getInt("threads", 0);

    benchutil::header(
        "Arbitration-policy ablation: latency vs load, all six policies",
        "Fig. 4 grid; Sec. 2 related schemes (GSF after Lee et al. [15])");

    if (!writePolicyPerfJson("BENCH_qos_policy.json"))
        return 1;

    SweepSpec spec = fig4Spec(TrafficPattern::UniformRandom, rates, phases);
    spec.name = "ablation_qos_policy";
    spec.modes.assign(std::begin(kAllQosModes), std::end(kAllQosModes));

    const SweepResult result = SweepRunner(threads).run(spec);
    const std::string json = opts.get("json", "");
    if (!json.empty()) {
        if (!result.writeJson(json))
            return 1;
        std::printf("wrote %s\n", json.c_str());
    }

    // One latency table per topology: rate rows x policy columns.
    for (auto kind : result.spec.topologies) {
        TextTable t;
        std::vector<std::string> head{"rate"};
        for (QosMode mode : kAllQosModes)
            head.push_back(qosModeName(mode));
        t.setHeader(head);
        for (double rate : rates) {
            std::vector<std::string> row{strFormat("%.0f%%", 100.0 * rate)};
            for (QosMode mode : kAllQosModes) {
                for (const auto &cell : result.cells) {
                    if (cell.spec.topology != kind ||
                        cell.spec.mode != mode || cell.spec.rate != rate)
                        continue;
                    row.push_back(cell.get("saturated") > 0.5
                                      ? std::string("sat")
                                      : benchutil::num(
                                            cell.get("avg_latency"), 1));
                    break;
                }
            }
            t.addRow(row);
        }
        std::printf("--- %s (avg latency, cycles) ---\n%s\n",
                    topologyName(kind), t.render().c_str());
    }

    std::printf(
        "Expected: per-flow matches pvc until its unbounded buffers mask\n"
        "saturation; no-qos matches on uniform traffic (no hotspot here);\n"
        "gsf adds frame-granular batching latency near saturation; age\n"
        "tracks pvc; wrr trades some latency for strict weight tracking.\n");
    return 0;
}
