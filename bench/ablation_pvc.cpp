/// Ablation A2 (ours): PVC design knobs on the DPS column under
/// Workload 1 — frame length (guarantee granularity), the reserved VC,
/// and the non-preemptable quota. Shows each mechanism's contribution to
/// fairness and preemption throttling.
///
/// Options: fast=1
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

using namespace taqos;

namespace {

struct Variant {
    const char *name;
    Cycle frameLen;
    bool reservedVc;
    bool quota;
};

void
runVariant(const Variant &v, Cycle gen, TextTable &t)
{
    ColumnConfig col = paperColumn(TopologyKind::Dps);
    col.pvc.frameLen = v.frameLen;
    col.pvc.reservedVcEnabled = v.reservedVc;
    col.pvc.quotaEnabled = v.quota;

    TrafficConfig traffic = makeWorkload1(col);
    traffic.genUntil = gen;
    ColumnSim sim(col, traffic);
    sim.setMeasureWindow(0, gen);
    const Cycle done = sim.runUntilDrained(gen * 10, gen);

    const SimMetrics &m = sim.metrics();
    RunningStat flits;
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        if (traffic.flowActive(f))
            flits.push(static_cast<double>(
                m.flowFlits[static_cast<std::size_t>(f)]));
    }
    t.addRow({v.name, strFormat("%llu", (unsigned long long)v.frameLen),
              v.reservedVc ? "yes" : "no", v.quota ? "yes" : "no",
              benchutil::pct(100.0 * m.preemptionPacketRate()),
              benchutil::pct(100.0 * m.preemptionHopRate()),
              benchutil::pct(100.0 * flits.stddev() /
                             std::max(flits.mean(), 1.0)),
              done == kNoCycle ? "(did not drain)"
                               : strFormat("%llu",
                                           (unsigned long long)done)});
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast"});
    benchutil::header("PVC mechanism ablation (DPS column, Workload 1)",
                      "Sec. 3.1 mechanisms (ablation, not a paper figure)");

    const Cycle gen = opts.getBool("fast", false) ? 30000 : 100000;

    const Variant variants[] = {
        {"default", 50000, true, true},
        {"short frame", 10000, true, true},
        {"long frame", 200000, true, true},
        {"no reserved VC", 50000, false, true},
        {"no quota", 50000, true, false},
        {"no quota, no rsvd VC", 50000, false, false},
    };

    TextTable t;
    t.setHeader({"variant", "frame", "rsvd VC", "quota", "pkts preempted",
                 "hops replayed", "throughput stddev", "completion"});
    for (const auto &v : variants)
        runVariant(v, gen, t);
    std::printf("%s\n", t.render().c_str());
    std::printf("Expected: disabling the quota removes preemption "
                "throttling (rates rise);\nshorter frames tighten "
                "guarantees but flush history more often; the\nreserved VC "
                "gives rate-compliant traffic an escape path.\n");
    return 0;
}
