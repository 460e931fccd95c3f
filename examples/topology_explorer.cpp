/// Interactive what-if tool: evaluate any shared-region topology under
/// any traffic pattern and QOS mode, with the cost models alongside.
///
///   $ ./topology_explorer topology=mecs pattern=tornado rate=0.08
///   $ ./topology_explorer topology=dps pattern=hotspot mode=no-qos
#include <cstdio>

#include "core/taqos.h"

using namespace taqos;

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"topology", "pattern", "mode", "rate", "seed",
                        "cycles", "frame", "window"});

    const auto kind = parseTopology(opts.get("topology", "dps"));
    const auto pattern = parsePattern(opts.get("pattern", "uniform"));
    const auto mode = parseQosMode(opts.get("mode", "pvc"));
    if (!kind || !pattern || !mode) {
        std::fprintf(stderr,
                     "usage: topology_explorer [topology=mesh_x1|mesh_x2|"
                     "mesh_x4|mecs|dps]\n"
                     "       [pattern=uniform|tornado|hotspot] [rate=0.05]\n"
                     "       [mode=pvc|per-flow|no-qos|gsf|age|wrr] "
                     "[cycles=50000] [frame=50000] [window=16]\n");
        return 1;
    }

    ColumnConfig col;
    col.topology = *kind;
    col.mode = *mode;
    col.pvc.frameLen = opts.getCycles("frame", 50000);
    col.pvc.windowLimit = opts.getInt("window", 16);

    TrafficConfig traffic;
    traffic.pattern = *pattern;
    traffic.injectionRate = opts.getNonNegative("rate", 0.05);
    traffic.seed = opts.getInt("seed", traffic.seed);

    const Cycle measure = opts.getCycles("cycles", 50000);
    const Cycle warmup = measure / 5;

    ColumnSim sim(col, traffic);
    sim.setMeasureWindow(warmup, warmup + measure);
    sim.run(warmup + measure);
    sim.checkInvariants();

    const SimMetrics &m = sim.metrics();
    RunningStat perFlow;
    for (auto flits : m.flowFlits)
        perFlow.push(static_cast<double>(flits));

    TextTable t("taqos topology explorer");
    t.setHeader({"metric", "value"});
    t.addRow({"topology", topologyName(*kind)});
    t.addRow({"qos mode", qosModeName(col.mode)});
    t.addRow({"pattern", patternName(*pattern)});
    t.addRow({"offered (flits/cyc/inj)",
              strFormat("%.3f", traffic.injectionRate)});
    t.addRow({"accepted (flits/cyc/inj)",
              strFormat("%.4f", m.throughputFlitsPerCycle(measure) / 64.0)});
    t.addRow({"avg latency (cycles)", strFormat("%.1f", m.latency.mean())});
    t.addRow({"p95 latency (cycles)",
              strFormat("%.1f", m.latencyHist.percentile(0.95))});
    t.addRow({"per-flow stddev",
              strFormat("%.2f%%", perFlow.mean() > 0
                                      ? 100.0 * perFlow.stddev() /
                                            perFlow.mean()
                                      : 0.0)});
    t.addRow({"preemption events",
              strFormat("%llu",
                        static_cast<unsigned long long>(m.preemptionEvents))});
    t.addRow({"hops replayed",
              strFormat("%.2f%%", 100.0 * m.preemptionHopRate())});
    t.addRule();

    const RouterGeometry geom = representativeGeometry(*kind, col);
    const AreaBreakdown area = computeRouterArea(geom, tech32nm());
    const RouterEnergyProfile energy = computeRouterEnergy(geom, tech32nm());
    t.addRow({"router area (mm^2)", strFormat("%.4f", area.totalMm2())});
    t.addRow({"  buffers / xbar / flow",
              strFormat("%.4f / %.4f / %.4f", area.buffersMm2(),
                        area.xbarMm2, area.flowStateMm2)});
    t.addRow({"buffer R+W energy (pJ/flit)",
              strFormat("%.2f", energy.bufferReadPj + energy.bufferWritePj)});
    t.addRow({"xbar energy (pJ/flit)", strFormat("%.2f", energy.xbarPj)});

    std::printf("%s", t.render().c_str());
    return 0;
}
