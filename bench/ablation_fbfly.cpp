/// Ablation A4 (ours): the flattened butterfly — Sec. 2.2 names it as an
/// alternative richly connected topology — as a sixth shared-region
/// candidate, compared against MECS and DPS on cost, latency, throughput
/// and fairness.
///
/// Options: fast=1
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"
#include "power/tech.h"
#include "sim/column_sim.h"
#include "topo/geometry.h"
#include "traffic/workloads.h"

using namespace taqos;

namespace {

const TopologyKind kCandidates[] = {TopologyKind::Mecs, TopologyKind::Dps,
                                    TopologyKind::FlatButterfly};

void
costTable()
{
    TextTable t("Router cost");
    t.setHeader({"topology", "area (mm^2)", "buffers", "xbar",
                 "xbar ports", "src energy (pJ/flit)"});
    for (auto kind : kCandidates) {
        ColumnConfig col = paperColumn(kind);
        const RouterGeometry geom = representativeGeometry(kind, col);
        const AreaBreakdown area = computeRouterArea(geom, tech32nm());
        const RouterEnergyProfile e = computeRouterEnergy(geom, tech32nm());
        t.addRow({topologyName(kind), benchutil::num(area.totalMm2(), 4),
                  benchutil::num(area.buffersMm2(), 4),
                  benchutil::num(area.xbarMm2, 4),
                  strFormat("%dx%d", geom.xbarInputs, geom.xbarOutputs),
                  benchutil::num(e.bufferWritePj + e.bufferReadPj +
                                 e.xbarPj + e.flowQueryPj + e.flowUpdatePj)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
performanceTable(Cycle measure)
{
    TextTable t("Performance (PVC QOS)");
    t.setHeader({"topology", "UR lat @4%", "tornado lat @4%",
                 "tornado thpt @12%", "hotspot stddev"});
    for (auto kind : kCandidates) {
        std::vector<std::string> row{topologyName(kind)};
        for (auto [pattern, rate, wantLat] :
             {std::tuple{TrafficPattern::UniformRandom, 0.04, true},
              std::tuple{TrafficPattern::Tornado, 0.04, true},
              std::tuple{TrafficPattern::Tornado, 0.12, false}}) {
            ColumnConfig col = paperColumn(kind);
            TrafficConfig traffic;
            traffic.pattern = pattern;
            traffic.injectionRate = rate;
            ColumnSim sim(col, traffic);
            sim.setMeasureWindow(measure / 5, measure / 5 + measure);
            sim.run(measure / 5 + measure);
            row.push_back(wantLat
                              ? benchutil::num(sim.metrics().latency.mean(), 1)
                              : strFormat("%.2f%%",
                                          100.0 *
                                              sim.metrics()
                                                  .throughputFlitsPerCycle(
                                                      measure) /
                                              64.0));
        }
        {
            ColumnConfig col = paperColumn(kind);
            const TrafficConfig traffic = makeHotspotAll(col, 0.05);
            ColumnSim sim(col, traffic);
            sim.setMeasureWindow(measure / 5, measure / 5 + measure);
            sim.run(measure / 5 + measure);
            RunningStat rs;
            for (auto f : sim.metrics().flowFlits)
                rs.push(static_cast<double>(f));
            row.push_back(strFormat("%.2f%%",
                                    100.0 * rs.stddev() / rs.mean()));
        }
        t.addRow(row);
    }
    std::printf("%s\n", t.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast"});
    benchutil::header(
        "Flattened butterfly as a shared-region alternative",
        "Sec. 2.2 remark (ablation, not a paper figure)");
    const Cycle measure = opts.getBool("fast", false) ? 15000 : 50000;
    costTable();
    performanceTable(measure);
    std::printf(
        "Expected: fbfly matches MECS's single-hop latency with simpler\n"
        "per-channel arbitration but pays a much larger crossbar (one "
        "switch\nport per channel) — the complexity MECS's shared-port "
        "asymmetric router\nand DPS's muxes are designed to avoid.\n");
    return 0;
}
