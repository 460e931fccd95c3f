#include "core/experiments.h"

#include "common/assert.h"
#include "common/strings.h"
#include "chip/os.h"
#include "noc/metrics.h"
#include "power/tech.h"
#include "sim/fabric_sim.h"
#include "sim/trace_record.h"
#include "topo/geometry.h"
#include "verify/checker.h"

#include <optional>

namespace taqos {
namespace {

/// Shared scaffolding of the figure specs: the paper's five topologies,
/// PVC, replicate-free, and — crucially — mixSeeds off, so every cell
/// runs with the historical default traffic seed and the ported runners
/// stay bit-identical to the pre-engine serial loops.
SweepSpec
figureSpec(Scenario scenario, const std::string &name)
{
    SweepSpec spec;
    spec.scenario = scenario;
    spec.name = name;
    spec.replicates = 1;
    spec.mixSeeds = false;
    spec.baseSeed = TrafficConfig{}.seed;
    return spec;
}

} // namespace

ColumnConfig
paperColumn(TopologyKind kind, QosMode mode)
{
    ColumnConfig col;
    col.topology = kind;
    col.mode = mode;
    return col;
}

std::vector<AreaRow>
runFig3Area()
{
    const TechParams tech = tech32nm();
    std::vector<AreaRow> rows;
    for (auto kind : kAllTopologies) {
        const ColumnConfig col = paperColumn(kind);
        const RouterGeometry geom = representativeGeometry(kind, col);
        rows.push_back(AreaRow{kind, computeRouterArea(geom, tech)});
    }
    return rows;
}

// ---------------------------------------------------------------- Fig. 4

SweepSpec
fig4Spec(TrafficPattern pattern, const std::vector<double> &rates,
         const RunPhases &phases, QosMode mode)
{
    SweepSpec spec = figureSpec(Scenario::LatencyLoad, "fig4_latency");
    spec.patterns = {pattern};
    spec.modes = {mode};
    spec.rates = rates;
    spec.phases = phases;
    return spec;
}

std::vector<LatencySeries>
latencySeriesFromSweep(const SweepResult &result)
{
    // One curve per topology over the rate axis: a faithful mapping
    // needs every other axis collapsed. Multi-pattern or replicated
    // grids must be consumed through SweepResult directly.
    TAQOS_ASSERT(result.spec.patterns.size() == 1 &&
                     result.spec.modes.size() == 1 &&
                     result.spec.replicates == 1,
                 "latencySeriesFromSweep needs a single-pattern, "
                 "single-mode, replicate-free sweep");
    std::vector<LatencySeries> series;
    for (const auto &cell : result.cells) {
        if (series.empty() ||
            series.back().topology != cell.spec.topology) {
            LatencySeries s;
            s.topology = cell.spec.topology;
            series.push_back(std::move(s));
        }
        LatencyPoint p;
        p.injectionRate = cell.spec.rate;
        p.avgLatency = cell.get("avg_latency");
        p.p95Latency = cell.get("p95_latency");
        p.throughput = cell.get("throughput");
        p.saturated = cell.get("saturated") > 0.5;
        series.back().points.push_back(p);
    }
    return series;
}

std::vector<LatencySeries>
runFig4Latency(TrafficPattern pattern, const std::vector<double> &rates,
               const RunPhases &phases, QosMode mode)
{
    return latencySeriesFromSweep(
        SweepRunner().run(fig4Spec(pattern, rates, phases, mode)));
}

// ------------------------------------------------- Sec. 5.2 (text): E4

SweepSpec
saturationSpec(TrafficPattern pattern, double rate, const RunPhases &phases,
               QosMode mode)
{
    SweepSpec spec = figureSpec(Scenario::LatencyLoad, "sat_preemption");
    spec.patterns = {pattern};
    spec.modes = {mode};
    spec.rates = {rate};
    spec.phases = phases;
    return spec;
}

std::vector<SaturationPreemption>
runSaturationPreemption(TrafficPattern pattern, double rate,
                        const RunPhases &phases)
{
    const SweepResult result =
        SweepRunner().run(saturationSpec(pattern, rate, phases));
    std::vector<SaturationPreemption> rows;
    for (const auto &cell : result.cells) {
        rows.push_back(SaturationPreemption{
            cell.spec.topology, cell.get("preemption_packet_rate"),
            cell.get("preemption_hop_rate")});
    }
    return rows;
}

// --------------------------------------------------------------- Table 2

SweepSpec
table2Spec(Cycle measureCycles, Cycle warmup, QosMode mode)
{
    SweepSpec spec = figureSpec(Scenario::Hotspot, "table2_hotspot");
    // Every injector (terminal and row inputs, node 0 included) streams
    // to the node-0 terminal well above the 1/64 fair share.
    spec.modes = {mode};
    spec.rates = {0.05};
    spec.phases = RunPhases{warmup, measureCycles, 0};
    return spec;
}

std::vector<FairnessRow>
fairnessFromSweep(const SweepResult &result)
{
    std::vector<FairnessRow> rows;
    for (const auto &cell : result.cells) {
        FairnessRow row;
        row.topology = cell.spec.topology;
        row.meanFlits = cell.get("mean_flits");
        row.minFlits = cell.get("min_flits");
        row.maxFlits = cell.get("max_flits");
        row.stddevFlits = cell.get("stddev_flits");
        row.preemptions =
            static_cast<std::uint64_t>(cell.get("preemptions"));
        rows.push_back(row);
    }
    return rows;
}

std::vector<FairnessRow>
runTable2Fairness(Cycle measureCycles, Cycle warmup, QosMode mode)
{
    return fairnessFromSweep(
        SweepRunner().run(table2Spec(measureCycles, warmup, mode)));
}

// --------------------------------------------------------- Figs. 5 and 6

SweepSpec
adversarialSpec(int workload, Cycle genCycles)
{
    TAQOS_ASSERT(workload >= 0 && workload <= 2,
                 "workload must be 1 or 2 (0 = both)");
    SweepSpec spec = figureSpec(Scenario::Adversarial, "adversarial");
    spec.workloads = workload == 0 ? std::vector<int>{1, 2}
                                   : std::vector<int>{workload};
    spec.genCycles = genCycles;
    return spec;
}

std::vector<AdversarialResult>
adversarialFromSweep(const SweepResult &result)
{
    std::vector<AdversarialResult> rows;
    for (const auto &cell : result.cells) {
        AdversarialResult row;
        row.topology = cell.spec.topology;
        row.workload = cell.spec.workload;
        row.preemptedPacketsPct = cell.get("preempted_packets_pct");
        row.replayedHopsPct = cell.get("replayed_hops_pct");
        row.slowdownPct = cell.get("slowdown_pct");
        row.avgDeviationPct = cell.get("avg_deviation_pct");
        row.minDeviationPct = cell.get("min_deviation_pct");
        row.maxDeviationPct = cell.get("max_deviation_pct");
        row.completionCycle =
            static_cast<Cycle>(cell.get("completion_cycle"));
        rows.push_back(row);
    }
    return rows;
}

std::vector<AdversarialResult>
runAdversarial(int workload, Cycle genCycles)
{
    return adversarialFromSweep(
        SweepRunner().run(adversarialSpec(workload, genCycles)));
}

// ---------------------------------------------------------------- Fig. 7

std::vector<EnergyRow>
runFig7Energy()
{
    const TechParams tech = tech32nm();
    std::vector<EnergyRow> rows;
    for (auto kind : kAllTopologies) {
        const ColumnConfig col = paperColumn(kind);
        const RouterGeometry geom = representativeGeometry(kind, col);
        const RouterEnergyProfile e = computeRouterEnergy(geom, tech);

        const double buf = e.bufferWritePj + e.bufferReadPj;
        const double flow = e.flowQueryPj + e.flowUpdatePj;

        EnergyRow row;
        row.topology = kind;
        // Source and destination traversals are full router hops in every
        // topology: buffer write+read, crossbar, flow-state query+update.
        row.srcPj[0] = buf;
        row.srcPj[1] = e.xbarPj;
        row.srcPj[2] = flow;
        row.dstPj[0] = buf;
        row.dstPj[1] = e.xbarPj;
        row.dstPj[2] = flow;

        int intermediates = 2; // on a 3-hop route
        switch (kind) {
          case TopologyKind::MeshX1:
          case TopologyKind::MeshX2:
          case TopologyKind::MeshX4:
            // Full router traversal at every intermediate hop.
            row.intPj[0] = buf;
            row.intPj[1] = e.xbarPj;
            row.intPj[2] = flow;
            break;
          case TopologyKind::Mecs:
          case TopologyKind::FlatButterfly:
            // Single-network-hop topologies pass intermediate nodes on
            // wires; no router traversal at all.
            row.intPj[0] = row.intPj[1] = row.intPj[2] = 0.0;
            break;
          case TopologyKind::Dps:
            // 2:1 mux hop: buffer write+read only — no crossbar, no
            // flow-state access (priority reuse).
            row.intPj[0] = buf;
            row.intPj[1] = e.muxPj;
            row.intPj[2] = 0.0;
            break;
        }
        for (int c = 0; c < 3; ++c) {
            row.threeHopPj[c] =
                row.srcPj[c] + intermediates * row.intPj[c] + row.dstPj[c];
        }
        rows.push_back(row);
    }
    return rows;
}

// ------------------------------------- consolidated server (Secs. 1, 2)

SweepSpec
chipConsolidationSpec(TopologyKind kind, double ratePerNode,
                      const RunPhases &phases)
{
    SweepSpec spec =
        figureSpec(Scenario::ChipConsolidation, "chip_consolidation");
    spec.topologies = {kind};
    spec.rates = {ratePerNode};
    spec.placements = {0}; // the paper's three-VM consolidated-server mix
    spec.phases = phases;
    return spec;
}

ChipConsolidationResult
chipConsolidationFromCell(const CellResult &cell)
{
    TAQOS_ASSERT(cell.spec.scenario == Scenario::ChipConsolidation,
                 "cell is not a consolidation run");
    ChipConsolidationResult res;
    const double drain = cell.get("drain_cycle");
    res.drainCycle = drain < 0.0 ? kNoCycle : static_cast<Cycle>(drain);
    res.deliveredPackets =
        static_cast<std::uint64_t>(cell.get("delivered_packets"));
    res.handoffs = static_cast<std::uint64_t>(cell.get("handoffs"));
    res.preemptions = static_cast<std::uint64_t>(cell.get("preemptions"));
    res.avgLatency = cell.get("avg_latency");

    const auto &placement =
        vmPlacements()[static_cast<std::size_t>(cell.spec.placement)];
    for (const auto &s : placement.servers) {
        const std::string p = strFormat("vm%d_", s.id);
        ChipVmShare share;
        share.vmId = s.id;
        share.weight = s.weight;
        share.domainNodes =
            static_cast<std::size_t>(cell.get(p + "nodes"));
        share.flits = static_cast<std::uint64_t>(cell.get(p + "flits"));
        share.flitsPerNode = cell.get(p + "flits_per_node");
        res.vms.push_back(share);
    }
    return res;
}

ChipConsolidationResult
runChipConsolidation(TopologyKind kind, double ratePerNode,
                     const RunPhases &phases)
{
    const SweepResult result =
        SweepRunner().run(chipConsolidationSpec(kind, ratePerNode, phases));
    TAQOS_ASSERT(result.cells.size() == 1, "consolidation spec is one cell");
    return chipConsolidationFromCell(result.cells[0]);
}

FabricConsolidationResult
runFabricConsolidation(const FabricConsolidationConfig &cfg)
{
    FabricSpec spec;
    spec.chips = cfg.chips;
    spec.chip = cfg.chip;
    spec.column = paperColumn(cfg.topology, cfg.mode);
    spec.links = cfg.links;

    // Flow-register programming needs the flow-id geometry before the
    // network exists; fabricCatchments gives the same partition build()
    // will compute.
    const auto cats = fabricCatchments(spec.chip);
    const int B = static_cast<int>(cats.size());
    const int H = spec.chip.nodesY();
    int maxCat = 0;
    for (const auto &cat : cats)
        maxCat = std::max(maxCat, static_cast<int>(cat.size()));
    const int slots = 1 + maxCat + (cfg.chips > 1 ? cfg.chips - 1 : 0);
    const int fpb = H * slots;
    const int totalFlows = cfg.chips * B * fpb;

    // One hypervisor per chip, each admitting the paper's three-VM mix.
    const VmPlacement &pl = vmPlacements()[0];
    std::vector<OsScheduler> os;
    os.reserve(static_cast<std::size_t>(cfg.chips));
    for (int c = 0; c < cfg.chips; ++c) {
        os.emplace_back(spec.chip);
        for (const auto &s : pl.servers) {
            const auto vm = os.back().createVm(s.id, s.threads, s.weight);
            TAQOS_ASSERT(vm.has_value(), "chip %d: VM %d admission failed",
                         c, s.id);
        }
        TAQOS_ASSERT(os.back().coScheduleInvariant(),
                     "chip %d: co-scheduling violated", c);
    }

    // Program every column's flow registers from the placements: each
    // owned compute node streams at the cell rate into its local block,
    // and at remoteShare of it into each remote chip's matching block;
    // terminal flows (the columns' own resources) stay quiet.
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = cfg.ratePerNode;
    traffic.seed = cfg.seed;
    traffic.genUntil = cfg.phases.measureEnd();
    traffic.activeFlows.assign(static_cast<std::size_t>(totalFlows), false);
    traffic.flowRates.assign(static_cast<std::size_t>(totalFlows), 0.0);
    std::vector<std::uint32_t> weights(
        static_cast<std::size_t>(totalFlows), 1);
    std::vector<int> ownerChip(static_cast<std::size_t>(totalFlows), -1);
    std::vector<int> ownerVm(static_cast<std::size_t>(totalFlows), -1);
    const auto programFlow = [&](int f, int srcChip, int x, int y,
                                 double rate) {
        const int owner = os[static_cast<std::size_t>(srcChip)].ownerOf(
            NodeCoord{x, y});
        if (owner < 0)
            return;
        const auto fi = static_cast<std::size_t>(f);
        traffic.activeFlows[fi] = true;
        traffic.flowRates[fi] = rate;
        weights[fi] =
            os[static_cast<std::size_t>(srcChip)].vm(owner)->weight;
        ownerChip[fi] = srcChip;
        ownerVm[fi] = owner;
    };
    for (int c = 0; c < cfg.chips; ++c) {
        for (int j = 0; j < B; ++j) {
            const auto &cat = cats[static_cast<std::size_t>(j)];
            const int g = c * B + j;
            for (int y = 0; y < H; ++y) {
                for (std::size_t i = 0; i < cat.size(); ++i) {
                    programFlow(g * fpb + y * slots + 1 +
                                    static_cast<int>(i),
                                c, cat[i], y, cfg.ratePerNode);
                }
                for (int r = 0; r + 1 < cfg.chips; ++r) {
                    programFlow(g * fpb + y * slots + 1 + maxCat + r,
                                (c + 1 + r) % cfg.chips, cat.front(), y,
                                cfg.remoteShare * cfg.ratePerNode);
                }
            }
        }
    }
    spec.column.pvc.weights = weights;

    FabricSim sim(spec, traffic, cfg.workload);
    sim.setMeasureWindow(cfg.phases.warmup, cfg.phases.measureEnd());

    std::optional<TraceRecorder> rec;
    if (cfg.audit) {
        rec.emplace(describeFabric(sim.network()));
        rec->setMeasureWindow(cfg.phases.warmup, cfg.phases.measureEnd());
        sim.attachTraceSink(&*rec);
    }

    const Cycle drain =
        sim.runUntilDrained(cfg.phases.total() * 4, traffic.genUntil);
    sim.checkInvariants();

    const SimMetrics &m = sim.metrics();
    FabricConsolidationResult res;
    if (rec.has_value()) {
        rec->finish(sim.now(), drain != kNoCycle && sim.drained());
        const CheckReport report = verifyTrace(rec->trace());
        res.auditOk = report.ok();
        res.auditEvents = report.eventsChecked;
        if (!report.ok())
            res.auditDiagnostic = report.firstDiagnostic();
    }
    res.nodes = sim.net().numNodes();
    res.drainCycle = drain;
    res.deliveredPackets = m.deliveredPackets;
    res.handoffs = sim.handoffs();
    res.linkHops = sim.linkHops();
    res.preemptions = m.preemptionEvents;
    res.avgLatency = m.latency.mean();
    res.digest = metricsDigest(m);

    for (int c = 0; c < cfg.chips; ++c) {
        for (const auto &s : pl.servers) {
            FabricVmShare share;
            share.chip = c;
            share.vmId = s.id;
            share.weight = s.weight;
            share.domainNodes =
                os[static_cast<std::size_t>(c)].vm(s.id)->domain.size();
            for (int f = 0; f < totalFlows; ++f) {
                const auto fi = static_cast<std::size_t>(f);
                if (ownerChip[fi] == c && ownerVm[fi] == s.id)
                    share.flits += m.flowFlits[fi];
            }
            share.flitsPerNode = static_cast<double>(share.flits) /
                                 static_cast<double>(share.domainNodes);
            res.vms.push_back(share);
        }
    }
    return res;
}

} // namespace taqos
