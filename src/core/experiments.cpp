#include "core/experiments.h"

#include "chip/churn.h"
#include "chip/os.h"
#include "common/assert.h"
#include "common/strings.h"
#include "noc/metrics.h"
#include "power/tech.h"
#include "sim/fabric_sim.h"
#include "sim/trace_record.h"
#include "topo/geometry.h"
#include "traffic/workloads.h"
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

std::string
vmMixError(const FabricConsolidationConfig &cfg)
{
    const VmPlacement &pl =
        vmPlacements()[static_cast<std::size_t>(cfg.placement)];
    OsScheduler os(cfg.chip);
    for (const auto &s : pl.servers) {
        if (!os.createVm(s.id, s.threads, s.weight).has_value()) {
            return strFormat("VM %d of placement %d (%d threads) does not "
                             "fit a %dx%d-tile chip with %zu shared "
                             "column(s)",
                             s.id, cfg.placement, s.threads,
                             cfg.chip.tilesX, cfg.chip.tilesY,
                             cfg.chip.sharedColumns.size());
        }
    }
    return "";
}

std::string
fabricWorkloadError(const WorkloadSpec &w)
{
    if (w.isSteady() || w.modulated())
        return "";
    return strFormat("fabric runs take steady/bursty/ramp workloads, got %s",
                     workloadKindName(w.kind));
}

FabricConsolidationResult
runFabricConsolidation(const FabricConsolidationConfig &cfg)
{
    TAQOS_ASSERT(cfg.ratePerNode >= 0.0 && cfg.remoteShare >= 0.0,
                 "negative load: rate %g, remote share %g", cfg.ratePerNode,
                 cfg.remoteShare);
    const auto &placements = vmPlacements();
    TAQOS_ASSERT(cfg.placement >= 0 &&
                     static_cast<std::size_t>(cfg.placement) <
                         placements.size(),
                 "placement %d out of range", cfg.placement);
    const bool churning = cfg.workload.kind == WorkloadKind::Churn;
    TAQOS_ASSERT(!churning || (cfg.chips == 1 &&
                               cfg.chip.sharedColumns.size() == 1),
                 "tenant churn needs one chip with one shared column");
    TAQOS_ASSERT(!churning || !cfg.audit,
                 "the audit freezes the flow registers churn reprograms");

    FabricSpec spec;
    spec.chips = cfg.chips;
    spec.chip = cfg.chip;
    spec.column = paperColumn(cfg.topology, cfg.mode);
    spec.links = cfg.links;

    // Flow registers are programmed before the network exists, from the
    // layout it will be wired with.
    const FabricLayout layout(spec);
    const int totalFlows = layout.totalFlows();

    // One hypervisor per chip, each admitting the placement's VM mix.
    const VmPlacement &pl = placements[static_cast<std::size_t>(cfg.placement)];
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
    // Under churn a driver starts from the same mix in its own
    // hypervisor and changes it at every epoch.
    std::optional<ChurnDriver> churn;
    if (churning) {
        ChipNetConfig chipCfg{spec.chip, spec.column};
        chipCfg.column.injectorsPerNode = layout.slotsPerNode();
        churn.emplace(chipCfg, pl.servers, cfg.workload, cfg.seed);
    }

    // Program every column's flow registers from the placements: each
    // owned compute node streams at the cell rate into its local block,
    // and at remoteShare of it into each remote chip's matching block;
    // terminal flows (the columns' own resources) stay quiet. A negative
    // rate entry means the cell rate, so a catchment flow churn enables
    // mid-run gets it too.
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = cfg.ratePerNode;
    traffic.seed = cfg.seed;
    traffic.genUntil = cfg.phases.measureEnd();
    traffic.activeFlows.assign(static_cast<std::size_t>(totalFlows), false);
    traffic.flowRates.assign(static_cast<std::size_t>(totalFlows), -1.0);
    std::vector<std::uint32_t> weights(
        static_cast<std::size_t>(totalFlows), 1);
    std::vector<int> ownerChip(static_cast<std::size_t>(totalFlows), -1);
    std::vector<int> ownerVm(static_cast<std::size_t>(totalFlows), -1);
    for (FlowId f = 0; f < totalFlows; ++f) {
        const std::optional<FlowOrigin> origin = layout.originOf(f);
        if (!origin.has_value())
            continue;
        const OsScheduler &host = os[static_cast<std::size_t>(origin->chip)];
        const int owner = host.ownerOf(origin->node);
        if (owner < 0)
            continue;
        const auto fi = static_cast<std::size_t>(f);
        traffic.activeFlows[fi] = true;
        traffic.flowRates[fi] =
            origin->remote ? cfg.remoteShare * cfg.ratePerNode : -1.0;
        weights[fi] = host.vm(owner)->weight;
        ownerChip[fi] = origin->chip;
        ownerVm[fi] = owner;
    }
    if (churning && cfg.workload.churnAttack) {
        // The column's terminal flows attack at the fig. 5 rates; the
        // driver never touches them, so they survive every epoch.
        const auto &rates = workload1Rates();
        for (int y = 0; y < layout.gridHeight(); ++y) {
            const auto fi = static_cast<std::size_t>(layout.flowOf(0, y, 0));
            traffic.activeFlows[fi] = true;
            traffic.flowRates[fi] =
                rates[static_cast<std::size_t>(y) % rates.size()];
        }
    }
    spec.column.pvc.setWeights(weights);

    FabricSim sim(spec, traffic, cfg.workload);
    sim.setMeasureWindow(cfg.phases.warmup, cfg.phases.measureEnd());

    std::optional<TraceRecorder> rec;
    if (cfg.audit) {
        rec.emplace(describeFabric(sim.network()));
        rec->setMeasureWindow(cfg.phases.warmup, cfg.phases.measureEnd());
        sim.attachTraceSink(&*rec);
    }

    const Cycle genEnd = traffic.genUntil;
    if (churn) {
        // Run to each frame-aligned epoch boundary inside the generation
        // horizon and apply that epoch's tenant change there.
        const Cycle epoch = churn->epochLen();
        for (int e = 1; static_cast<Cycle>(e) * epoch < genEnd; ++e) {
            sim.run(static_cast<Cycle>(e) * epoch - sim.now());
            churn->advanceTo(e);
            churn->applyTo(sim);
        }
    }
    const Cycle budget = cfg.phases.total() * 4;
    const Cycle drain = sim.runUntilDrained(
        budget > sim.now() ? budget - sim.now() : 0, genEnd);
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
    if (churn) {
        res.churnEpochs = churn->currentEpoch();
        res.churnArrivals = churn->arrivals();
        res.churnDepartures = churn->departures();
        res.churnLiveVms = churn->liveVms();
        return res;
    }

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
