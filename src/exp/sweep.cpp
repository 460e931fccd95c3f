#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <optional>
#include <thread>

#include "common/assert.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/experiments.h"
#include "core/maxmin.h"
#include "exp/cell_cache.h"
#include "exp/json_writer.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

/// A cell's seed depends only on the spec and the cell coordinates,
/// never on execution order — the root of the parallel == serial
/// guarantee.
std::uint64_t
cellSeed(const SweepSpec &spec, const CellSpec &cell)
{
    if (!spec.mixSeeds)
        return spec.baseSeed;
    std::uint64_t h = spec.baseSeed;
    h = hashCombine(h, static_cast<std::uint64_t>(cell.scenario));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.topology));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.pattern));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.mode));
    h = hashCombine(h, std::bit_cast<std::uint64_t>(cell.rate));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.workload));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.placement));
    // A non-steady workload spec changes the cell's dynamics, so its
    // canonical words join the mix; steady cells skip it entirely and
    // keep the seeds every pre-existing sweep derived.
    if (!cell.workloadSpec.isSteady()) {
        std::vector<std::uint64_t> words;
        cell.workloadSpec.appendKeyWords(words);
        for (std::uint64_t w : words)
            h = hashCombine(h, w);
    }
    h = hashCombine(h, static_cast<std::uint64_t>(cell.replicate));
    return h;
}

CellResult
runColumnCell(const CellSpec &cell)
{
    const ColumnConfig col = paperColumn(cell.topology, cell.mode);
    TrafficConfig traffic;
    if (cell.scenario == Scenario::Hotspot) {
        traffic = makeHotspotAll(col, cell.rate);
    } else {
        traffic.pattern = cell.pattern;
        traffic.injectionRate = cell.rate;
    }
    traffic.seed = cell.seed;
    ColumnSim sim(col, traffic, cell.workloadSpec);
    sim.setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    sim.run(cell.phases.total());

    const SimMetrics &m = sim.metrics();
    CellResult res;
    res.spec = cell;
    res.put("avg_latency", m.latency.mean());
    res.put("p95_latency", m.latencyHist.percentile(0.95));
    res.put("preemption_packet_rate", m.preemptionPacketRate());
    res.put("preemption_hop_rate", m.preemptionHopRate());
    res.put("window_flits", static_cast<double>(m.windowFlits()));
    res.put("offered_packets", static_cast<double>(m.measuredGenerated));
    res.put("delivered_packets", static_cast<double>(m.latency.count()));
    if (cell.scenario == Scenario::Hotspot) {
        RunningStat rs;
        for (auto flits : m.flowFlits)
            rs.push(static_cast<double>(flits));
        res.put("mean_flits", rs.mean());
        res.put("min_flits", rs.min());
        res.put("max_flits", rs.max());
        res.put("stddev_flits", rs.stddev());
        res.put("preemptions", static_cast<double>(m.preemptionEvents));
    } else {
        res.put("throughput", m.throughputFlitsPerCycle(cell.phases.measure) /
                                  sim.cfg().numFlows());
        const double delivered = static_cast<double>(m.latency.count());
        const double offered = static_cast<double>(m.measuredGenerated);
        res.put("saturated",
                offered > 0.0 && delivered < 0.95 * offered ? 1.0 : 0.0);
    }
    return res;
}

CellResult
runAdversarialCell(const CellSpec &cell)
{
    TAQOS_ASSERT(cell.workload == 1 || cell.workload == 2,
                 "adversarial workload must be 1 or 2");
    const std::string werr =
        workloadScenarioError(cell.workloadSpec, Scenario::Adversarial);
    TAQOS_ASSERT(werr.empty(), "%s", werr.c_str());
    const Cycle gen = cell.genCycles;
    const Cycle budget = gen * 10;

    const ColumnConfig col = paperColumn(cell.topology, cell.mode);
    const TrafficConfig traffic =
        cell.workload == 1 ? makeWorkload1(col) : makeWorkload2(col);
    TrafficConfig finite = traffic;
    finite.genUntil = gen;
    finite.seed = cell.seed;

    ColumnSim sim(col, finite, cell.workloadSpec);
    sim.setMeasureWindow(0, gen);
    const Cycle done = sim.runUntilDrained(budget, gen);
    TAQOS_ASSERT(done != kNoCycle, "%s: run did not drain",
                 topologyName(cell.topology));

    // Preemption-free reference: identical traffic (same seed), same
    // topology, per-flow queueing.
    ColumnConfig colRef = col;
    colRef.mode = QosMode::PerFlowQueue;
    ColumnSim ref(colRef, finite, cell.workloadSpec);
    ref.setMeasureWindow(0, gen);
    const Cycle doneRef = ref.runUntilDrained(budget, gen);
    TAQOS_ASSERT(doneRef != kNoCycle, "%s: reference run did not drain",
                 topologyName(cell.topology));

    const SimMetrics &m = sim.metrics();

    // Expected throughput under max-min fairness: demands are the
    // injection rates; the capacity being shared is what the network
    // actually delivered in the generation window.
    std::vector<double> demands(static_cast<std::size_t>(col.numFlows()),
                                0.0);
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        if (traffic.flowActive(f) && !traffic.activeFlows.empty())
            demands[static_cast<std::size_t>(f)] = traffic.rateOf(f);
    }
    const double capacity =
        std::min(1.0, static_cast<double>(m.windowFlits()) /
                          static_cast<double>(gen));
    const std::vector<double> alloc = maxMinAllocation(demands, capacity);

    RunningStat dev;
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        const double expect = alloc[static_cast<std::size_t>(f)] *
                              static_cast<double>(gen);
        if (expect <= 0.0)
            continue;
        const double got =
            static_cast<double>(m.flowFlits[static_cast<std::size_t>(f)]);
        dev.push(100.0 * (got - expect) / expect);
    }

    CellResult res;
    res.spec = cell;
    res.put("preempted_packets_pct", 100.0 * m.preemptionPacketRate());
    res.put("replayed_hops_pct", 100.0 * m.preemptionHopRate());
    res.put("completion_cycle", static_cast<double>(done));
    res.put("ref_completion_cycle", static_cast<double>(doneRef));
    res.put("slowdown_pct", 100.0 * (static_cast<double>(done) /
                                         static_cast<double>(doneRef) -
                                     1.0));
    res.put("avg_deviation_pct", dev.mean());
    res.put("min_deviation_pct", dev.min());
    res.put("max_deviation_pct", dev.max());
    return res;
}

/// Whole-chip consolidation cell: the one-chip runFabricConsolidation
/// with the cell's placement preset, rate, seed and workload (tenant
/// churn included), recorded as drain/delivery/latency metrics plus the
/// churn counters or, for a fixed tenant mix, each VM's service.
CellResult
runChipConsolidationCell(const CellSpec &cell)
{
    FabricConsolidationConfig cfg;
    cfg.chips = 1;
    cfg.topology = cell.topology;
    cfg.mode = cell.mode;
    cfg.ratePerNode = cell.rate;
    cfg.seed = cell.seed;
    cfg.phases = cell.phases;
    cfg.placement = cell.placement;
    cfg.workload = cell.workloadSpec;
    const FabricConsolidationResult run = runFabricConsolidation(cfg);

    CellResult res;
    res.spec = cell;
    res.put("drain_cycle", run.drainCycle == kNoCycle
                               ? -1.0
                               : static_cast<double>(run.drainCycle));
    res.put("delivered_packets", static_cast<double>(run.deliveredPackets));
    res.put("handoffs", static_cast<double>(run.handoffs));
    res.put("preemptions", static_cast<double>(run.preemptions));
    res.put("avg_latency", run.avgLatency);
    if (cell.workloadSpec.kind == WorkloadKind::Churn) {
        res.put("churn_epochs", run.churnEpochs);
        res.put("churn_arrivals", run.churnArrivals);
        res.put("churn_departures", run.churnDepartures);
        res.put("churn_live_vms", run.churnLiveVms);
        return res;
    }
    for (const auto &vm : run.vms) {
        const std::string p = strFormat("vm%d_", vm.vmId);
        res.put(p + "weight", vm.weight);
        res.put(p + "nodes", static_cast<double>(vm.domainNodes));
        res.put(p + "flits", static_cast<double>(vm.flits));
        res.put(p + "flits_per_node", vm.flitsPerNode);
    }
    return res;
}

void
emitCellKey(JsonWriter &w, const CellSpec &c)
{
    w.field("topology", topologyName(c.topology));
    w.field("pattern", patternName(c.pattern));
    w.field("mode", qosModeName(c.mode));
    w.field("rate", c.rate);
    w.field("workload", c.workload);
    w.field("placement", c.placement);
    w.field("workload_spec", c.workloadSpec.name());
}

/// canonical() without its check: defaults filled in, and each axis the
/// scenario does not consume collapsed to the one value it runs.
SweepSpec
collapsed(SweepSpec c)
{
    if (c.topologies.empty())
        c.topologies.assign(std::begin(kAllTopologies),
                            std::end(kAllTopologies));
    if (c.modes.empty())
        c.modes = {QosMode::Pvc};
    if (c.rates.empty())
        c.rates = {0.05};

    switch (c.scenario) {
      case Scenario::LatencyLoad:
        if (c.patterns.empty())
            c.patterns = {TrafficPattern::UniformRandom};
        c.workloads = {0};
        c.placements = {0};
        break;
      case Scenario::Hotspot:
        c.patterns = {TrafficPattern::Hotspot};
        c.workloads = {0};
        c.placements = {0};
        break;
      case Scenario::Adversarial:
        c.patterns = {TrafficPattern::Hotspot};
        c.rates = {0.0}; // rates come from the workload definition
        if (c.workloads.empty())
            c.workloads = {1, 2};
        c.placements = {0};
        break;
      case Scenario::ChipConsolidation:
        c.patterns = {TrafficPattern::UniformRandom};
        c.workloads = {0};
        if (c.placements.empty())
            c.placements = {0};
        break;
    }

    if (c.workloadSpecs.empty())
        c.workloadSpecs = {WorkloadSpec{}};
    return c;
}

} // namespace

const char *
scenarioName(Scenario s)
{
    switch (s) {
      case Scenario::LatencyLoad: return "latency_load";
      case Scenario::Hotspot: return "hotspot";
      case Scenario::Adversarial: return "adversarial";
      case Scenario::ChipConsolidation: return "chip_consolidation";
    }
    return "?";
}

std::optional<Scenario>
parseScenario(const std::string &name)
{
    const std::string n = strLower(strTrim(name));
    if (n == "latency_load" || n == "latency" || n == "load")
        return Scenario::LatencyLoad;
    if (n == "hotspot")
        return Scenario::Hotspot;
    if (n == "adversarial" || n == "preemption")
        return Scenario::Adversarial;
    if (n == "chip_consolidation" || n == "chip" || n == "consolidation")
        return Scenario::ChipConsolidation;
    return std::nullopt;
}

const std::vector<VmPlacement> &
vmPlacements()
{
    // Preset 0 must stay the paper's consolidated-server mix —
    // runFabricConsolidation's default and its tests are anchored to it.
    static const std::vector<VmPlacement> kPlacements = {
        {"paper_3vm", {{1, 64, 4}, {2, 48, 2}, {3, 32, 1}}},
        {"equal_3vm", {{1, 48, 1}, {2, 48, 1}, {3, 48, 1}}},
        {"skewed_2vm", {{1, 96, 3}, {2, 64, 1}}},
    };
    return kPlacements;
}

double
CellResult::get(const std::string &name) const
{
    for (const auto &[k, v] : metrics) {
        if (k == name)
            return v;
    }
    TAQOS_ASSERT(false, "cell has no metric '%s'", name.c_str());
    return 0.0;
}

bool
CellResult::has(const std::string &name) const
{
    for (const auto &[k, v] : metrics) {
        (void)v;
        if (k == name)
            return true;
    }
    return false;
}

SweepSpec
SweepSpec::canonical() const
{
    SweepSpec c = collapsed(*this);
    const std::string err = sweepSpecError(c);
    TAQOS_ASSERT(err.empty(), "%s", err.c_str());
    return c;
}

std::string
sweepSpecError(const SweepSpec &spec)
{
    if (spec.replicates < 1)
        return strFormat("a sweep needs at least 1 replicate, got %d",
                         spec.replicates);
    // Both runs of an adversarial cell would drain at cycle 0, and its
    // slowdown would divide 0 by 0.
    if (spec.scenario == Scenario::Adversarial && spec.genCycles == 0)
        return "the adversarial scenario needs a generation horizon of at "
               "least 1 cycle, got 0";
    // collapsed() overwrites only the axes the scenario does not sweep; a
    // value it would overwrite names an experiment the sweep never runs.
    const SweepSpec run = collapsed(spec);
    const auto overwritten = [](const auto &given, const auto &runs) {
        return !given.empty() && given != runs;
    };
    const char *axis = overwritten(spec.patterns, run.patterns) ? "patterns"
        : overwritten(spec.rates, run.rates)                   ? "rates"
        : overwritten(spec.workloads, run.workloads)           ? "workloads"
        : overwritten(spec.placements, run.placements)         ? "placements"
                                                               : nullptr;
    if (axis != nullptr) {
        return strFormat("the %s scenario does not sweep the %s axis",
                         scenarioName(spec.scenario), axis);
    }
    for (const auto &w : spec.workloadSpecs) {
        std::string err = workloadScenarioError(w, spec.scenario);
        if (!err.empty())
            return err;
    }
    return {};
}

std::string
workloadScenarioError(const WorkloadSpec &w, Scenario scenario)
{
    const char *why = nullptr;
    switch (scenario) {
      case Scenario::LatencyLoad:
        if (w.kind == WorkloadKind::Churn)
            why = "tenant churn needs the chip_consolidation scenario";
        break;
      case Scenario::Hotspot:
      case Scenario::Adversarial:
        if (!w.isSteady() && !w.modulated())
            why = "it takes steady, bursty and ramp workloads only";
        break;
      case Scenario::ChipConsolidation:
        if (w.kind == WorkloadKind::Trace)
            why = "trace replay is a column workload";
        break;
    }
    if (why == nullptr)
        return {};
    return strFormat("workload '%s' cannot run in the %s scenario: %s",
                     w.name().c_str(), scenarioName(scenario), why);
}

std::vector<CellSpec>
SweepSpec::expand() const
{
    const SweepSpec c = canonical();
    std::vector<CellSpec> cells;
    for (auto kind : c.topologies) {
        for (auto pattern : c.patterns) {
            for (auto mode : c.modes) {
                for (double rate : c.rates) {
                    for (int workload : c.workloads) {
                        for (int placement : c.placements) {
                            for (const auto &ws : c.workloadSpecs) {
                                for (int rep = 0; rep < c.replicates;
                                     ++rep) {
                                    CellSpec cell;
                                    cell.scenario = c.scenario;
                                    cell.topology = kind;
                                    cell.pattern = pattern;
                                    cell.mode = mode;
                                    cell.rate = rate;
                                    cell.workload = workload;
                                    cell.placement = placement;
                                    cell.workloadSpec = ws;
                                    cell.replicate = rep;
                                    cell.phases = c.phases;
                                    cell.genCycles = c.genCycles;
                                    cell.seed = cellSeed(c, cell);
                                    cells.push_back(cell);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return cells;
}

const RunningStat &
AggregateCell::get(const std::string &name) const
{
    for (const auto &[k, v] : stats) {
        if (k == name)
            return v;
    }
    TAQOS_ASSERT(false, "aggregate has no metric '%s'", name.c_str());
    static const RunningStat kEmpty;
    return kEmpty;
}

std::vector<AggregateCell>
aggregateCells(const SweepSpec &spec, const std::vector<CellResult> &cells)
{
    const int reps = std::max(1, spec.replicates);
    TAQOS_ASSERT(cells.size() % static_cast<std::size_t>(reps) == 0,
                 "cell count %zu not a multiple of replicates %d",
                 cells.size(), reps);
    std::vector<AggregateCell> aggs;
    for (std::size_t base = 0; base < cells.size();
         base += static_cast<std::size_t>(reps)) {
        AggregateCell agg;
        agg.key = cells[base].spec;
        for (const auto &[name, v] : cells[base].metrics) {
            (void)v;
            RunningStat rs;
            for (int r = 0; r < reps; ++r)
                rs.push(cells[base + static_cast<std::size_t>(r)].get(name));
            agg.stats.emplace_back(name, rs);
        }
        aggs.push_back(std::move(agg));
    }
    return aggs;
}

std::string
SweepResult::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "taqos-sweep/v1");
    w.field("name", spec.name);
    w.field("scenario", scenarioName(spec.scenario));

    w.beginObject("spec");
    w.beginArray("topologies");
    for (auto k : spec.topologies)
        w.value(topologyName(k));
    w.endArray();
    w.beginArray("patterns");
    for (auto p : spec.patterns)
        w.value(patternName(p));
    w.endArray();
    w.beginArray("modes");
    for (auto m : spec.modes)
        w.value(qosModeName(m));
    w.endArray();
    w.beginArray("rates");
    for (double r : spec.rates)
        w.value(r);
    w.endArray();
    w.beginArray("workloads");
    for (int x : spec.workloads)
        w.value(x);
    w.endArray();
    w.beginArray("placements");
    for (int x : spec.placements)
        w.value(x);
    w.endArray();
    w.beginArray("workload_specs");
    for (const auto &ws : spec.workloadSpecs)
        w.value(ws.name());
    w.endArray();
    w.field("replicates", spec.replicates);
    w.field("baseSeed", spec.baseSeed);
    w.field("mixSeeds", spec.mixSeeds);
    w.beginObject("phases");
    w.field("warmup", spec.phases.warmup);
    w.field("measure", spec.phases.measure);
    w.field("drain", spec.phases.drain);
    w.endObject();
    w.field("genCycles", spec.genCycles);
    w.endObject();

    w.beginArray("cells");
    for (const auto &cell : cells) {
        w.beginObject();
        emitCellKey(w, cell.spec);
        w.field("replicate", cell.spec.replicate);
        w.field("seed", cell.spec.seed);
        w.beginObject("metrics");
        for (const auto &[name, v] : cell.metrics)
            w.field(name, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.beginArray("aggregates");
    for (const auto &agg : aggregates) {
        w.beginObject();
        emitCellKey(w, agg.key);
        w.field("replicates",
                agg.stats.empty()
                    ? 0
                    : static_cast<std::int64_t>(agg.stats[0].second.count()));
        w.beginObject("metrics");
        for (const auto &[name, rs] : agg.stats) {
            w.beginObject(name);
            w.field("mean", rs.mean());
            w.field("stddev", rs.stddev());
            w.field("min", rs.min());
            w.field("max", rs.max());
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str() + "\n";
}

bool
SweepResult::writeJson(const std::string &path) const
{
    return writeTextFile(path, toJson());
}

SweepRunner::SweepRunner(int numThreads)
{
    if (numThreads <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        numThreads = hw > 0 ? static_cast<int>(hw) : 1;
    }
    threads_ = numThreads;
}

CellResult
SweepRunner::runCell(const CellSpec &cell)
{
    switch (cell.scenario) {
      case Scenario::LatencyLoad: return runColumnCell(cell);
      case Scenario::Hotspot: return runColumnCell(cell);
      case Scenario::Adversarial: return runAdversarialCell(cell);
      case Scenario::ChipConsolidation:
        return runChipConsolidationCell(cell);
    }
    TAQOS_ASSERT(false, "unknown scenario");
    return CellResult{};
}

SweepResult
SweepRunner::run(const SweepSpec &spec, CellCache *cache) const
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepResult result;
    result.spec = spec.canonical();
    const std::vector<CellSpec> cells = result.spec.expand();
    result.cells.resize(cells.size());

    // Cache probe: hits land directly in their expansion slot; only the
    // misses are executed (and stored back afterwards).
    std::vector<std::size_t> todo;
    todo.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cache != nullptr && cache->load(cells[i], result.cells[i]))
            ++result.cacheHits;
        else
            todo.push_back(i);
    }
    result.cacheMisses = todo.size();

    const auto runOne = [&cells, &result](std::size_t i) {
        result.cells[i] = runCell(cells[i]);
    };

    // One serial cell per core (see the class comment).
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int workers = static_cast<int>(std::min<std::size_t>(
        std::min(threads_, std::max(1, hw)), todo.size()));
    if (workers <= 1) {
        for (std::size_t i : todo)
            runOne(i);
    } else {
        // Work-stealing by atomic index: cells land in their expansion
        // slots regardless of which worker ran them, so the result is
        // independent of scheduling.
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int t = 0; t < workers; ++t) {
            pool.emplace_back([&todo, &next, &runOne] {
                while (true) {
                    const std::size_t k =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (k >= todo.size())
                        return;
                    runOne(todo[k]);
                }
            });
        }
        for (auto &th : pool)
            th.join();
    }

    if (cache != nullptr) {
        for (std::size_t i : todo)
            cache->store(cells[i], result.cells[i]);
    }

    result.aggregates = aggregateCells(result.spec, result.cells);
    result.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return result;
}

} // namespace taqos
