/// Run any experiment sweep from the command line: declare the grid with
/// key=value options, execute it on the parallel SweepRunner, print the
/// per-grid-point aggregates, and optionally write the full JSON record.
///
/// Options (all optional):
///   preset=fig4|fig5|fig6|table2|adversarial
///       start from a paper-figure spec builder at paper-scale cycle
///       counts (fig5/fig6/adversarial share one grid: workloads 1+2);
///       later options override individual axes
///   scenario=latency_load|hotspot|adversarial|chip   (default latency_load)
///   topos=all | comma list (mesh_x1,mesh_x2,mesh_x4,mecs,dps,fbfly)
///   patterns=uniform,tornado,hotspot                 (latency_load only)
///   modes=pvc,per-flow,no-qos,gsf,age,wrr
///   rates=0.02,0.05 | lo:hi:step   (flits/cycle/injector; not adversarial)
///   workloads=1,2                                    (adversarial only)
///   placements=0,1,2                                 (chip only)
///   workload=SPEC[;SPEC]  dynamic-workload axis (steady | bursty:... |
///                         ramp:... | trace:path=... | churn:...);
///                         ';'-separated because specs contain ','
///   trace=FILE inflate=F window=b:e loop=1   trace-replay shorthand
///   burst=on,off,gain | burst=1              ON/OFF bursty shorthand
///   churn=frames[,maxvms[,attack]] | churn=1 tenant-churn shorthand
///   reps=N (N >= 1) seed=S mix=0|1
///   warmup=C measure=C drain=C gencycles=C (adversarial: C >= 1)
///   threads=N            cell workers (0 = hardware concurrency; each
///                        cell runs serially, one core per worker)
///   out=path.json        (write the taqos-sweep/v1 record)
///   cache=DIR            content-addressed cell cache: cells already in
///                        DIR are loaded instead of re-run, fresh cells
///                        are stored; output stays byte-identical to a
///                        cold sweep (invalidated by the engine salt)
///   name=label
///
/// Any other key fails with "unknown option '<key>'", a value that does
/// not parse as its option's type (an integer out of its range, a
/// negative rate included) with "bad option '<key>=<value>'" or the list
/// forms' messages, a workload or placement outside its table with
/// "unknown workload/placement", an axis the scenario does not sweep
/// (patterns= outside latency_load, rates= under adversarial, workloads=
/// outside adversarial, placements= outside chip) with "the <scenario>
/// scenario does not sweep the <axis> axis", unless it holds the one
/// value the scenario runs anyway, a workload spec the scenario cannot
/// run (churn outside scenario=chip, trace replay outside latency_load)
/// with "workload '<spec>' cannot run in the <scenario> scenario: ...",
/// reps= below 1 with "a sweep needs at least 1 replicate, got <n>", and
/// gencycles=0 under scenario=adversarial with "the adversarial scenario
/// needs a generation horizon of at least 1 cycle, got 0", all with exit
/// status 1 before work starts.
///
/// Examples:
///   sweep_cli rates=0.01:0.12:0.01 patterns=uniform,tornado out=fig4.json
///   sweep_cli scenario=hotspot reps=5 mix=1 out=table2.json
///   sweep_cli scenario=chip topos=dps placements=0,1,2 out=chip.json
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/options.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"
#include "exp/cell_cache.h"
#include "exp/sweep.h"

using namespace taqos;

namespace {

/// An integer-list option whose entries index a fixed table: every entry
/// must lie in [lo, hi].
std::vector<int>
indexListOption(const OptionMap &opts, const char *key, const char *what,
                int lo, int hi)
{
    const std::vector<int> list = parseIntList(opts.get(key, ""));
    for (int v : list) {
        if (v < lo || v > hi) {
            unknownValue(what, std::to_string(v),
                         strFormat("%d..%d", lo, hi));
        }
    }
    return list;
}

/// Paper-figure presets: the same spec builders the figure drivers run,
/// at their paper-scale defaults. Axis options override on top.
bool
applyPreset(const std::string &name, SweepSpec &spec)
{
    if (name == "fig4") {
        std::vector<double> rates;
        for (double r = 0.01; r <= 0.15 + 1e-9; r += 0.01)
            rates.push_back(r);
        spec = fig4Spec(TrafficPattern::UniformRandom, rates);
        return true;
    }
    if (name == "fig5" || name == "fig6" || name == "adversarial") {
        // One grid backs both figures (workloads 1 and 2; each cell runs
        // PVC plus the preemption-free reference).
        spec = adversarialSpec(/*workload=*/0);
        spec.name = "fig5_fig6_adversarial";
        return true;
    }
    if (name == "table2") {
        spec = table2Spec();
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    // Every key read below (the usage header's order).
    opts.rejectUnknown({"preset", "scenario", "topos", "patterns", "modes",
                        "rates", "workloads", "placements", "workload",
                        "trace", "inflate", "window", "loop", "burst",
                        "churn", "reps", "seed", "mix", "warmup", "measure",
                        "drain", "gencycles", "threads", "out", "cache",
                        "name"});

    SweepSpec spec;
    const std::string preset = opts.get("preset", "");
    if (!preset.empty() && !applyPreset(preset, spec)) {
        std::fprintf(stderr,
                     "unknown preset '%s'; valid: fig4 fig5 fig6 "
                     "adversarial table2\n",
                     preset.c_str());
        return 1;
    }
    if (opts.has("name"))
        spec.name = opts.get("name", "sweep_cli");
    else if (preset.empty())
        spec.name = "sweep_cli";

    if (preset.empty() || opts.has("scenario")) {
        spec.scenario = enumOption(opts, "scenario",
                                   *parseScenario("latency_load"),
                                   parseScenario, "scenario");
    }

    const std::string topos = opts.get("topos", "all");
    if (topos != "all") {
        spec.topologies =
            parseEnumList(topos, parseTopology, "topology",
                          joinNames(kAllTopologies, topologyName));
    }
    if (opts.has("patterns")) {
        spec.patterns =
            parseEnumList(opts.get("patterns", ""), parsePattern, "pattern");
    }
    if (opts.has("modes")) {
        spec.modes = parseEnumList(opts.get("modes", ""), parseQosMode,
                                   "mode", joinNames(kAllQosModes,
                                                     qosModeName));
    }
    if (opts.has("rates"))
        spec.rates = parseRateList(opts.get("rates", ""));
    if (opts.has("workloads")) {
        spec.workloads =
            indexListOption(opts, "workloads", "adversarial workload", 1, 2);
    }
    if (opts.has("placements")) {
        spec.placements =
            indexListOption(opts, "placements", "placement", 0,
                            static_cast<int>(vmPlacements().size()) - 1);
    }
    const std::vector<WorkloadSpec> wspecs = workloadAxisFromOpts(opts);
    if (!wspecs.empty())
        spec.workloadSpecs = wspecs;

    if (preset.empty() || opts.has("reps"))
        spec.replicates = opts.getInt("reps", 1);
    spec.baseSeed = opts.getInt("seed", spec.baseSeed);
    if (preset.empty() || opts.has("mix"))
        spec.mixSeeds = opts.getBool("mix", true);
    // Presets carry the figure's paper-scale phase/horizon defaults;
    // explicit options still override them.
    if (preset.empty() || opts.has("warmup"))
        spec.phases.warmup = opts.getCycles("warmup", 20000);
    if (preset.empty() || opts.has("measure"))
        spec.phases.measure = opts.getCycles("measure", 50000);
    if (preset.empty() || opts.has("drain"))
        spec.phases.drain = opts.getCycles("drain", 30000);
    if (preset.empty() || opts.has("gencycles"))
        spec.genCycles = opts.getCycles("gencycles", 100000);

    const std::string err = sweepSpecError(spec);
    if (!err.empty())
        optionError(err);

    const SweepRunner runner(opts.getInt("threads", 0));

    const std::string cacheDir = opts.get("cache", "");
    SweepResult result;
    if (!cacheDir.empty()) {
        CellCache cache(cacheDir);
        result = runner.run(spec, &cache);
        std::printf("cell cache %s: %zu hits, %zu misses\n",
                    cacheDir.c_str(), result.cacheHits, result.cacheMisses);
    } else {
        result = runner.run(spec);
    }

    std::printf("sweep '%s' (%s): %zu cells on %d threads, %.1f ms\n\n",
                result.spec.name.c_str(),
                scenarioName(result.spec.scenario), result.cells.size(),
                runner.threads(), result.wallMs);

    if (!result.aggregates.empty()) {
        // Metric columns are the union across grid points: cells of
        // different VM placements legitimately report different sets.
        std::vector<std::string> metricNames;
        for (const auto &agg : result.aggregates) {
            for (const auto &[name, rs] : agg.stats) {
                (void)rs;
                if (std::find(metricNames.begin(), metricNames.end(),
                              name) == metricNames.end())
                    metricNames.push_back(name);
            }
        }

        // The workload-spec column only appears when the axis is in
        // play, so steady sweeps render exactly as before.
        const bool showWspec = std::any_of(
            result.aggregates.begin(), result.aggregates.end(),
            [](const AggregateCell &a) {
                return !a.key.workloadSpec.isSteady();
            });

        TextTable t;
        std::vector<std::string> head{"topology", "pattern", "mode",
                                      "rate", "wl", "pl"};
        if (showWspec)
            head.push_back("wspec");
        head.insert(head.end(), metricNames.begin(), metricNames.end());
        t.setHeader(head);
        for (const auto &agg : result.aggregates) {
            std::vector<std::string> row{
                topologyName(agg.key.topology),
                patternName(agg.key.pattern),
                qosModeName(agg.key.mode),
                strFormat("%.3f", agg.key.rate),
                strFormat("%d", agg.key.workload),
                strFormat("%d", agg.key.placement)};
            if (showWspec)
                row.push_back(agg.key.workloadSpec.name());
            for (const auto &name : metricNames) {
                const auto it = std::find_if(
                    agg.stats.begin(), agg.stats.end(),
                    [&name](const auto &kv) { return kv.first == name; });
                if (it == agg.stats.end()) {
                    row.push_back("-");
                } else {
                    const RunningStat &rs = it->second;
                    row.push_back(rs.count() > 1
                                      ? strFormat("%.3g±%.2g", rs.mean(),
                                                  rs.stddev())
                                      : strFormat("%.4g", rs.mean()));
                }
            }
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
    }

    const std::string out = opts.get("out", "");
    if (!out.empty()) {
        if (!result.writeJson(out))
            return 1;
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
