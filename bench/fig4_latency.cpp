/// Figure 4: average packet latency vs injection rate on uniform random
/// and tornado traffic, for all five shared-region topologies. Saturated
/// points (incomplete delivery) are flagged; the paper's curves end at
/// saturation.
///
/// Each pattern is one SweepSpec (topologies x rates) executed on the
/// parallel SweepRunner; json=<prefix> writes the taqos-sweep/v1 record
/// per pattern (<prefix>_<pattern>.json).
///
/// Options: fast=1 (short phases), pattern=uniform|tornado (default both),
///          mode=pvc|per-flow|no-qos|gsf|age|wrr (default pvc),
///          rates=a,b,c|lo:hi:step (overrides maxrate/step),
///          maxrate=0.15, step=0.01, threads=N, json=<prefix>,
///          workload=SPEC (single dynamic-workload spec; churn has no
///          column embedding)
#include <cstdio>

#include "bench_util.h"
#include "common/options.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"

using namespace taqos;

namespace {

/// Run one pattern's sweep, write its record (json=) and print its
/// tables, the figure's header first when `first`. The record is written
/// before anything is printed, so a failed write is the one line the run
/// prints; false then.
bool
runPattern(TrafficPattern pattern, const std::vector<double> &rates,
           const RunPhases &phases, int threads, const std::string &json,
           QosMode mode, const WorkloadSpec &workload, bool first)
{
    SweepSpec spec = fig4Spec(pattern, rates, phases, mode);
    spec.workloadSpecs = {workload};
    const SweepResult result = SweepRunner(threads).run(spec);
    const std::string path =
        json.empty()
            ? std::string()
            : strFormat("%s_%s.json", json.c_str(), patternName(pattern));
    if (!path.empty() && !result.writeJson(path))
        return false;

    if (first) {
        benchutil::header(
            "Latency vs injection rate (cycles; 'sat' = beyond saturation)",
            "Figure 4(a) uniform random, Figure 4(b) tornado (Sec. 5.2)");
    }
    std::printf("--- %s traffic (%s, %s) ---\n", patternName(pattern),
                qosModeName(mode), workload.name().c_str());
    if (!path.empty())
        std::printf("wrote %s\n", path.c_str());
    const auto series = latencySeriesFromSweep(result);

    TextTable t;
    std::vector<std::string> head{"rate"};
    for (const auto &s : series)
        head.push_back(topologyName(s.topology));
    t.setHeader(head);

    for (std::size_t p = 0; p < rates.size(); ++p) {
        std::vector<std::string> row{
            strFormat("%.0f%%", 100.0 * rates[p])};
        for (const auto &s : series) {
            const LatencyPoint &pt = s.points[p];
            row.push_back(pt.saturated
                              ? std::string("sat")
                              : benchutil::num(pt.avgLatency, 1));
        }
        t.addRow(row);
    }
    std::printf("%s\n", t.render().c_str());

    TextTable thr;
    head[0] = "rate";
    thr.setHeader(head);
    for (std::size_t p = 0; p < rates.size(); ++p) {
        std::vector<std::string> row{
            strFormat("%.0f%%", 100.0 * rates[p])};
        for (const auto &s : series)
            row.push_back(benchutil::num(100.0 * s.points[p].throughput, 2));
        thr.addRow(row);
    }
    std::printf("Accepted throughput (%% flits/cycle/injector):\n%s\n",
                thr.render().c_str());
    std::printf("CSV (latency):\n%s\n", t.renderCsv().c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast", "pattern", "mode", "rates", "maxrate",
                        "step", "threads", "json", "workload"});

    RunPhases phases;
    if (opts.getBool("fast", false))
        phases = RunPhases{5000, 15000, 10000};

    const std::vector<double> rates =
        opts.has("rates") ? parseRateList(opts.get("rates", ""))
                          : benchutil::rateGrid(opts, 0.15, 0.01);

    const int threads = opts.getInt("threads", 0);
    const std::string json = opts.get("json", "");
    const QosMode mode = enumOption(opts, "mode", QosMode::Pvc,
                                    parseQosMode, "mode",
                                    joinNames(kAllQosModes, qosModeName));
    const std::vector<WorkloadSpec> wspecs = workloadAxisFromOpts(opts);
    if (wspecs.size() > 1)
        optionError("fig4_latency takes a single workload spec");
    const WorkloadSpec workload = wspecs.empty() ? WorkloadSpec{} : wspecs[0];
    const std::string werr =
        workloadScenarioError(workload, Scenario::LatencyLoad);
    if (!werr.empty())
        optionError(werr);

    const std::string which = opts.get("pattern", "both");
    if (which != "both" && which != "uniform" && which != "tornado")
        unknownValue("pattern", which, "both uniform tornado");

    const bool uniform = which == "both" || which == "uniform";
    if (uniform && !runPattern(TrafficPattern::UniformRandom, rates, phases,
                               threads, json, mode, workload, true))
        return 1;
    if ((which == "both" || which == "tornado") &&
        !runPattern(TrafficPattern::Tornado, rates, phases, threads, json,
                    mode, workload, !uniform))
        return 1;

    std::printf(
        "Paper expectations: mesh_x1/x2 saturate first (lowest bisection);\n"
        "MECS and DPS ~13%% faster than meshes on uniform random; on tornado\n"
        "MECS ~7%% faster than DPS (~24%% vs mesh); mesh_x4 competitive on\n"
        "random but cannot balance tornado.\n");
    return 0;
}
