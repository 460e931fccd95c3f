/// Record, check and audit flit traces from the command line — the
/// operational face of the independent verifier (src/verify).
///
///   verify_cli record out=trace.txt [run options]
///       run one column simulation with the trace recorder attached and
///       save the event stream
///   verify_cli check <trace.txt...> [--no-qos]
///       replay saved traces through the checker; exit 1 on the first
///       trace with violations, 2 on a malformed/truncated file
///   verify_cli audit [run options] [--no-qos]
///       record in memory and check immediately (no file) — the form the
///       CI smoke and nightly sampled audits use
///
/// Run options (key=value, all optional):
///   topo=dps|mecs|mesh_x1|mesh_x2|mesh_x4|fbfly   (default dps)
///   mode=pvc|per-flow|no-qos|gsf|age|wrr          (default pvc)
///   pattern=uniform|tornado|hotspot               (default uniform)
///   rate=R        flits/cycle/injector            (default 0.05)
///   workload=SPEC dynamic workload (steady | bursty:... | ramp:... |
///                 trace:path=...; churn has no column embedding) — the
///                 CI workload smoke audits a bursty cell through this
///   seed=S
///   warmup=C measure=C drain=C                    (default 2000/6000/4000)
///   legacy=1      use the always-tick reference engine
///   fabric=1      record a multi-chip fabric run (FabricSim) instead of
///                 one column; with
///     chips=N tiles=N columns=a,b links=p2p|ring
///                 (tiles sets a square chip; columns the shared xs)
///
/// Examples:
///   verify_cli audit topo=dps mode=pvc rate=0.05
///   verify_cli record out=/tmp/t.txt topo=mecs pattern=hotspot legacy=1
///   verify_cli check /tmp/t.txt
///   verify_cli audit fabric=1 chips=4 tiles=32 columns=4,12
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/strings.h"
#include "core/experiments.h"
#include "sim/column_sim.h"
#include "sim/fabric_sim.h"
#include "sim/trace_record.h"
#include "verify/checker.h"

using namespace taqos;

namespace {

struct RunOptions {
    ColumnConfig col;
    TrafficConfig traffic;
    WorkloadSpec workload;
    RunPhases phases = testPhases();
    bool legacy = false;
    std::string out;
    /// fabric=1: record a multi-chip fabric run instead of one column.
    bool fabric = false;
    int chips = 1;
    int tiles = 0; ///< 0 = the default chip geometry
    std::vector<int> columns;
    LinkTopology links = LinkTopology::PointToPoint;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: verify_cli record out=FILE [run options]\n"
                 "       verify_cli check FILE... [--no-qos]\n"
                 "       verify_cli audit [run options] [--no-qos]\n");
    std::exit(2);
}

[[noreturn]] void
badOption(const std::string &opt)
{
    std::fprintf(stderr, "verify_cli: bad option '%s'\n", opt.c_str());
    std::exit(2);
}

RunOptions
parseRunOptions(const std::vector<std::string> &args)
{
    RunOptions run;
    TopologyKind topo = TopologyKind::Dps;
    QosMode mode = QosMode::Pvc;
    run.traffic.injectionRate = 0.05;
    for (const auto &arg : args) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos)
            badOption(arg);
        const std::string key = arg.substr(0, eq);
        const std::string val = arg.substr(eq + 1);
        if (key == "topo") {
            const auto t = parseTopology(val);
            if (!t.has_value())
                badOption(arg);
            topo = *t;
        } else if (key == "mode") {
            const auto m = parseQosMode(val);
            if (!m.has_value())
                badOption(arg);
            mode = *m;
        } else if (key == "pattern") {
            const auto p = parsePattern(val);
            if (!p.has_value())
                badOption(arg);
            run.traffic.pattern = *p;
        } else if (key == "rate") {
            run.traffic.injectionRate = std::atof(val.c_str());
        } else if (key == "workload") {
            std::string err;
            const auto w = WorkloadSpec::parse(val, &err);
            if (!w.has_value()) {
                std::fprintf(stderr, "verify_cli: %s\n", err.c_str());
                std::exit(2);
            }
            if (w->kind == WorkloadKind::Churn) {
                std::fprintf(stderr,
                             "verify_cli: tenant churn needs the "
                             "chip_consolidation scenario; the audited "
                             "column has no embedding for it\n");
                std::exit(2);
            }
            run.workload = *w;
        } else if (key == "seed") {
            run.traffic.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "warmup") {
            run.phases.warmup = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "measure") {
            run.phases.measure = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "drain") {
            run.phases.drain = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "legacy") {
            run.legacy = std::atoi(val.c_str()) != 0;
        } else if (key == "out") {
            run.out = val;
        } else if (key == "fabric") {
            run.fabric = std::atoi(val.c_str()) != 0;
        } else if (key == "chips") {
            run.chips = std::atoi(val.c_str());
        } else if (key == "tiles") {
            run.tiles = std::atoi(val.c_str());
        } else if (key == "columns") {
            run.columns = parseIntList(val);
        } else if (key == "links") {
            const auto l = parseLinkTopology(val);
            if (!l.has_value())
                badOption(arg);
            run.links = *l;
        } else {
            badOption(arg);
        }
    }
    run.col = paperColumn(topo, mode);
    return run;
}

/// Run the configured fabric with the recorder attached (fabric=1).
FlitTrace
recordFabricRun(const RunOptions &run)
{
    FabricSpec spec;
    spec.chips = run.chips;
    if (run.tiles > 0)
        spec.chip.tilesX = spec.chip.tilesY = run.tiles;
    if (!run.columns.empty())
        spec.chip.sharedColumns = run.columns;
    spec.column = run.col;
    spec.links = run.links;

    if (!run.workload.isSteady() && !run.workload.modulated()) {
        std::fprintf(stderr,
                     "verify_cli: fabric runs take steady/bursty/ramp "
                     "workloads, got %s\n",
                     workloadKindName(run.workload.kind));
        std::exit(2);
    }

    TrafficConfig traffic = run.traffic;
    traffic.genUntil = run.phases.measureEnd();

    FabricSim sim(spec, traffic, run.workload);
    sim.configure({.activityDriven = !run.legacy});
    sim.setMeasureWindow(run.phases.warmup, run.phases.measureEnd());

    TraceRecorder rec(describeFabric(sim.network()));
    rec.setMeasureWindow(run.phases.warmup, run.phases.measureEnd());
    sim.attachTraceSink(&rec);

    const Cycle done = sim.runUntilDrained(run.phases.total() * 4,
                                           run.phases.measureEnd());
    rec.finish(sim.now(), done != kNoCycle && sim.drained());
    return rec.trace();
}

/// Run the configured column with the recorder attached; the generator
/// stops at the measurement end and the drain phase empties the network.
FlitTrace
recordRun(const RunOptions &run)
{
    if (run.fabric)
        return recordFabricRun(run);

    ColumnConfig col = run.col;
    TrafficConfig traffic = run.traffic;
    traffic.genUntil = run.phases.measureEnd();

    ColumnSim sim(col, traffic, run.workload);
    sim.configure({.activityDriven = !run.legacy});
    sim.setMeasureWindow(run.phases.warmup, run.phases.measureEnd());

    TraceRecorder rec(describeColumn(col));
    rec.setMeasureWindow(run.phases.warmup, run.phases.measureEnd());
    sim.attachTraceSink(&rec);

    const Cycle done = sim.runUntilDrained(run.phases.total() * 4,
                                           run.phases.measureEnd());
    rec.finish(sim.now(), done != kNoCycle && sim.drained());
    return rec.trace();
}

int
reportTrace(const std::string &label, const FlitTrace &trace,
            const CheckOptions &opts)
{
    const CheckReport report = verifyTrace(trace, opts);
    if (report.ok()) {
        std::printf("%s: OK (%llu events, %zu ports)\n", label.c_str(),
                    static_cast<unsigned long long>(report.eventsChecked),
                    trace.ports.size());
        return 0;
    }
    std::printf("%s: %zu violation(s)\n", label.c_str(),
                report.violations.size());
    for (const Violation &v : report.violations)
        std::printf("  %s\n", formatViolation(v).c_str());
    return 1;
}

int
cmdRecord(const std::vector<std::string> &args)
{
    const RunOptions run = parseRunOptions(args);
    if (run.out.empty()) {
        std::fprintf(stderr, "verify_cli record: missing out=FILE\n");
        return 2;
    }
    const FlitTrace trace = recordRun(run);
    std::string err;
    if (!saveFlitTrace(run.out, trace, err)) {
        std::fprintf(stderr, "verify_cli: %s\n", err.c_str());
        return 2;
    }
    std::printf("recorded %zu events -> %s\n", trace.events.size(),
                run.out.c_str());
    return 0;
}

int
cmdCheck(const std::vector<std::string> &files, const CheckOptions &opts)
{
    if (files.empty())
        usage();
    int rc = 0;
    for (const auto &path : files) {
        FlitTrace trace;
        std::string err;
        if (!loadFlitTrace(path, trace, err)) {
            std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                         err.c_str());
            return 2;
        }
        rc = std::max(rc, reportTrace(path, trace, opts));
    }
    return rc;
}

int
cmdAudit(const std::vector<std::string> &args, const CheckOptions &opts)
{
    const RunOptions run = parseRunOptions(args);
    const FlitTrace trace = recordRun(run);
    std::string label = "audit";
    for (const auto &a : args)
        label += " " + a;
    return reportTrace(label, trace, opts);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    CheckOptions opts;
    std::vector<std::string> rest;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--no-qos")
            opts.qosAudit = false;
        else
            rest.push_back(arg);
    }
    if (cmd == "record")
        return cmdRecord(rest);
    if (cmd == "check")
        return cmdCheck(rest, opts);
    if (cmd == "audit")
        return cmdAudit(rest, opts);
    usage();
}
