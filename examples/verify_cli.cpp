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
///   fabric=1      record a multi-chip fabric run instead of one column;
///                 with
///     chips=N tiles=N columns=a,b links=p2p|ring
///                 (tiles sets a square chip; columns the shared xs)
///
/// A bad option (a negative rate, an integer out of range), a trace file
/// that cannot be loaded, a fabric-shape key without fabric=1, or a
/// fabric FabricNetwork::build would refuse fails with one line and exit
/// 2 before any work starts.
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

#include "common/strings.h"
#include "core/experiments.h"
#include "sim/fabric_sim.h"
#include "sim/trace_record.h"
#include "traffic/dynamic.h"
#include "verify/checker.h"

using namespace taqos;

namespace {

struct RunOptions {
    ColumnConfig col;
    /// What is recorded: the column's row-less fabric, or with fabric=1
    /// the chips/tiles/columns/links fabric around `col`.
    FabricSpec spec;
    TrafficConfig traffic;
    WorkloadSpec workload;
    RunPhases phases = testPhases();
    bool legacy = false;
    std::string out;
    bool fabric = false;
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
fail(const std::string &msg)
{
    std::fprintf(stderr, "verify_cli: %s\n", msg.c_str());
    std::exit(2);
}

[[noreturn]] void
badOption(const std::string &opt)
{
    fail("bad option '" + opt + "'");
}

RunOptions
parseRunOptions(const std::vector<std::string> &args)
{
    RunOptions run;
    TopologyKind topo = TopologyKind::Dps;
    QosMode mode = QosMode::Pvc;
    run.traffic.injectionRate = 0.05;
    std::string fabricKey; // the first fabric-shape key given
    for (const auto &arg : args) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos)
            badOption(arg);
        const std::string key = arg.substr(0, eq);
        const std::string val = arg.substr(eq + 1);
        // Numbers parse strictly: "rate=0.05x" or "seed=abc" is a bad
        // option, not a different run.
        const auto parse = [&arg, &val](auto parseTok, auto &out) {
            if (!parseTok(val, out))
                badOption(arg);
        };
        if (fabricKey.empty() && (key == "chips" || key == "tiles" ||
                                  key == "columns" || key == "links")) {
            fabricKey = key;
        }
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
            parse(parseDoubleTok, run.traffic.injectionRate);
            if (run.traffic.injectionRate < 0.0)
                badOption(arg);
        } else if (key == "workload") {
            std::string err;
            const auto w = WorkloadSpec::parse(val, &err);
            if (!w.has_value())
                fail(err);
            // Load the trace now, so a missing or malformed file, or one
            // naming a flow or node outside the column, fails here
            // instead of aborting the simulator's constructor or a run.
            if (w->kind == WorkloadKind::Trace &&
                loadTraceFile(w->tracePath, &err) == nullptr) {
                fail(err);
            }
            run.workload = *w;
        } else if (key == "seed") {
            parse(parseU64Tok, run.traffic.seed);
        } else if (key == "warmup") {
            parse(parseU64Tok, run.phases.warmup);
        } else if (key == "measure") {
            parse(parseU64Tok, run.phases.measure);
        } else if (key == "drain") {
            parse(parseU64Tok, run.phases.drain);
        } else if (key == "legacy") {
            parse(parseBoolTok, run.legacy);
        } else if (key == "out") {
            run.out = val;
        } else if (key == "fabric") {
            parse(parseBoolTok, run.fabric);
        } else if (key == "chips") {
            parse(parseIntTok<int>, run.spec.chips);
        } else if (key == "tiles") {
            parse(parseIntTok<int>, run.spec.chip.tilesX);
            run.spec.chip.tilesY = run.spec.chip.tilesX;
        } else if (key == "columns") {
            run.spec.chip.sharedColumns.clear();
            for (const auto &tok : strSplit(val, ',')) {
                int x = 0;
                if (!parseIntTok(strTrim(tok), x))
                    badOption(arg);
                run.spec.chip.sharedColumns.push_back(x);
            }
        } else if (key == "links") {
            const auto l = parseLinkTopology(val);
            if (!l.has_value())
                badOption(arg);
            run.spec.links = *l;
        } else {
            badOption(arg);
        }
    }
    run.col = paperColumn(topo, mode);
    if (!run.fabric) {
        // Without fabric=1 the fabric shape would be ignored and the
        // default column audited instead of the run that was named.
        if (!fabricKey.empty())
            fail("option '" + fabricKey + "' needs fabric=1");
        const std::string werr =
            workloadScenarioError(run.workload, Scenario::LatencyLoad);
        if (!werr.empty())
            fail(werr);
        run.spec = columnFabricSpec(run.col);
        return run;
    }
    run.spec.column = run.col;
    const std::string err = fabricSpecError(run.spec);
    if (!err.empty())
        fail("bad fabric: " + err);
    const std::string werr = fabricWorkloadError(run.workload);
    if (!werr.empty())
        fail(werr);
    return run;
}

/// Run the configured column or fabric with the recorder attached; the
/// generator stops at the measurement end and the drain phase empties
/// the network.
FlitTrace
recordRun(const RunOptions &run)
{
    TrafficConfig traffic = run.traffic;
    traffic.genUntil = run.phases.measureEnd();

    FabricSim sim(run.spec, traffic, run.workload);
    sim.configure({.activityDriven = !run.legacy});
    sim.setMeasureWindow(run.phases.warmup, run.phases.measureEnd());

    // A column keeps its own description, so its trace bytes are the
    // standalone column's.
    TraceRecorder rec(run.fabric ? describeFabric(sim.network())
                                 : describeColumn(run.col));
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
    if (!saveFlitTrace(run.out, trace, err))
        fail(err);
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
