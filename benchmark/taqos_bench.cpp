/// taqos_bench — runs one benchmark workload in this process and writes
/// its result as JSON.
///
///   taqos_bench workload=NAME out=FILE [seed=S] [seconds=T] [traced=0|1]
///               [work=DIR]
///   taqos_bench smoke=1 work=DIR
///
/// Workloads (benchmark/README.md gives the reason for each):
///   column_low column_sat chip_churn fabric_1024 sweep_fig4 sweep_cached
///   audit
///
/// A run first sets up untimed for a quarter second (a fresh process
/// constructs several times slower at first), then runs passes in a
/// closed loop — the next cell starts when the previous one finishes —
/// until `seconds` have elapsed, with at least one pass. Every pass of a
/// simulation workload starts with a timed set-up: construct, then
/// destroy, every sim of the workload. sweep_cached sets up by filling
/// its cache. Only the sweeps use more than one thread (their
/// SweepRunner pool); fabric_1024's traced run adds a sharded twin.
///
/// Untraced runs report the end-to-end metrics. Traced runs time every
/// step, keep a span around every call into a library layer and report
/// the per-layer metrics; each traced cell also runs untraced, so the
/// tracing overhead is measured on identical work. Every run counts its
/// correctness checks; run.py adds the golden-digest and model checks.
///
/// work=DIR holds the sweeps' cell caches and the paper-scale fig4
/// record the model check reads. smoke=1 runs every workload at 1/50
/// scale, untraced and traced, and checks the result schema and every
/// cross-check (the ctest self-test).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <malloc.h>
#include <map>
#include <sched.h>
#include <sstream>
#include <thread>

#include "cells.h"
#include "common/strings.h"
#include "core/experiments.h"
#include "exp/cell_cache.h"
#include "exp/json_writer.h"
#include "noc/metrics.h"
#include "trace.h"
#include "verify/checker.h"

using namespace taqos;
using namespace taqos::bench;
namespace fs = std::filesystem;

namespace {

/// End-to-end metrics this binary measures (run.py adds peak_rss_mb).
const std::vector<std::string> kEndToEndMetrics = {
    "sim_cycles_per_s", "pass_s", "setup_s"};

/// Per-layer metrics a traced run reports, in BENCHMARK.json order (run.py
/// adds model.fig4_ref_max_rel_err). A layer the workload does not
/// exercise reports 0.
std::vector<std::string>
layerMetricNames()
{
    std::vector<std::string> names = {
        "sim.step_ns_p50", "sim.step_ns_p99", "sim.active_routers_mean",
        "sim.ns_per_active_router", "sim.trace_overhead", "topo.build_ms",
        "topo.hot_arena_kb"};
    for (TopologyKind t : kAllTopologies)
        names.push_back(std::string("topo.cycles_per_s.") + topologyName(t));
    for (QosMode m : kAllQosModes)
        names.push_back(std::string("qos.cycles_per_s.") + qosModeName(m));
    for (const char *n :
         {"qos.preemptions", "qos.useful_hop_frac",
          "router.delivered_flits_per_s", "router.injected_attempts",
          "traffic.generated_flits", "traffic.cycles_per_s.steady",
          "traffic.cycles_per_s.bursty", "traffic.cycles_per_s.churn",
          "chip.churn_epochs", "shard.s4_speedup", "ckpt.save_ms",
          "ckpt.restore_ms", "ckpt.snapshot_kb", "exp.cell_ms_p50",
          "exp.cell_ms_max", "exp.pool_efficiency", "cache.load_us_p50",
          "cache.store_us_p50", "cache.hits", "cache.misses",
          "cache.rerun_ms", "json.emit_ms", "json.bytes",
          "verify.record_overhead", "verify.serialize_mb_per_s",
          "verify.parse_mb_per_s", "verify.check_events_per_s",
          "verify.bytes_per_event"})
        names.emplace_back(n);
    return names;
}

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool traced = false;
    std::string out;
    std::string work = "taqos_bench.work";
    double scale = 1.0; ///< cycle-count scale (the smoke test's 1/50)
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
since(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

std::string
hex(std::uint64_t v)
{
    return strFormat("%016llx", static_cast<unsigned long long>(v));
}

int
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Simulated cycles over host seconds, accumulated.
struct Rate {
    double cycles = 0.0;
    double sec = 0.0;

    void add(double c, double s)
    {
        cycles += c;
        sec += s;
    }
    double perSec() const { return sec > 0.0 ? cycles / sec : 0.0; }
};

/// Each cell's fastest time over the passes of a traced run (the
/// overhead ratios compare these, for the reason BestUnits gives).
struct BestByCell {
    std::map<std::string, double> best;

    void add(const std::string &cell, double sec)
    {
        const auto [it, fresh] = best.try_emplace(cell, sec);
        if (!fresh)
            it->second = std::min(it->second, sec);
    }
    double sum() const
    {
        double s = 0.0;
        for (const auto &[cell, sec] : best)
            s += sec;
        return s;
    }
};

/// What a traced run accumulates for the per-layer metrics.
struct Layers {
    // sim: per-step times; hasWork sampled one cycle in 16.
    LogHistogram steps;
    double sampledNs = 0.0;
    double sampledActive = 0.0;
    double samples = 0.0;
    double plainSec = 0.0;  ///< untraced twins (audit: recorded), summed
    BestByCell plain;       ///< the same, fastest pass per cell
    BestByCell stepped;     ///< the same cells stepped one cycle at a time
    BestByCell bare;        ///< audit: unrecorded twins

    // topo / qos / traffic: untraced cycles per second by cell property.
    double buildMs = 0.0;
    double hotArenaKb = 0.0;
    std::map<std::string, Rate> byTopo, byMode, byTraffic;

    // router / qos counters, over the first pass (passes repeat exactly).
    double preemptions = 0.0;
    double usefulHops = 0.0;
    double wastedHops = 0.0;
    double injectedAttempts = 0.0;
    double generatedFlits = 0.0;
    double deliveredFlits = 0.0; ///< every pass, over plainSec
    double churnEpochs = 0.0;    ///< minimum over churn cells

    double shardSpeedup = 0.0;
    double saveMs = 0.0;
    double restoreMs = 0.0;
    double snapshotKb = 0.0;

    // exp / cache / json (the sweeps).
    std::vector<double> cellMs;
    double poolEfficiency = 0.0;
    std::vector<double> loadUs, storeUs, rerunMs, jsonMs, coldSec;
    double jsonBytes = 0.0;
    double hits = 0.0;
    double misses = 0.0;

    // verify (audit).
    double traceBytes = 0.0;
    double traceEvents = 0.0;
    double serializeSec = 0.0;
    double parseSec = 0.0;
    double verifySec = 0.0;
};

/// The traced stepper: one NetSim::step per call, each timed.
class StepTimer final : public Stepper {
  public:
    explicit StepTimer(Layers &l) : l_(l) {}

    void advance(NetSim &sim, Cycle n) override
    {
        const int nodes = sim.net().numNodes();
        for (Cycle i = 0; i < n; ++i) {
            int active = -1;
            if ((sim.now() & 15) == 0) {
                active = 0;
                for (NodeId r = 0; r < nodes; ++r)
                    active += sim.net().router(r)->hasWork() ? 1 : 0;
            }
            const auto t0 = Clock::now();
            sim.step();
            const double ns =
                std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
            l_.steps.add(ns);
            if (active >= 0) {
                l_.sampledNs += ns;
                l_.sampledActive += active;
                l_.samples += 1.0;
            }
        }
    }

  private:
    Layers &l_;
};

/// The fastest pass of every timed unit of an untraced run. Passes repeat
/// the same units in the same order, so unit i of one pass is the same
/// work as unit i of any other. A shared host stalls a guest for seconds
/// at a time (on a 4-vCPU KVM guest a plain ALU loop ran at half speed
/// for 0.2-4 s at a time, and whole fabric_1024 passes varied by 65%
/// within one run); summing each unit's fastest time rejects those
/// stalls, where a per-pass median keeps whichever covered half the run.
class BestUnits {
  public:
    void nextPass() { cursor_ = 0; }

    /// `sim`: the unit is simulation stepping (sim_cycles_per_s's base).
    void add(double sec, bool sim)
    {
        if (cursor_ == best_.size()) {
            best_.push_back(sec);
            sim_.push_back(sim);
        } else {
            best_[cursor_] = std::min(best_[cursor_], sec);
        }
        ++cursor_;
    }

    double simSec() const { return sum(true); }
    double totalSec() const { return sum(true) + sum(false); }

  private:
    double sum(bool sim) const
    {
        double s = 0.0;
        for (std::size_t i = 0; i < best_.size(); ++i)
            s += sim_[i] == sim ? best_[i] : 0.0;
        return s;
    }

    std::vector<double> best_;
    std::vector<bool> sim_;
    std::size_t cursor_ = 0;
};

/// Pins a single-threaded run to the quietest of its allowed CPUs,
/// chosen anew between passes (at most every quarter second), and
/// restores the original mask on destruction. On a shared host a vCPU
/// runs at about half speed for seconds at a time while a neighbour
/// keeps its core busy: on a 4-vCPU KVM guest a fixed ALU loop took
/// 3.1-3.3 ms on a quiet vCPU and 5.5-6 ms on a busy one, each vCPU
/// switching every few seconds independently of the others. A short
/// probe on every CPU finds a quiet one, so each timed unit's fastest
/// pass is its time on an uncontended core.
class QuietCpu {
  public:
    QuietCpu()
    {
        CPU_ZERO(&orig_);
        if (sched_getaffinity(0, sizeof(orig_), &orig_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &orig_))
                cpus_.push_back(c);
        }
    }
    ~QuietCpu()
    {
        if (cpus_.size() > 1)
            sched_setaffinity(0, sizeof(orig_), &orig_);
    }
    QuietCpu(const QuietCpu &) = delete;
    QuietCpu &operator=(const QuietCpu &) = delete;

    void settle()
    {
        if (cpus_.size() < 2 || (settled_ && since(at_) < 0.25))
            return;
        int best = cpus_.front();
        double bestSec = std::numeric_limits<double>::infinity();
        for (int c : cpus_) {
            pin(c);
            const double sec = probe();
            if (sec < bestSec) {
                bestSec = sec;
                best = c;
            }
        }
        pin(best);
        settled_ = true;
        at_ = Clock::now();
    }

  private:
    static void pin(int cpu)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    /// About 0.5 ms of dependent ALU work on a quiet core.
    static double probe()
    {
        const auto t0 = Clock::now();
        volatile std::uint64_t x = 0;
        for (std::uint64_t i = 0; i < 600000; ++i)
            x = x + ((i * i) ^ (i >> 3));
        return since(t0);
    }

    cpu_set_t orig_;
    std::vector<int> cpus_;
    bool settled_ = false;
    Clock::time_point at_;
};

/// Cycles per timed unit: short enough (about 5-50 ms) that every unit
/// sees a quiet moment over a run, long enough that reading the clock
/// costs nothing.
Cycle
timedSegment(const Cell &cell)
{
    return cell.kind == CellKind::Fabric ? 250 : 5000;
}

/// One workload run: options, spans, checks, digests and metrics.
struct Run {
    explicit Run(Options o) : opt(std::move(o)), spans(opt.traced) {}

    Options opt;
    SpanRecorder spans;
    int attempted = 0;
    std::vector<std::string> failures;
    std::map<std::string, std::uint64_t> digests;
    std::vector<std::pair<std::string, double>> metrics;
    Layers layers;
    int threads = 1;
    int passes = 0;
    BestUnits units;
    std::vector<double> setups; ///< the timed set-ups, seconds each
    std::string modelSweep;

    void expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            failures.push_back(what);
    }
    void put(const std::string &name, double v)
    {
        metrics.emplace_back(name, v);
    }
    bool keepGoing(Clock::time_point start) const
    {
        return since(start) < opt.seconds;
    }
};

// ------------------------------------------------------------- set-up

/// Construct then destroy every sim of the workload, one at a time;
/// returns the seconds it took.
double
setUpOnce(Run &r, const std::vector<Cell> &cells)
{
    ScopedSpan span(r.spans, "setup");
    std::size_t arena = 0;
    const auto t0 = Clock::now();
    for (const Cell &cell : cells) {
        const CellRun run = cell.build(true);
        arena = std::max(arena, run.sim->net().hotArenaBytes());
    }
    const double sec = since(t0);
    r.layers.hotArenaKb = static_cast<double>(arena) / 1024.0;
    return sec;
}

/// Untimed set-ups before the first pass: at least 5 and 0.25 s. A fresh
/// process constructs several times slower for its first 0.15-0.3 s
/// (fabric_1024 on a 4-vCPU KVM guest: 40-60 ms, then about 20 ms, then
/// 5-9 ms), and how long that lasts varies from run to run.
void
warmUp(Run &r, const std::vector<Cell> &cells)
{
    ScopedSpan span(r.spans, "warmup");
    const auto start = Clock::now();
    for (int reps = 0; reps < 200 && (reps < 5 || since(start) < 0.25);
         ++reps)
        setUpOnce(r, cells);
}

// ------------------------------------------------------- cell running

/// Seal an audit cell's trace, serialize it, parse it back and check it;
/// returns the digest of the serialized text.
std::uint64_t
auditTrace(Run &r, const Cell &cell, CellRun &run)
{
    Layers &l = r.layers;
    run.rec->finish(run.sim->now(), run.sim->drained());
    std::string text;
    FlitTrace parsed;
    std::string err;
    bool parsedOk = false;
    CheckReport report;
    const auto timed = [&r](const char *span, double &total, auto &&call) {
        ScopedSpan s(r.spans, span);
        const auto t0 = Clock::now();
        call();
        const double sec = since(t0);
        total += sec;
        r.units.add(sec, false);
    };
    timed("serialize", l.serializeSec,
          [&] { text = serializeFlitTrace(run.rec->trace()); });
    timed("parse", l.parseSec,
          [&] { parsedOk = parseFlitTrace(text, parsed, err); });
    timed("verify", l.verifySec, [&] { report = verifyTrace(parsed); });
    ScopedSpan s(r.spans, "check");
    const auto t0 = Clock::now();
    r.expect(parsedOk, cell.name + ": trace does not parse: " + err);
    r.expect(parsedOk && serializeFlitTrace(parsed) == text,
             cell.name + ": re-serialized trace differs");
    r.units.add(since(t0), false);
    r.expect(report.ok(), cell.name + ": " + report.firstDiagnostic());
    l.traceBytes += static_cast<double>(text.size());
    l.traceEvents += static_cast<double>(parsed.events.size());
    return fnv1a(text);
}

/// First-pass bookkeeping for a finished cell: golden digests, delivery
/// sanity and the churn guard.
void
firstPassChecks(Run &r, const Cell &cell, const CellRun &run,
                std::uint64_t digest)
{
    r.digests[cell.name] = digest;
    const SimMetrics &m = run.sim->metrics();
    r.expect(m.deliveredPackets > 0 &&
                 m.deliveredPackets <= m.generatedPackets,
             strFormat("%s: delivered %llu of %llu generated packets",
                       cell.name.c_str(),
                       static_cast<unsigned long long>(m.deliveredPackets),
                       static_cast<unsigned long long>(m.generatedPackets)));
    if (cell.kind == CellKind::Chip &&
        cell.workload.kind == WorkloadKind::Churn) {
        const int epochs = run.churn->currentEpoch();
        r.expect(epochs >= 1, cell.name + ": no churn epoch fired");
        Layers &l = r.layers;
        l.churnEpochs = l.churnEpochs == 0.0
                            ? epochs
                            : std::min(l.churnEpochs, double(epochs));
    }
}

/// Untraced pass over the cells: construct, NetSim::run segment by
/// segment, check; every step timed as one unit.
void
untracedPass(Run &r, const std::vector<Cell> &cells,
             std::vector<std::uint64_t> &digests)
{
    PlainStepper plain;
    for (const Cell &cell : cells) {
        const auto t0 = Clock::now();
        CellRun run = cell.build(true);
        r.units.add(since(t0), false);
        for (Cycle at = 0; at < cell.cycles();) {
            at = std::min(at + timedSegment(cell), cell.cycles());
            const auto t1 = Clock::now();
            runTo(cell, run, at, plain);
            r.units.add(since(t1), true);
        }
        digests.push_back(metricsDigest(run.sim->metrics()));
        if (r.passes == 0)
            firstPassChecks(r, cell, run, digests.back());
        if (cell.audit) {
            digests.push_back(auditTrace(r, cell, run));
            if (r.passes == 0)
                r.digests[cell.name + "/trace"] = digests.back();
        }
    }
}

/// Untraced twin of a traced cell: construct + NetSim::run, timed, with
/// the per-property rates and counters. Returns the metrics digest.
std::uint64_t
plainTwin(Run &r, const Cell &cell)
{
    ScopedSpan s(r.spans, "plain");
    Layers &l = r.layers;
    PlainStepper plain;
    const auto t0 = Clock::now();
    CellRun run = cell.build(true);
    const auto t1 = Clock::now();
    runTo(cell, run, cell.cycles(), plain);
    const double sec = since(t1);
    l.cellMs.push_back(since(t0) * 1e3);
    l.plainSec += sec;
    l.plain.add(cell.name, sec);
    const double cyc = static_cast<double>(cell.cycles());
    l.byTopo[topologyName(cell.topology)].add(cyc, sec);
    l.byMode[qosModeName(cell.mode)].add(cyc, sec);
    l.byTraffic[workloadKindName(cell.workload.kind)].add(cyc, sec);

    const SimMetrics &m = run.sim->metrics();
    l.deliveredFlits += static_cast<double>(m.deliveredFlits);
    if (r.passes == 0) {
        l.preemptions += static_cast<double>(m.preemptionEvents);
        l.usefulHops += m.usefulHops;
        l.wastedHops += m.wastedHops;
        l.injectedAttempts += static_cast<double>(m.injectedAttempts);
        l.generatedFlits += static_cast<double>(m.generatedFlits);
    }
    return metricsDigest(m);
}

/// Audit cells only: the same cell without the recorder, for
/// verify.record_overhead.
void
bareTwin(Run &r, const Cell &cell)
{
    ScopedSpan s(r.spans, "plain.unrecorded");
    PlainStepper plain;
    CellRun run = cell.build(false);
    const auto t0 = Clock::now();
    runTo(cell, run, cell.cycles(), plain);
    r.layers.bare.add(cell.name, since(t0));
}

/// The traced half of a traced cell: construct, step cycle by cycle,
/// audit; returns the metrics digest. The run is destroyed on return.
std::uint64_t
steppedRun(Run &r, const Cell &cell, StepTimer &timer)
{
    CellRun run;
    {
        ScopedSpan s(r.spans, "construct");
        run = cell.build(true);
    }
    {
        ScopedSpan s(r.spans, "run");
        const auto t0 = Clock::now();
        runTo(cell, run, cell.cycles(), timer);
        r.layers.stepped.add(cell.name, since(t0));
    }
    const std::uint64_t digest = metricsDigest(run.sim->metrics());
    if (cell.audit) {
        const std::uint64_t trace = auditTrace(r, cell, run);
        if (r.passes == 0)
            r.digests[cell.name + "/trace"] = trace;
    }
    if (r.passes == 0) {
        ScopedSpan s(r.spans, "check");
        firstPassChecks(r, cell, run, digest);
    }
    return digest;
}

/// One traced cell: the untraced twin(s) and the stepped run, which
/// swap order every pass so that whichever meets a warmer allocator
/// (the recorder's buffers are large) does so equally often.
void
tracedCell(Run &r, const Cell &cell, StepTimer &timer)
{
    ScopedSpan cs(r.spans, "cell");
    const bool plainFirst = r.passes % 2 == 0;
    std::uint64_t plainDigest = plainFirst ? plainTwin(r, cell) : 0;
    if (cell.audit)
        bareTwin(r, cell);
    const std::uint64_t digest = steppedRun(r, cell, timer);
    if (!plainFirst)
        plainDigest = plainTwin(r, cell);
    ScopedSpan s(r.spans, "check");
    r.expect(digest == plainDigest,
             cell.name + ": per-step run diverged from NetSim::run");
}

/// Snapshot a cell mid-measurement, restore it into fresh builds and
/// require the restored continuation to match the uninterrupted one.
void
checkpointProbe(Run &r, const Cell &cell)
{
    ScopedSpan span(r.spans, "ckpt");
    PlainStepper plain;
    const Cycle at =
        cell.phases.warmup + cell.phases.measure * 9 / 10;
    CellRun orig = cell.build(false);
    {
        ScopedSpan s(r.spans, "run");
        runTo(cell, orig, at, plain);
    }
    std::string snapshot;
    std::vector<double> saves, restores;
    for (int i = 0; i < 3; ++i) {
        ScopedSpan s(r.spans, "ckpt.save");
        const auto t0 = Clock::now();
        std::ostringstream os;
        orig.sim->saveCheckpoint(os);
        snapshot = os.str();
        saves.push_back(since(t0) * 1e3);
    }
    CellRun restored;
    bool ok = true;
    std::string err;
    for (int i = 0; i < 3; ++i) {
        {
            ScopedSpan s(r.spans, "construct");
            restored = cell.build(false);
            resyncForRestore(cell, restored, at);
        }
        ScopedSpan s(r.spans, "ckpt.restore");
        std::istringstream is(snapshot);
        const auto t0 = Clock::now();
        ok = restored.sim->restoreCheckpoint(is, &err) && ok;
        restores.push_back(since(t0) * 1e3);
    }
    r.expect(ok, cell.name + ": restore failed: " + err);
    {
        ScopedSpan s(r.spans, "run");
        runTo(cell, orig, cell.cycles(), plain);
        if (ok)
            runTo(cell, restored, cell.cycles(), plain);
    }
    ScopedSpan s(r.spans, "check");
    r.expect(ok && metricsDigest(orig.sim->metrics()) ==
                       metricsDigest(restored.sim->metrics()),
             cell.name + ": restored run diverged");
    r.layers.saveMs = median(saves);
    r.layers.restoreMs = median(restores);
    r.layers.snapshotKb = static_cast<double>(snapshot.size()) / 1024.0;
}

/// fabric_1024: the same cell on the sharded engine, digest-checked.
void
shardTwin(Run &r, const Cell &cell, std::uint64_t serialDigest,
          double serialSec)
{
    ScopedSpan span(r.spans, "shard");
    const int shards = std::clamp(hardwareThreads(), 2, 4);
    r.threads = std::max(r.threads, shards);
    PlainStepper plain;
    CellRun run = cell.build(false);
    run.sim->configure({.shards = shards});
    double sec = 0.0;
    {
        ScopedSpan s(r.spans, "run");
        const auto t0 = Clock::now();
        runTo(cell, run, cell.cycles(), plain);
        sec = since(t0);
    }
    ScopedSpan s(r.spans, "check");
    r.expect(metricsDigest(run.sim->metrics()) == serialDigest,
             cell.name + ": shards=" + std::to_string(shards) +
                 " digest differs from serial");
    r.layers.shardSpeedup = sec > 0.0 ? serialSec / sec : 0.0;
}

// ------------------------------------------------ simulation workloads

void
runSims(Run &r, const std::vector<Cell> &cells)
{
    const auto start = Clock::now();
    if (!r.opt.traced) {
        QuietCpu cpu;
        std::vector<std::uint64_t> first;
        do {
            std::vector<std::uint64_t> digests;
            cpu.settle();
            r.setups.push_back(setUpOnce(r, cells));
            r.units.nextPass();
            untracedPass(r, cells, digests);
            if (r.passes == 0)
                first = digests;
            else
                r.expect(digests == first,
                         strFormat("pass %d diverged from pass 1",
                                   r.passes + 1));
            ++r.passes;
        } while (r.keepGoing(start));
        return;
    }

    StepTimer timer(r.layers);
    {
        QuietCpu cpu;
        do {
            ScopedSpan ps(r.spans, "pass");
            cpu.settle();
            r.setups.push_back(setUpOnce(r, cells));
            for (const Cell &cell : cells)
                tracedCell(r, cell, timer);
            ++r.passes;
        } while (r.keepGoing(start));
    }
    checkpointProbe(r, cells.back());
    if (cells.front().kind == CellKind::Fabric) {
        const Cell &fabric = cells.front();
        shardTwin(r, fabric, r.digests[fabric.name],
                  r.layers.plainSec / r.passes);
    }
}

// ---------------------------------------------------------------- sweeps

/// SweepRunner::run into `cache`, then toJson: what `sweep_cli cache=DIR
/// out=FILE` does. The two calls are the pass's timed units; the run is
/// the one sim_cycles_per_s counts.
struct SweepCall {
    SweepResult result;
    std::string json;
    double runSec = 0.0;
    double jsonSec = 0.0;
};

SweepCall
sweepCall(Run &r, const SweepRunner &runner, const SweepSpec &spec,
          CellCache &cache, const char *span)
{
    SweepCall c;
    {
        ScopedSpan s(r.spans, span);
        const auto t0 = Clock::now();
        c.result = runner.run(spec, &cache);
        c.runSec = since(t0);
    }
    {
        ScopedSpan s(r.spans, "json.emit");
        const auto t0 = Clock::now();
        c.json = c.result.toJson();
        c.jsonSec = since(t0);
    }
    r.units.add(c.runSec, true);
    r.units.add(c.jsonSec, false);
    r.layers.jsonMs.push_back(c.jsonSec * 1e3);
    r.layers.jsonBytes = static_cast<double>(c.json.size());
    return c;
}

/// An empty cell cache in its own directory under work=.
CellCache
emptyCache(const Run &r, const char *name)
{
    const fs::path dir = fs::path(r.opt.work) / name;
    fs::remove_all(dir);
    return CellCache(dir.string());
}

/// Time CellCache::store and ::load directly on every cell of a result.
void
cacheProbe(Run &r, const SweepResult &cold)
{
    Layers &l = r.layers;
    const CellCache cache = emptyCache(r, "probe");
    bool ok = true;
    for (const CellResult &cell : cold.cells) {
        ScopedSpan s(r.spans, "cache.store");
        const auto t0 = Clock::now();
        ok = cache.store(cell.spec, cell) && ok;
        l.storeUs.push_back(since(t0) * 1e6);
    }
    for (const CellResult &cell : cold.cells) {
        ScopedSpan s(r.spans, "cache.load");
        CellResult back;
        const auto t0 = Clock::now();
        ok = cache.load(cell.spec, back) && back.metrics == cell.metrics && ok;
        l.loadUs.push_back(since(t0) * 1e6);
    }
    r.expect(ok, "cache store/load did not round-trip every cell");
    fs::remove_all(cache.dir());
}

/// sweep_fig4: every pass sets up (constructs the grid's sims), then runs
/// the grid cold into an empty cache.
void
runSweep(Run &r, const SweepSpec &spec, const std::vector<Cell> &cells)
{
    r.threads = std::min(hardwareThreads(), 4);
    const SweepRunner runner(r.threads);
    if (r.opt.traced && r.opt.scale == 1.0) {
        // The model check: the nightly fig4 grid at paper scale, which
        // run.py compares with bench/nightly_ref/fig4.json.
        ScopedSpan s(r.spans, "model");
        const SweepResult paper =
            runner.run(fig4Spec(TrafficPattern::UniformRandom, fig4Rates()));
        r.modelSweep = (fs::path(r.opt.work) / "model_fig4.json").string();
        r.expect(paper.writeJson(r.modelSweep), "cannot write model sweep");
    }

    const auto start = Clock::now();
    std::string first;
    do {
        ScopedSpan ps(r.spans, "pass");
        r.setups.push_back(setUpOnce(r, cells));
        r.units.nextPass();
        CellCache cache = emptyCache(r, "cache");
        const SweepCall c = sweepCall(r, runner, spec, cache, "sweep.cold");
        r.layers.coldSec.push_back(c.runSec);
        r.layers.misses = static_cast<double>(c.result.cacheMisses);
        {
            ScopedSpan s(r.spans, "check");
            r.expect(c.result.cacheMisses == cells.size() &&
                         c.result.cacheHits == 0,
                     "cold sweep hit a cache that should be empty");
            if (r.passes == 0) {
                first = c.json;
                r.digests["sweep_json"] = fnv1a(c.json);
            } else {
                r.expect(c.json == first,
                         strFormat("pass %d JSON diverged from pass 1",
                                   r.passes + 1));
            }
            fs::remove_all(cache.dir());
        }
        if (r.opt.traced && r.passes == 0) {
            // Once per run: every cell of the grid stepped serially.
            StepTimer timer(r.layers);
            for (const Cell &cell : cells)
                tracedCell(r, cell, timer);
        }
        ++r.passes;
    } while (r.keepGoing(start));

    if (r.opt.traced) {
        Layers &l = r.layers;
        double serialSec = 0.0;
        for (double ms : l.cellMs)
            serialSec += ms / 1e3;
        l.poolEfficiency = serialSec / (median(l.coldSec) * r.threads);
        checkpointProbe(r, cells.back());
    }
}

/// sweep_cached: set up by filling an empty cache with the cold sweep,
/// three times, then rerun the grid against the full cache — every cell
/// a hit — in a closed loop.
void
runCachedSweep(Run &r, const SweepSpec &spec, std::size_t cellCount)
{
    r.threads = std::min(hardwareThreads(), 4);
    const SweepRunner runner(r.threads);
    CellCache cache = emptyCache(r, "cache");
    SweepResult filled;
    for (int i = 0; i < 3; ++i) {
        ScopedSpan s(r.spans, "setup");
        cache = emptyCache(r, "cache");
        const auto t0 = Clock::now();
        filled = runner.run(spec, &cache);
        r.setups.push_back(since(t0));
    }
    const std::string cold = filled.toJson();
    if (r.opt.traced)
        cacheProbe(r, filled);

    const auto start = Clock::now();
    QuietCpu cpu;
    do {
        ScopedSpan ps(r.spans, "pass");
        cpu.settle();
        r.units.nextPass();
        const SweepCall c = sweepCall(r, runner, spec, cache, "sweep.cached");
        r.layers.rerunMs.push_back((c.runSec + c.jsonSec) * 1e3);
        r.layers.hits = static_cast<double>(c.result.cacheHits);
        ScopedSpan s(r.spans, "check");
        r.expect(c.result.cacheHits == cellCount &&
                     c.result.cacheMisses == 0,
                 strFormat("cached sweep scored %zu misses",
                           c.result.cacheMisses));
        r.expect(c.json == cold, "cached sweep JSON differs from cold");
        if (r.passes == 0)
            r.digests["sweep_json"] = fnv1a(c.json);
        ++r.passes;
    } while (r.keepGoing(start));
    fs::remove_all(cache.dir());
}

// ------------------------------------------------------------- metrics

void
putLayerMetrics(Run &r)
{
    const Layers &l = r.layers;
    const auto rateOf = [](const std::map<std::string, Rate> &m,
                           const std::string &key) {
        const auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second.perSec();
    };
    const auto ratio = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };

    r.put("sim.step_ns_p50", l.steps.quantile(0.50));
    r.put("sim.step_ns_p99", l.steps.quantile(0.99));
    r.put("sim.active_routers_mean", ratio(l.sampledActive, l.samples));
    r.put("sim.ns_per_active_router", ratio(l.sampledNs, l.sampledActive));
    r.put("sim.trace_overhead", ratio(l.stepped.sum(), l.plain.sum()));
    r.put("topo.build_ms", l.buildMs);
    r.put("topo.hot_arena_kb", l.hotArenaKb);
    for (TopologyKind t : kAllTopologies) {
        r.put(std::string("topo.cycles_per_s.") + topologyName(t),
              rateOf(l.byTopo, topologyName(t)));
    }
    for (QosMode m : kAllQosModes) {
        r.put(std::string("qos.cycles_per_s.") + qosModeName(m),
              rateOf(l.byMode, qosModeName(m)));
    }
    r.put("qos.preemptions", l.preemptions);
    r.put("qos.useful_hop_frac",
          ratio(l.usefulHops, l.usefulHops + l.wastedHops));
    r.put("router.delivered_flits_per_s", ratio(l.deliveredFlits, l.plainSec));
    r.put("router.injected_attempts", l.injectedAttempts);
    r.put("traffic.generated_flits", l.generatedFlits);
    for (const char *kind : {"steady", "bursty", "churn"})
        r.put(std::string("traffic.cycles_per_s.") + kind,
              rateOf(l.byTraffic, kind));
    r.put("chip.churn_epochs", l.churnEpochs);
    r.put("shard.s4_speedup", l.shardSpeedup);
    r.put("ckpt.save_ms", l.saveMs);
    r.put("ckpt.restore_ms", l.restoreMs);
    r.put("ckpt.snapshot_kb", l.snapshotKb);
    r.put("exp.cell_ms_p50", median(l.cellMs));
    r.put("exp.cell_ms_max",
          l.cellMs.empty() ? 0.0
                           : *std::max_element(l.cellMs.begin(),
                                               l.cellMs.end()));
    r.put("exp.pool_efficiency", l.poolEfficiency);
    r.put("cache.load_us_p50", median(l.loadUs));
    r.put("cache.store_us_p50", median(l.storeUs));
    r.put("cache.hits", l.hits);
    r.put("cache.misses", l.misses);
    r.put("cache.rerun_ms", median(l.rerunMs));
    r.put("json.emit_ms", median(l.jsonMs));
    r.put("json.bytes", l.jsonBytes);
    r.put("verify.record_overhead", ratio(l.plain.sum(), l.bare.sum()));
    r.put("verify.serialize_mb_per_s",
          ratio(l.traceBytes / 1e6, l.serializeSec));
    r.put("verify.parse_mb_per_s", ratio(l.traceBytes / 1e6, l.parseSec));
    r.put("verify.check_events_per_s", ratio(l.traceEvents, l.verifySec));
    r.put("verify.bytes_per_event", ratio(l.traceBytes, l.traceEvents));
}

Run
runWorkload(const Options &opt)
{
    Run r(opt);
    fs::create_directories(opt.work);
    double cycles = 0.0;
    {
        ScopedSpan root(r.spans, "workload");
        const SweepSpec spec = fig4BenchSpec(opt.seed, opt.scale);
        std::vector<Cell> cells;
        if (opt.workload == "sweep_fig4" || opt.workload == "sweep_cached") {
            for (const CellSpec &c : spec.expand())
                cells.push_back(columnCellOf(c));
        } else {
            cells = workloadCells(opt.workload, opt.seed, opt.scale);
        }
        for (const Cell &cell : cells)
            cycles += static_cast<double>(cell.cycles());
        if (opt.workload == "sweep_cached") {
            runCachedSweep(r, spec, cells.size());
        } else {
            warmUp(r, cells);
            if (opt.workload == "sweep_fig4")
                runSweep(r, spec, cells);
            else
                runSims(r, cells);
            r.layers.buildMs =
                median(r.setups) * 1e3 / static_cast<double>(cells.size());
        }
    }
    if (opt.traced) {
        putLayerMetrics(r);
    } else {
        r.put("sim_cycles_per_s", cycles / r.units.simSec());
        r.put("pass_s", r.units.totalSec());
        r.put("setup_s", median(r.setups));
    }
    return r;
}

std::string
resultJson(const Run &r)
{
    JsonWriter w;
    w.beginObject();
    w.field("workload", r.opt.workload);
    w.field("seed", r.opt.seed);
    w.field("traced", r.opt.traced);
    w.field("threads", r.threads);
    w.field("passes", r.passes);
    w.field("attempted", r.attempted);
    w.beginArray("failures");
    for (const auto &f : r.failures)
        w.value(f);
    w.endArray();
    w.beginObject("digests");
    for (const auto &[name, d] : r.digests)
        w.field(name, hex(d));
    w.endObject();
    w.beginObject("metrics");
    for (const auto &[name, v] : r.metrics)
        w.field(name, v);
    w.endObject();
    w.field("model_sweep", r.modelSweep);
    w.beginArray("spans");
    for (const Span &s : r.spans.spans()) {
        w.beginObject();
        w.field("name", s.name);
        w.field("parent", s.parent);
        w.field("start_us", s.startUs);
        w.field("end_us", s.endUs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

// ---------------------------------------------------------------- smoke

/// Schema and cross-check problems of one run (empty when clean).
std::vector<std::string>
smokeProblems(const Run &r)
{
    std::vector<std::string> bad = r.failures;
    if (r.attempted < 1)
        bad.push_back("no checks attempted");
    if (r.digests.empty())
        bad.push_back("no digests");
    std::map<std::string, double> got(r.metrics.begin(), r.metrics.end());
    if (got.size() != r.metrics.size())
        bad.push_back("duplicate metric names");
    const std::vector<std::string> want =
        r.opt.traced ? layerMetricNames() : kEndToEndMetrics;
    if (got.size() != want.size())
        bad.push_back(strFormat("%zu metrics, want %zu", got.size(),
                                want.size()));
    for (const std::string &name : want) {
        const auto it = got.find(name);
        if (it == got.end())
            bad.push_back("missing metric " + name);
        else if (!std::isfinite(it->second) || it->second < 0.0 ||
                 (!r.opt.traced && it->second == 0.0))
            bad.push_back(strFormat("metric %s = %g", name.c_str(),
                                    it->second));
    }
    const auto &spans = r.spans.spans();
    if (r.opt.traced && (spans.empty() || spans[0].parent != -1))
        bad.push_back("no root span");
    for (const Span &s : spans) {
        if (s.endUs < s.startUs)
            bad.push_back("span " + s.name + " ends before it starts");
        if (s.parent >= 0) {
            const Span &p = spans[static_cast<std::size_t>(s.parent)];
            if (s.startUs < p.startUs || s.endUs > p.endUs)
                bad.push_back("span " + s.name + " escapes " + p.name);
        }
    }
    return bad;
}

int
runSmoke(const std::string &work)
{
    int failed = 0;
    for (const std::string &name : workloadNames()) {
        for (bool traced : {false, true}) {
            Options o;
            o.workload = name;
            o.seconds = 0.0;
            o.traced = traced;
            o.work = work;
            o.scale = 0.02;
            const auto t0 = Clock::now();
            const Run r = runWorkload(o);
            const std::vector<std::string> bad = smokeProblems(r);
            std::printf("%-12s traced=%d  %3d checks  %.2f s  %s\n",
                        name.c_str(), traced ? 1 : 0, r.attempted,
                        since(t0), bad.empty() ? "ok" : "FAIL");
            for (const std::string &b : bad)
                std::printf("    %s\n", b.c_str());
            failed += bad.empty() ? 0 : 1;
        }
    }
    return failed == 0 ? 0 : 1;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "taqos_bench: %s\n"
                 "usage: taqos_bench workload=NAME out=FILE [seed=S] "
                 "[seconds=T] [traced=0|1] [work=DIR]\n"
                 "       taqos_bench smoke=1 [work=DIR]\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    for (const auto &[key, value] : opts.raw()) {
        (void)value;
        if (key != "workload" && key != "seed" && key != "seconds" &&
            key != "traced" && key != "out" && key != "work" &&
            key != "smoke")
            usage("unknown option '" + key + "'");
    }
    Options o;
    o.work = opts.get("work", o.work);
    if (opts.getBool("smoke", false))
        return runSmoke(o.work);

    o.workload = opts.get("workload", "");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("unknown workload '" + o.workload + "'");
    const std::string seed = opts.get("seed", std::to_string(kDefaultSeed));
    char *end = nullptr;
    o.seed = std::strtoull(seed.c_str(), &end, 10);
    if (seed.empty() || *end != '\0')
        usage("bad seed '" + seed + "'");
    o.seconds = opts.getDouble("seconds", o.seconds);
    if (!(o.seconds >= 0.0))
        usage("bad seconds");
    o.traced = opts.getBool("traced", false);
    o.out = opts.get("out", "");
    if (o.out.empty())
        usage("out= is required");
    if (o.traced) {
        // Keep freed heap memory in the process, so that the twins of a
        // traced cell meet the same allocator: otherwise glibc returns a
        // recorder's large buffers to the kernel or not depending on what
        // ran before, and page faults decide which twin looks faster.
        // Untraced runs keep the default allocator, as users do.
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    }

    return writeTextFile(o.out, resultJson(runWorkload(o))) ? 0 : 1;
}
