/// Ablation A9 (ours): the dynamic-workload subsystem. Times one
/// DPS/PVC latency cell under each workload shape — steady (the
/// modulator-free fast path), ON/OFF bursty, diurnal ramp — plus the
/// tenant-churn consolidation cell.
///
/// Writes `BENCH_workload.json` (same schema as BENCH_micro.json) with
/// rows
///   workload_steady / workload_bursty / workload_ramp
///                         column-cell cycles per wall second
///   workload_churn        chip-churn-cell cycles per wall second
/// CI gates the absolute rates against bench/baseline.json; the binary
/// exits 1 when the churn cell fires no epoch.
///
/// Options: fast=1 (short runs), reps=N (default 5, fast 3),
///          json=<path> (default BENCH_workload.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"
#include "exp/json_writer.h"
#include "exp/sweep.h"

using namespace taqos;

namespace {

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

struct Row {
    std::string name;
    double cycles = 0.0;
    double wallSec = 0.0;
    CellResult result;
};

CellSpec
columnCell(const WorkloadSpec &w, const RunPhases &phases)
{
    CellSpec cell;
    cell.scenario = Scenario::LatencyLoad;
    cell.topology = TopologyKind::Dps;
    cell.mode = QosMode::Pvc;
    cell.rate = 0.05;
    cell.workloadSpec = w;
    cell.phases = phases;
    cell.seed = 0x7a05c0de;
    return cell;
}

/// Time the cell (best of `reps`).
Row
timeCell(const std::string &name, const CellSpec &cell, double cycles,
         int reps)
{
    Row row;
    row.name = name;
    row.cycles = cycles;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        row.result = SweepRunner::runCell(cell);
        const double sec = secondsSince(t0);
        row.wallSec = r == 0 ? sec : std::min(row.wallSec, sec);
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"fast", "reps", "json"});
    benchutil::header(
        "Dynamic-workload ablation: steady vs bursty vs ramp cells and "
        "the tenant-churn consolidation cell",
        "datacenter-style workloads over the Sec. 4/5 scenarios (ours)");

    const bool fast = opts.getBool("fast", false);
    const int reps = opts.getInt("reps", fast ? 3 : 5);

    RunPhases colPhases;
    colPhases.warmup = fast ? 500 : 2000;
    colPhases.measure = fast ? 2000 : 8000;
    colPhases.drain = fast ? 500 : 2000;

    WorkloadSpec bursty;
    bursty.kind = WorkloadKind::Bursty;
    WorkloadSpec ramp;
    ramp.kind = WorkloadKind::Ramp;
    ramp.rampPeriod = fast ? 1000 : 4000;
    WorkloadSpec churn;
    churn.kind = WorkloadKind::Churn;

    std::vector<Row> rows;
    const double colCycles = static_cast<double>(colPhases.total());
    rows.push_back(timeCell("workload_steady",
                            columnCell(WorkloadSpec{}, colPhases),
                            colCycles, reps));
    rows.push_back(timeCell("workload_bursty", columnCell(bursty, colPhases),
                            colCycles, reps));
    rows.push_back(
        timeCell("workload_ramp", columnCell(ramp, colPhases), colCycles,
                 reps));

    // Churn epochs land on QOS-frame boundaries (the paper's 50K-cycle
    // frame), so the cell must run past 100K cycles for the tenant mix
    // to actually change twice mid-run.
    CellSpec churnCell;
    churnCell.scenario = Scenario::ChipConsolidation;
    churnCell.topology = TopologyKind::Dps;
    churnCell.mode = QosMode::Pvc;
    churnCell.rate = 0.02;
    churnCell.workloadSpec = churn;
    churnCell.phases = fast ? RunPhases{500, 104500, 5000}
                            : RunPhases{2000, 148000, 8000};
    churnCell.seed = 0x7a05c0de;
    rows.push_back(timeCell("workload_churn", churnCell,
                            static_cast<double>(churnCell.phases.total()),
                            fast ? 1 : reps));
    if (rows.back().result.get("churn_epochs") < 1.0) {
        std::fprintf(stderr,
                     "workload_churn: no churn epoch fired (run too "
                     "short for the QOS frame)\n");
        return 1;
    }

    TextTable t;
    t.setHeader({"row", "cyc/s", "vs steady"});
    const double steadyRate = rows[0].cycles / rows[0].wallSec;
    for (const auto &row : rows) {
        const double rate = row.cycles / row.wallSec;
        t.addRow({row.name, benchutil::num(rate, 0),
                  strFormat("%.2fx", rate / steadyRate)});
    }
    std::printf("%s\n", t.render().c_str());

    const std::string json = opts.get("json", "BENCH_workload.json");
    JsonWriter w;
    w.beginObject();
    w.field("benchmark", "workload");
    w.beginObject("unit");
    w.field("simCyclesPerSec", "Hz");
    w.endObject();
    w.beginArray("results");
    for (const auto &row : rows) {
        w.beginObject();
        w.field("name", row.name);
        w.field("simCycles", row.cycles);
        w.field("wallMs", row.wallSec * 1e3);
        w.field("simCyclesPerSec", row.cycles / row.wallSec);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (!writeTextFile(json, w.str() + "\n"))
        return 1;
    std::printf("wrote %s\n", json.c_str());
    return 0;
}
