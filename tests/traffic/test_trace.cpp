#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mutants.h"
#include "sim/column_sim.h"
#include "traffic/trace.h"

namespace taqos {
namespace {

ColumnConfig
defaultCol()
{
    ColumnConfig col;
    col.canonicalize();
    return col;
}

TEST(Trace, RecordMatchesGeneratorVolume)
{
    const ColumnConfig col = defaultCol();
    TrafficConfig t;
    t.injectionRate = 0.05;
    t.seed = 99;
    const TrafficTrace trace = TrafficTrace::record(col, t, 10000);
    EXPECT_GT(trace.size(), 0u);
    // ~64 injectors * 0.05/2.5 packets/cycle * 10000 cycles.
    EXPECT_NEAR(static_cast<double>(trace.size()), 64 * 0.02 * 10000,
                0.1 * 64 * 0.02 * 10000);
    EXPECT_LE(trace.lastCycle(), 9999u);
}

TEST(Trace, EntriesOrderedAndValid)
{
    const ColumnConfig col = defaultCol();
    TrafficConfig t;
    t.pattern = TrafficPattern::Tornado;
    t.injectionRate = 0.04;
    const TrafficTrace trace = TrafficTrace::record(col, t, 5000);
    Cycle prev = 0;
    for (const auto &e : trace.entries()) {
        EXPECT_GE(e.cycle, prev);
        prev = e.cycle;
        EXPECT_GE(e.flow, 0);
        EXPECT_LT(e.flow, 64);
        EXPECT_EQ(e.dst, (col.nodeOfFlow(e.flow) + 4) % 8);
        EXPECT_TRUE(e.sizeFlits == 1 || e.sizeFlits == 4);
    }
}

TEST(Trace, CsvRoundTrip)
{
    TrafficTrace trace;
    trace.append(TraceEntry{0, 3, 5, 4});
    trace.append(TraceEntry{7, 60, 0, 1});
    trace.append(TraceEntry{7, 12, 2, 4});
    const auto parsed = TrafficTrace::fromCsv(trace.toCsv());
    ASSERT_TRUE(parsed.has_value());
    const TrafficTrace &back = *parsed;
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.entries()[0].cycle, 0u);
    EXPECT_EQ(back.entries()[1].flow, 60);
    EXPECT_EQ(back.entries()[2].dst, 2);
    EXPECT_EQ(back.entries()[2].sizeFlits, 4);
    EXPECT_EQ(back.totalFlits(), 9u);
}

TEST(Trace, ReplayReproducesGeneratorRunExactly)
{
    const ColumnConfig col = defaultCol();
    TrafficConfig t;
    t.injectionRate = 0.05;
    t.seed = 1234;
    t.genUntil = 8000;

    // Live generator run.
    ColumnSim live(col, t);
    live.setMeasureWindow(0, 8000);
    const Cycle doneLive = live.runUntilDrained(50000, 8000);

    // Record the same traffic, replay it through a fresh sim.
    const TrafficTrace trace = TrafficTrace::record(col, t, 8000);
    ColumnSim replay(col, trace);
    replay.setMeasureWindow(0, 8000);
    const Cycle doneReplay = replay.runUntilDrained(50000, 8000);

    EXPECT_EQ(doneLive, doneReplay);
    EXPECT_EQ(live.metrics().generatedPackets,
              replay.metrics().generatedPackets);
    EXPECT_EQ(live.metrics().deliveredFlits,
              replay.metrics().deliveredFlits);
    EXPECT_DOUBLE_EQ(live.metrics().latency.mean(),
                     replay.metrics().latency.mean());
    for (FlowId f = 0; f < col.numFlows(); ++f)
        EXPECT_EQ(live.metrics().flowFlits[static_cast<std::size_t>(f)],
                  replay.metrics().flowFlits[static_cast<std::size_t>(f)]);
}

TEST(Trace, ReplayAcrossTopologies)
{
    // One recorded workload, three fabrics: deliveries must be complete
    // everywhere (the workload is fabric-independent).
    ColumnConfig col = defaultCol();
    TrafficConfig t;
    t.injectionRate = 0.03;
    const TrafficTrace trace = TrafficTrace::record(col, t, 5000);
    for (auto kind :
         {TopologyKind::MeshX1, TopologyKind::Mecs, TopologyKind::Dps}) {
        col.topology = kind;
        ColumnSim sim(col, trace);
        const Cycle done = sim.runUntilDrained(60000, 5000);
        ASSERT_NE(done, kNoCycle) << topologyName(kind);
        EXPECT_EQ(sim.metrics().deliveredPackets, trace.size());
    }
}

TEST(Trace, ReplayerExhaustion)
{
    const ColumnConfig col = defaultCol();
    TrafficTrace trace;
    trace.append(TraceEntry{2, 8, 0, 1});
    ColumnSim sim(col, trace);
    sim.run(100);
    EXPECT_EQ(sim.metrics().generatedPackets, 1u);
    EXPECT_EQ(sim.metrics().deliveredPackets, 1u);
}

TEST(Trace, EmptyCsv)
{
    const auto trace = TrafficTrace::fromCsv("cycle,flow,dst,size\n");
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(trace->size(), 0u);
    EXPECT_EQ(trace->lastCycle(), 0u);
}

TEST(Trace, MalformedCsvIsDiagnosed)
{
    std::string err;
    // Wrong field count.
    EXPECT_FALSE(TrafficTrace::fromCsv("1,2,3\n", &err).has_value());
    EXPECT_EQ(err, "trace csv line 1: want 'cycle,flow,dst,size', got "
                   "'1,2,3'");
    // Non-numeric field (the old parser silently atoi'd this to 0).
    EXPECT_FALSE(
        TrafficTrace::fromCsv("cycle,flow,dst,size\n5,x,0,1\n", &err)
            .has_value());
    EXPECT_EQ(err, "trace csv line 2: bad flow 'x'");
    // Trailing garbage on a numeric field.
    EXPECT_FALSE(TrafficTrace::fromCsv("5,1,0,1junk\n", &err).has_value());
    EXPECT_EQ(err, "trace csv line 1: bad size '1junk'");
    // Out-of-order cycles (the ctor would have asserted; fromCsv
    // diagnoses instead).
    EXPECT_FALSE(
        TrafficTrace::fromCsv("9,1,0,1\n3,1,0,1\n", &err).has_value());
    EXPECT_EQ(err, "trace csv line 2: cycle 3 out of order (after 9)");
    // Zero-size packets are invalid.
    EXPECT_FALSE(TrafficTrace::fromCsv("5,1,0,0\n", &err).has_value());
    EXPECT_EQ(err, "trace csv line 1: bad size '0'");
}

TEST(Trace, FieldsPastIntAndOutsideTheColumnAreDiagnosed)
{
    std::string err;
    // A size past int replayed as its low 32 bits: 4294967297 as 1 flit.
    EXPECT_FALSE(TrafficTrace::fromCsv("0,3,1,4294967297\n", &err));
    EXPECT_EQ(err, "trace csv line 1: bad size '4294967297'");
    // A flow of 2^32 replayed as flow 0.
    EXPECT_FALSE(TrafficTrace::fromCsv("0,4294967296,1,1\n", &err));
    EXPECT_EQ(err, "trace csv line 1: bad flow '4294967296'");
    EXPECT_FALSE(TrafficTrace::fromCsv("0,1,2147483648,1\n", &err));
    EXPECT_EQ(err, "trace csv line 1: bad dst '2147483648'");
    // Fields fit, but not the column: rejected before any cycle runs
    // instead of aborting the replayer mid-run.
    const ColumnConfig col = defaultCol();
    EXPECT_TRUE(TrafficTrace::fromCsv("0,64,1,1\n", &err));
    EXPECT_FALSE(TrafficTrace::fromCsv("cycle,flow,dst,size\n0,64,1,1\n",
                                       &err, &col));
    EXPECT_EQ(err, "trace csv line 2: flow 64 outside the column's 64 flows");
    EXPECT_FALSE(TrafficTrace::fromCsv("0,63,8,1\n", &err, &col));
    EXPECT_EQ(err, "trace csv line 1: dst 8 outside the column's 8 nodes");
    EXPECT_TRUE(TrafficTrace::fromCsv("0,63,7,1\n", &err, &col));
    // No diagnosis echoes a control character; a CRLF ending is fine.
    EXPECT_FALSE(TrafficTrace::fromCsv(std::string("0,1,\0,1\n", 8), &err));
    EXPECT_EQ(err, "trace csv line 1: control character 0x00 at byte 4");
    EXPECT_FALSE(TrafficTrace::fromCsv("0,1\r,2,1\n", &err));
    EXPECT_EQ(err, "trace csv line 1: control character 0x0d at byte 3");
    EXPECT_TRUE(TrafficTrace::fromCsv("cycle,flow,dst,size\r\n0,1,2,1\r\n"));
}

/// Folds one CSV's load verdict into `verdicts` and returns whether it
/// loaded: a loaded trace fits the column and round-trips through toCsv;
/// a rejected one has a one-line diagnosis free of control characters.
bool
foldTraceVerdict(const std::string &csv, const ColumnConfig &col,
                 mutants::Fnv &verdicts)
{
    std::string err;
    const auto trace = TrafficTrace::fromCsv(csv, &err, &col);
    verdicts.u64(trace.has_value());
    if (!trace.has_value()) {
        EXPECT_FALSE(err.empty());
        for (const unsigned char c : err) {
            EXPECT_FALSE(std::iscntrl(c)) << err;
        }
        verdicts.str(err);
        return false;
    }
    const auto back = TrafficTrace::fromCsv(trace->toCsv(), nullptr, &col);
    EXPECT_TRUE(back.has_value());
    if (back.has_value()) {
        EXPECT_EQ(back->size(), trace->size());
    }
    for (const TraceEntry &e : trace->entries()) {
        EXPECT_TRUE(e.flow >= 0 && e.flow < col.numFlows());
        EXPECT_TRUE(e.dst >= 0 && e.dst < col.numNodes);
        EXPECT_GE(e.sizeFlits, 1);
        verdicts.u64(e.cycle);
        verdicts.i32(e.flow);
        verdicts.i32(e.dst);
        verdicts.i32(e.sizeFlits);
    }
    return true;
}

TEST(TraceCsv, MutantTracesLoadOrFailWithOneLine)
{
    const ColumnConfig col = defaultCol();
    TrafficConfig t;
    t.injectionRate = 0.05;
    t.seed = 321;
    const std::string base = TrafficTrace::record(col, t, 60).toCsv();

    // Values the writer never emits, in each field of one entry: int and
    // u64 boundaries, signs, empty fields, a CRLF ending and a NUL.
    std::vector<std::string> inputs = {"", "\n", "cycle,flow,dst,size",
                                       "\r\n", "0,1,2,3\r\n", ",,,",
                                       std::string("0,1,2,3\0", 8)};
    for (int field = 0; field < 4; ++field) {
        for (const std::string &v : std::vector<std::string>{
                 "2147483647", "2147483648", "4294967296", "4294967297",
              "18446744073709551615", "18446744073709551616", "-1", "+1",
              "", " 1 ", "0x10", "63", "64", "7", "8", "0",
                 std::string("1\0", 2), "1\r"}) {
            std::vector<std::string> f = {"5", "1", "2", "3"};
            f[static_cast<std::size_t>(field)] = v;
            inputs.push_back("cycle,flow,dst,size\n" + f[0] + "," + f[1] +
                             "," + f[2] + "," + f[3] + "\n");
        }
    }
    mutants::Fnv verdicts;
    std::size_t loaded = 0;
    for (const std::string &csv : inputs)
        loaded += foldTraceVerdict(csv, col, verdicts);
    EXPECT_EQ(inputs.size(), 79u);
    EXPECT_EQ(loaded, 31u);

    Rng rng(0x7ace7ace);
    std::size_t loadedMutants = 0;
    for (int i = 0; i < 3000; ++i)
        loadedMutants += foldTraceVerdict(mutants::mutate(base, rng), col,
                                          verdicts);
    EXPECT_EQ(loadedMutants, 717u);
    EXPECT_EQ(verdicts.h, 5728312972778609884ull);
}

} // namespace
} // namespace taqos
