/// The dynamic-load machinery behind WorkloadSpec: the ON/OFF Markov
/// modulator (duty cycle, determinism, checkpoint words), the diurnal
/// triangle ramp, the deterministic trace-inflation + window transform
/// (thinning at x0.5 is a strict subset of x1), and the trace-file
/// loader's diagnoses.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "exp/json_writer.h"
#include "traffic/dynamic.h"
#include "traffic/generator.h"
#include "traffic/trace.h"

namespace taqos {
namespace {

WorkloadSpec
burstySpec(double on = 0.01, double off = 0.01, double gain = 4.0)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Bursty;
    spec.burstOn = on;
    spec.burstOff = off;
    spec.burstGain = gain;
    return spec;
}

/// Each kept entry as a comparable tuple (the transform may rebase
/// cycles, so identity is the full entry, not the index).
std::set<std::tuple<Cycle, FlowId, NodeId, int>>
entrySet(const TrafficTrace &trace)
{
    std::set<std::tuple<Cycle, FlowId, NodeId, int>> out;
    for (const auto &e : trace.entries())
        out.insert({e.cycle, e.flow, e.dst, e.sizeFlits});
    return out;
}

/// Bring every chain of `mod` to cycle `c`, as a generator visiting
/// every flow at every cycle would (the first call primes the chains).
void
advanceAll(OnOffModulator &mod, int flows, Cycle c, Cycle start = 0)
{
    if (c == start)
        mod.rebase(kNoCycle, start);
    for (FlowId f = 0; f < flows; ++f)
        mod.advance(f, c);
}

TEST(OnOffModulator, DutyCycleMatchesStationaryDistribution)
{
    // on == off -> the chain spends half its time ON in steady state.
    const int flows = 64;
    OnOffModulator mod(burstySpec(0.01, 0.01), flows, 42);
    std::uint64_t onCycles = 0;
    const int cycles = 50000;
    for (int c = 0; c < cycles; ++c) {
        advanceAll(mod, flows, static_cast<Cycle>(c));
        for (FlowId f = 0; f < flows; ++f)
            onCycles += mod.onState(f) ? 1 : 0;
    }
    const double duty =
        static_cast<double>(onCycles) / (static_cast<double>(cycles) * flows);
    EXPECT_NEAR(duty, 0.5, 0.05);
}

TEST(OnOffModulator, ScaleIsGainOnAndZeroOff)
{
    const WorkloadSpec spec = burstySpec(0.05, 0.05, 6.0);
    OnOffModulator mod(spec, 16, 7);
    for (int c = 0; c < 2000; ++c) {
        advanceAll(mod, 16, static_cast<Cycle>(c));
        for (FlowId f = 0; f < 16; ++f) {
            const double s = mod.scaleOf(f);
            EXPECT_DOUBLE_EQ(s, mod.onState(f) ? 6.0 : 0.0);
        }
    }
}

TEST(OnOffModulator, IndependentStreamsPerFlowAndSeed)
{
    // Same seed -> same trajectory; different seed -> different one.
    OnOffModulator a(burstySpec(), 32, 1);
    OnOffModulator b(burstySpec(), 32, 1);
    OnOffModulator c(burstySpec(), 32, 2);
    bool differs = false;
    for (int cyc = 0; cyc < 5000; ++cyc) {
        advanceAll(a, 32, static_cast<Cycle>(cyc));
        advanceAll(b, 32, static_cast<Cycle>(cyc));
        advanceAll(c, 32, static_cast<Cycle>(cyc));
        for (FlowId f = 0; f < 32; ++f) {
            ASSERT_EQ(a.onState(f), b.onState(f));
            differs = differs || a.onState(f) != c.onState(f);
        }
    }
    EXPECT_TRUE(differs);
}

TEST(OnOffModulator, PackUnpackResumesBitIdentically)
{
    OnOffModulator live(burstySpec(0.004, 0.02, 3.0), 48, 99);
    for (int c = 0; c < 1234; ++c)
        advanceAll(live, 48, static_cast<Cycle>(c));
    const auto words = live.packState(1234);
    EXPECT_FALSE(words.empty());

    OnOffModulator resumed(burstySpec(0.004, 0.02, 3.0), 48, 99);
    resumed.unpackState(words);
    EXPECT_EQ(resumed.packState(kNoCycle), words);
    for (int c = 1234; c < 4000; ++c) {
        advanceAll(live, 48, static_cast<Cycle>(c));
        advanceAll(resumed, 48, static_cast<Cycle>(c), 1234);
        for (FlowId f = 0; f < 48; ++f)
            ASSERT_EQ(live.onState(f), resumed.onState(f))
                << "cycle " << c << " flow " << f;
    }
}

TEST(RampModulator, TriangleWaveIsBoundedAndSymmetric)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Ramp;
    spec.rampLow = 0.2;
    spec.rampHigh = 1.8;
    spec.rampPeriod = 1000;

    EXPECT_DOUBLE_EQ(RampModulator::scaleAt(spec, 0), 0.2);
    EXPECT_DOUBLE_EQ(RampModulator::scaleAt(spec, 500), 1.8);
    EXPECT_DOUBLE_EQ(RampModulator::scaleAt(spec, 1000), 0.2);
    for (Cycle c = 0; c <= 3000; ++c) {
        const double s = RampModulator::scaleAt(spec, c);
        ASSERT_GE(s, 0.2);
        ASSERT_LE(s, 1.8);
        // Periodic, and the falling half mirrors the rising half.
        ASSERT_DOUBLE_EQ(s, RampModulator::scaleAt(spec, c + 1000));
    }
    EXPECT_DOUBLE_EQ(RampModulator::scaleAt(spec, 250),
                     RampModulator::scaleAt(spec, 750));

    // The scan takes each cycle's probability from the wave: at the
    // peak a unit rate reads p = 1, a packet without a draw.
    RampModulator mod(spec);
    Rng drawn(7);
    const Rng untouched = drawn;
    const Event peak = mod.scan(0, 1.0, drawn, 500, 600);
    EXPECT_TRUE(peak.hit);
    EXPECT_EQ(peak.at, 500u);
    EXPECT_EQ(drawn.state(), untouched.state());
    // Stateless: nothing to checkpoint.
    EXPECT_TRUE(mod.packState(kNoCycle).empty());
}

TEST(MakeRateModulator, OnlyModulatedKindsGetOne)
{
    WorkloadSpec spec;
    EXPECT_EQ(makeRateModulator(spec, 8, 1), nullptr);
    spec.kind = WorkloadKind::Bursty;
    EXPECT_NE(makeRateModulator(spec, 8, 1), nullptr);
    spec.kind = WorkloadKind::Ramp;
    EXPECT_NE(makeRateModulator(spec, 8, 1), nullptr);
    spec.kind = WorkloadKind::Churn;
    EXPECT_EQ(makeRateModulator(spec, 8, 1), nullptr);
}

TEST(ReplayWindow, ClipsAndRebasesToCycleZero)
{
    TrafficTrace trace;
    for (Cycle c = 0; c < 100; ++c)
        trace.append(TraceEntry{c, static_cast<FlowId>(c % 64),
                                static_cast<NodeId>(c % 8), 1});

    WorkloadSpec spec;
    spec.kind = WorkloadKind::Trace;
    spec.tracePath = "mem";
    spec.windowBegin = 10;
    spec.windowEnd = 20;

    const TrafficTrace windowed = applyReplayWindow(trace, spec);
    ASSERT_EQ(windowed.size(), 10u);
    for (std::size_t i = 0; i < windowed.size(); ++i) {
        EXPECT_EQ(windowed.entries()[i].cycle, static_cast<Cycle>(i));
        EXPECT_EQ(windowed.entries()[i].flow,
                  static_cast<FlowId>((i + 10) % 64));
    }
}

TEST(ReplayWindow, InflationIsDeterministicMonotoneThinning)
{
    TrafficTrace trace;
    for (Cycle c = 0; c < 4000; ++c)
        trace.append(TraceEntry{c, static_cast<FlowId>(c % 64),
                                static_cast<NodeId>(c % 8),
                                1 + static_cast<int>(c % 4)});

    WorkloadSpec spec;
    spec.kind = WorkloadKind::Trace;
    spec.tracePath = "mem";

    spec.inflate = 1.0;
    const auto full = entrySet(applyReplayWindow(trace, spec));
    EXPECT_EQ(full.size(), 4000u); // x1 keeps everything

    spec.inflate = 0.5;
    const auto half = entrySet(applyReplayWindow(trace, spec));
    spec.inflate = 0.25;
    const auto quarter = entrySet(applyReplayWindow(trace, spec));

    // Deterministic: the same spec thins to the same set every time.
    spec.inflate = 0.5;
    EXPECT_EQ(half, entrySet(applyReplayWindow(trace, spec)));

    // Thinning rate tracks the inflation factor.
    EXPECT_NEAR(static_cast<double>(half.size()), 2000.0, 200.0);
    EXPECT_NEAR(static_cast<double>(quarter.size()), 1000.0, 150.0);

    // Monotone: a lower factor keeps a strict subset of a higher one.
    EXPECT_TRUE(std::includes(full.begin(), full.end(), half.begin(),
                              half.end()));
    EXPECT_TRUE(std::includes(half.begin(), half.end(), quarter.begin(),
                              quarter.end()));
    EXPECT_LT(quarter.size(), half.size());
    EXPECT_LT(half.size(), full.size());
}

TEST(ReplayWindow, HalfInflationKeepsPinnedEntries)
{
    // The thinning hash is fixed, so a (trace, window, inflate) triple
    // replays the same entries on every machine and in every release.
    TrafficTrace trace;
    for (Cycle c = 0; c < 64; ++c)
        trace.append(TraceEntry{c, static_cast<FlowId>(c),
                                static_cast<NodeId>(c % 8), 1});

    WorkloadSpec spec;
    spec.kind = WorkloadKind::Trace;
    spec.tracePath = "mem";
    spec.inflate = 0.5;

    const TrafficTrace windowed = applyReplayWindow(trace, spec);
    std::vector<FlowId> kept;
    for (const TraceEntry &e : windowed.entries())
        kept.push_back(e.flow);
    EXPECT_EQ(kept, (std::vector<FlowId>{1,  4,  5,  7,  9,  10, 13, 15,
                                         16, 18, 19, 21, 26, 27, 37, 39,
                                         41, 43, 50, 51, 53, 54, 57}));
}

TEST(LoadTraceFile, ErrorsAreDiagnosed)
{
    ColumnConfig col;
    col.canonicalize();

    const std::string missing =
        ::testing::TempDir() + "no_such_trace.csv";
    std::string err;
    EXPECT_EQ(loadTraceFile(missing, &err, col), nullptr);
    EXPECT_EQ(err, missing + ": cannot open trace file");

    const std::string bad = ::testing::TempDir() + "dyn_bad_trace.csv";
    ASSERT_TRUE(writeTextFile(bad, "cycle,flow,dst,size\n5,x,0,1\n"));
    EXPECT_EQ(loadTraceFile(bad, &err, col), nullptr);
    EXPECT_EQ(err, bad + ": trace csv line 2: bad flow 'x'");
}

} // namespace
} // namespace taqos
