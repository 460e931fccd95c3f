/// Trace format round-trip: record a live run, serialize it, parse it
/// back, and require the identical event stream — including the
/// preemption-heavy adversarial workload 1, whose kill/requeue/replay
/// chains exercise every event kind. Also: the recorder writes a run into
/// one buffer, never moving it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/column_sim.h"
#include "sim/trace_record.h"
#include "traffic/workloads.h"
#include "verify/checker.h"

namespace taqos {
namespace {

std::uint64_t
countKind(const FlitTrace &trace, TraceEventKind kind)
{
    return static_cast<std::uint64_t>(
        std::count_if(trace.events.begin(), trace.events.end(),
                      [kind](const TraceEvent &e) {
                          return e.kind == kind;
                      }));
}

TEST(TraceRoundTrip, UniformRunIsIdenticalAfterReparse)
{
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    col.canonicalize();
    TrafficConfig t;
    t.injectionRate = 0.05;
    t.genUntil = 4000;

    ColumnSim sim(col, t);
    sim.setMeasureWindow(1000, 4000);
    TraceRecorder rec(describeColumn(sim.cfg()));
    rec.setMeasureWindow(1000, 4000);
    sim.attachTraceSink(&rec);
    ASSERT_NE(sim.runUntilDrained(60000, 4000), kNoCycle);
    rec.finish(sim.now(), sim.drained());

    const FlitTrace &orig = rec.trace();
    ASSERT_GT(orig.events.size(), 0u);

    const std::string text = serializeFlitTrace(orig);
    FlitTrace parsed;
    std::string error;
    ASSERT_TRUE(parseFlitTrace(text, parsed, error)) << error;
    EXPECT_EQ(parsed.meta, orig.meta);
    EXPECT_EQ(parsed.ports, orig.ports);
    ASSERT_EQ(parsed.events.size(), orig.events.size());
    EXPECT_TRUE(parsed == orig);

    // A second serialize pass is byte-identical (canonical form).
    EXPECT_EQ(serializeFlitTrace(parsed), text);
}

TEST(TraceRoundTrip, PreemptionHeavyWorkload1IsIdenticalAfterReparse)
{
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    col.canonicalize();
    TrafficConfig t = makeWorkload1(col);
    t.genUntil = 20000;

    ColumnSim sim(col, t);
    TraceRecorder rec(describeColumn(sim.cfg()));
    sim.attachTraceSink(&rec);
    ASSERT_NE(sim.runUntilDrained(400000, 20000), kNoCycle);
    rec.finish(sim.now(), sim.drained());

    const FlitTrace &orig = rec.trace();
    // The adversarial workload must actually preempt: kills, NACK
    // requeues and replayed injections all appear in the stream.
    EXPECT_GT(countKind(orig, TraceEventKind::Kill), 0u);
    EXPECT_GT(countKind(orig, TraceEventKind::Requeue), 0u);

    const std::string text = serializeFlitTrace(orig);
    FlitTrace parsed;
    std::string error;
    ASSERT_TRUE(parseFlitTrace(text, parsed, error)) << error;
    EXPECT_TRUE(parsed == orig);

    // And the reparsed stream checks out under the full audit: every
    // preemption the engine performed respected the PVC quota.
    const CheckReport report = verifyTrace(parsed);
    EXPECT_TRUE(report.ok()) << report.firstDiagnostic();
}

/// The recorder reserves nothing until its first event, then writes the
/// whole run into the buffer that event reserved: events are never
/// copied to grow it, so recording costs the same in every run.
TEST(TraceRecorder, RecordsTheRunIntoTheBufferItsFirstEventReserved)
{
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    col.canonicalize();
    TrafficConfig t;
    t.injectionRate = 0.05;
    t.genUntil = 4000;

    ColumnSim sim(col, t);
    TraceRecorder rec(describeColumn(sim.cfg()));
    sim.attachTraceSink(&rec);
    EXPECT_EQ(rec.trace().events.capacity(), 0u);
    while (rec.trace().events.empty())
        sim.step();
    const TraceEvent *buffer = rec.trace().events.data();

    ASSERT_NE(sim.runUntilDrained(60000, 4000), kNoCycle);
    EXPECT_GT(rec.trace().events.size(), 10000u);
    EXPECT_EQ(rec.trace().events.data(), buffer);
}

} // namespace
} // namespace taqos
