/// The activity-driven engine: bit-identity with the always-tick
/// reference across every QOS policy (toggle equivalence), on the
/// preemption-heavy adversarial workload, on the whole-chip simulator
/// and on routers with more than 64 outputs (several words per output
/// bit set); the GSF frame-boundary/worklist interaction (a gated flow
/// must be re-admitted across quiet periods — the engine may never skip
/// the gate's per-cycle rollover, however idle the routers are); the
/// ejection due list's stale entries; and the consistency of the
/// incrementally-maintained activity state.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/experiments.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

/// Extended-form digest (noc/metrics.h): generation, injection, hop
/// accounting, deliveries, preemptions, latency and per-flow throughput.
std::uint64_t
runDigest(const NetSim &sim)
{
    return metricsDigest(sim.metrics());
}

/// Every router idle at drain implies an (eventually) empty worklist —
/// and the incremental counters must agree with a full rescan, which
/// checkInvariants asserts.
void
expectQuiescent(const NetSim &sim)
{
    sim.checkInvariants();
    const Network &net = sim.net();
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        EXPECT_FALSE(net.router(n)->hasWork()) << "router " << n;
    }
}

// ------------------------------------------------- toggle equivalence

struct ToggleCase {
    TopologyKind topology;
    QosMode mode;
};

class ToggleEquivalence : public ::testing::TestWithParam<ToggleCase> {};

TEST_P(ToggleEquivalence, EnginesAreBitIdenticalOnARandomWorkload)
{
    const ToggleCase &tc = GetParam();
    const RunPhases phases = testPhases();
    std::uint64_t digests[2] = {0, 0};
    for (int activity = 0; activity < 2; ++activity) {
        const ColumnConfig col = paperColumn(tc.topology, tc.mode);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.08;
        ColumnSim sim(col, traffic);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(phases.warmup, phases.measureEnd());
        sim.run(phases.total());
        sim.checkInvariants();
        digests[activity] = runDigest(sim);
    }
    EXPECT_EQ(digests[0], digests[1])
        << topologyName(tc.topology) << "/" << qosModeName(tc.mode);
}

std::vector<ToggleCase>
toggleCases()
{
    std::vector<ToggleCase> cases;
    for (auto kind : {TopologyKind::MeshX1, TopologyKind::Mecs,
                      TopologyKind::Dps}) {
        for (QosMode mode : kAllQosModes)
            cases.push_back(ToggleCase{kind, mode});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ToggleEquivalence, ::testing::ValuesIn(toggleCases()),
    [](const ::testing::TestParamInfo<ToggleCase> &info) {
        std::string n = std::string(topologyName(info.param.topology)) +
                        "_" + qosModeName(info.param.mode);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(ToggleEquivalence, PreemptionHeavyWorkloadMatches)
{
    // Workload 1 to completion: thousands of preemptions exercise the
    // kill/NACK/replay path, whose teardown dirties VCs and tables on
    // several routers at once.
    std::uint64_t digests[2] = {0, 0};
    Cycle done[2] = {0, 0};
    for (int activity = 0; activity < 2; ++activity) {
        ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
        TrafficConfig t = makeWorkload1(col);
        t.genUntil = 20000;
        ColumnSim sim(col, t);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 20000);
        done[activity] = sim.runUntilDrained(200000, 20000);
        ASSERT_NE(done[activity], kNoCycle);
        EXPECT_GT(sim.metrics().preemptionEvents, 1000u);
        digests[activity] = runDigest(sim);
        expectQuiescent(sim);
    }
    EXPECT_EQ(done[0], done[1]);
    EXPECT_EQ(digests[0], digests[1]);
}

TEST(ToggleEquivalence, WholeChipSimulationMatches)
{
    std::uint64_t digests[2] = {0, 0};
    std::uint64_t handoffs[2] = {0, 0};
    for (int activity = 0; activity < 2; ++activity) {
        ChipNetConfig cc;
        cc.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
        cc.column.pvc.frameLen = 2000;
        TrafficConfig t;
        t.pattern = TrafficPattern::UniformRandom;
        t.injectionRate = 0.05;
        t.genUntil = 5000;
        ChipSim sim(cc, t);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 5000);
        const Cycle done = sim.runUntilDrained(120000, 5000);
        ASSERT_NE(done, kNoCycle);
        digests[activity] = runDigest(sim);
        handoffs[activity] = sim.handoffs();
        expectQuiescent(sim);
    }
    EXPECT_GT(handoffs[1], 0u);
    EXPECT_EQ(handoffs[0], handoffs[1]);
    EXPECT_EQ(digests[0], digests[1]);
}

TEST(ToggleEquivalence, RoutersWithMoreThan64OutputsMatch)
{
    // A 72-node DPS column: each router has one subnet output per node,
    // so its output bits span two words and outputs 64..71 sit in the
    // second. Uniform traffic sends to every node.
    std::uint64_t digests[2] = {0, 0};
    Cycle done[2] = {0, 0};
    for (int activity = 0; activity < 2; ++activity) {
        ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::NoQos);
        col.numNodes = 72;
        TrafficConfig t;
        t.pattern = TrafficPattern::UniformRandom;
        t.injectionRate = 0.05;
        t.genUntil = 1500;
        ColumnSim sim(col, t);
        ASSERT_EQ(sim.net().router(0)->outputs().size(), 72u);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 1500);
        while (sim.now() < 1500) {
            sim.run(100);
            sim.checkInvariants();
        }
        done[activity] = sim.runUntilDrained(50000, 1500);
        ASSERT_NE(done[activity], kNoCycle);
        EXPECT_GT(sim.metrics().deliveredPackets, 5000u);
        digests[activity] = runDigest(sim);
        expectQuiescent(sim);
    }
    EXPECT_EQ(done[0], done[1]);
    EXPECT_EQ(digests[0], digests[1]);
}

// ------------------------------- GSF gate vs the idle-engine worklist

NetPacket *
enqueuePacket(ColumnSim &sim, FlowId flow, NodeId dst, int size)
{
    NetPacket *pkt = sim.pool().alloc();
    pkt->flow = flow;
    pkt->src = sim.cfg().nodeOfFlow(flow);
    pkt->dst = dst;
    pkt->sizeFlits = size;
    pkt->genCycle = sim.now();
    pkt->queuedCycle = sim.now();
    sim.metrics().generatedPackets++;
    sim.metrics().generatedFlits += static_cast<std::uint64_t>(size);
    sim.network().injector(flow).enqueue(pkt);
    return pkt;
}

TEST(GsfActivity, FrameRolloverReadmitsAGatedFlowAfterAQuietPeriod)
{
    // Six packets, each large enough to exhaust a whole per-frame budget,
    // are queued at once on one flow. Only `gsfFrames` of them can be
    // admitted up front; every later one sits gated at the source until
    // the gate's window advances — which happens inside the per-cycle
    // frame-boundary tick while the rest of the network is completely
    // idle. An engine that let the idle worklist skip that tick (or that
    // dropped a router whose only work is a gated source packet) would
    // stall here forever, on both sides of the toggle.
    Cycle done[2] = {0, 0};
    std::uint64_t digests[2] = {0, 0};
    for (int activity = 0; activity < 2; ++activity) {
        ColumnConfig col = paperColumn(TopologyKind::MeshX1, QosMode::Gsf);
        col.pvc.gsfFrameLen = 200;
        col.pvc.gsfFrames = 2;
        TrafficConfig quiet;
        quiet.injectionRate = 0.0; // no generated traffic at all
        ColumnSim sim(col, quiet);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 100000);

        // Budget per flow per frame: max(1, 200/64) = 3 flits, so each
        // 4-flit packet fills one frame window on its own.
        for (int i = 0; i < 6; ++i)
            enqueuePacket(sim, /*flow=*/0, /*dst=*/6, /*size=*/4);

        done[activity] = sim.runUntilDrained(100000, 1);
        ASSERT_NE(done[activity], kNoCycle) << "gated flow never re-admitted";
        EXPECT_EQ(sim.metrics().deliveredPackets, 6u);
        // The admissions really were serialized by the gate: six
        // one-per-frame packets admitted window-by-window (each waiting
        // for a predecessor's drain-driven reclamation) take several
        // traversal times, where an ungated burst would pipeline.
        EXPECT_GT(done[activity], static_cast<Cycle>(60));
        digests[activity] = runDigest(sim);
        expectQuiescent(sim);

        // Long fully-idle stretch (every router asleep), then one more
        // packet: the gate must have kept rolling its (now idle) frames
        // forward on the timer, so the new packet is admitted promptly.
        sim.run(10 * 200);
        NetPacket *late = enqueuePacket(sim, /*flow=*/1, /*dst=*/5,
                                        /*size=*/4);
        const Cycle t0 = sim.now();
        const Cycle doneLate = sim.runUntilDrained(5000, t0 + 1);
        ASSERT_NE(doneLate, kNoCycle);
        EXPECT_EQ(late->state, PacketState::Delivered);
        // Prompt: one network traversal, no extra frame-length stalls.
        EXPECT_LT(doneLate - t0, static_cast<Cycle>(200));
    }
    EXPECT_EQ(done[0], done[1]);
    EXPECT_EQ(digests[0], digests[1]);
}

// ------------------------------ stale entries of the ejection due list

TEST(EjectionDueList, APacketKilledMidEjectionLetsTheNextOneDeliverOnce)
{
    // Packets from nodes 1 and 2 of a MECS column race for node 0's
    // terminal. The first to stream into a terminal VC is killed one
    // cycle before its tail arrives, leaving its due entry behind; the
    // other, blocked on the same terminal channel until then, takes the
    // freed VC at the stale entry's cycle. The stale entry must find it
    // not yet arrived and deliver nothing; the packet is delivered once,
    // by its own entry, at its own tail cycle.
    for (bool activity : {true, false}) {
        const ColumnConfig col = paperColumn(TopologyKind::Mecs,
                                             QosMode::NoQos);
        TrafficConfig quiet;
        quiet.injectionRate = 0.0;
        ColumnSim sim(col, quiet);
        sim.configure({.activityDriven = activity});
        NetPacket *a = enqueuePacket(sim, col.flowOf(1, 0), 0, 4);
        NetPacket *b = enqueuePacket(sim, col.flowOf(2, 0), 0, 4);

        InputPort *term = sim.net().termPort(0);
        const auto heldBy = [&](const NetPacket *pkt) {
            for (std::size_t v = 0; v < term->vcs.size(); ++v) {
                if (term->vcs[v].packet() == pkt &&
                    term->vcs[v].state() ==
                        VirtualChannel::State::Reserved)
                    return static_cast<int>(v);
            }
            return -1;
        };
        while (heldBy(a) < 0 && heldBy(b) < 0 && sim.now() < 200)
            sim.step();
        NetPacket *victim = heldBy(a) >= 0 ? a : b;
        NetPacket *next = victim == a ? b : a;
        const int vc = heldBy(victim);
        ASSERT_GE(vc, 0);
        ASSERT_LT(heldBy(next), 0);
        const Cycle staleDue =
            term->vcs[static_cast<std::size_t>(vc)].tailArrival();
        while (sim.now() + 1 < staleDue)
            sim.step();

        AckNetwork ack;
        TickContext ctx;
        ctx.now = sim.now();
        ctx.ack = &ack;
        sim.net().router(0)->killPacket(victim, ctx);
        EXPECT_EQ(victim->state, PacketState::Dropped);
        sim.checkInvariants();

        Cycle nextTail = kNoCycle;
        while (next->state != PacketState::Delivered && sim.now() < 200) {
            sim.step();
            sim.checkInvariants();
            if (nextTail == kNoCycle && heldBy(next) >= 0) {
                EXPECT_EQ(heldBy(next), vc);
                EXPECT_EQ(sim.now() - 1, staleDue)
                    << "reserved in the stale entry's cycle";
                nextTail = term->vcs[static_cast<std::size_t>(vc)]
                               .tailArrival();
            }
        }
        ASSERT_EQ(next->state, PacketState::Delivered);
        EXPECT_GT(nextTail, staleDue);
        EXPECT_EQ(next->deliverCycle, nextTail);
        sim.run(20);
        EXPECT_EQ(sim.metrics().deliveredPackets, 1u);
        // The stale entry and the delivery, under the activity engine.
        EXPECT_EQ(sim.engineStats().ejections, activity ? 2u : 0u);
    }
}

} // namespace
} // namespace taqos
