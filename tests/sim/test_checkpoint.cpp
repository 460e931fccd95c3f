/// Checkpoint/restore: mid-run save -> restore bit-identity across every
/// QOS policy, topology and engine, restoring under the same engine and
/// under the other one; trace continuity
/// across the checkpoint boundary (merged prefix+suffix trace
/// byte-identical to the uninterrupted run's and clean under the
/// independent checker); whole-chip and fabric round-trips; and
/// rejection of corrupt, truncated or mismatched streams with
/// diagnosable errors that leave the target untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "qos/pvc.h"
#include "sim/checkpoint.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "sim/engine_salt.h"
#include "sim/fabric_sim.h"
#include "sim/trace_record.h"
#include "traffic/workloads.h"
#include "verify/checker.h"

namespace taqos {
namespace {

std::uint64_t
runDigest(const NetSim &sim)
{
    return metricsDigest(sim.metrics());
}

TrafficConfig
uniformTraffic(double rate)
{
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = rate;
    return traffic;
}

/// Save `sim` into a string at its current cycle.
std::string
saveToString(const NetSim &sim)
{
    std::ostringstream os;
    sim.saveCheckpoint(os);
    return os.str();
}

bool
restoreFromString(NetSim &sim, const std::string &bytes, std::string *err)
{
    std::istringstream is(bytes);
    return sim.restoreCheckpoint(is, err);
}

// --------------------------------------------- full-matrix equivalence

struct CkptCase {
    TopologyKind topology;
    QosMode mode;
    bool activity; ///< engine the run is saved under
    int shards;    ///< EngineConfig::shards of the restoring sim
};

class CheckpointEquivalence : public ::testing::TestWithParam<CkptCase> {};

TEST_P(CheckpointEquivalence, MidRunRestoreIsBitIdentical)
{
    // One run saved mid-warmup and continued (saving is const, so this
    // is also the uninterrupted reference), one run restored from the
    // snapshot into a freshly built sim: digests must match exactly. An
    // s1 case restores under the saving engine; an s4 case restores under
    // the other engine with shards = 4, which the serial engine accepts
    // and ignores.
    const CkptCase &tc = GetParam();
    const bool cross = tc.shards > 1;
    const RunPhases phases = testPhases();
    const ColumnConfig col = paperColumn(tc.topology, tc.mode);
    const TrafficConfig traffic = uniformTraffic(0.08);

    ColumnSim ref(col, traffic);
    ref.configure({.activityDriven = tc.activity});
    ref.setMeasureWindow(phases.warmup, phases.measureEnd());
    ref.run(phases.warmup);
    const std::string bytes = saveToString(ref);
    ref.run(phases.total() - phases.warmup);
    ref.checkInvariants();
    const std::uint64_t want = runDigest(ref);

    ColumnSim sim(col, traffic);
    sim.configure({.activityDriven = tc.activity != cross,
                   .shards = tc.shards});
    sim.setMeasureWindow(phases.warmup, phases.measureEnd());
    std::string err;
    ASSERT_TRUE(restoreFromString(sim, bytes, &err)) << err;
    EXPECT_EQ(sim.now(), phases.warmup);
    sim.run(phases.total() - phases.warmup);
    sim.checkInvariants();
    EXPECT_EQ(runDigest(sim), want)
        << topologyName(tc.topology) << "/" << qosModeName(tc.mode)
        << (tc.activity ? "/event" : "/tick") << "/shards=" << tc.shards;
}

std::vector<CkptCase>
ckptCases()
{
    std::vector<CkptCase> cases;
    for (auto kind : {TopologyKind::MeshX1, TopologyKind::Mecs,
                      TopologyKind::Dps}) {
        for (QosMode mode : kAllQosModes) {
            for (bool activity : {true, false}) {
                cases.push_back(CkptCase{kind, mode, activity, 1});
                cases.push_back(CkptCase{kind, mode, activity, 4});
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CheckpointEquivalence, ::testing::ValuesIn(ckptCases()),
    [](const ::testing::TestParamInfo<CkptCase> &info) {
        std::string n = std::string(topologyName(info.param.topology)) +
                        "_" + qosModeName(info.param.mode) +
                        (info.param.activity ? "_event" : "_tick") +
                        "_s" + std::to_string(info.param.shards);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ---------------------------------------------- engine-neutral restore

TEST(CheckpointEngines, SavedUnderOneEngineRestoresUnderAnyOther)
{
    // A checkpoint carries structural state only; the restore target's
    // own engine configuration governs the continuation, and every
    // engine continues to the same digest.
    const RunPhases phases = testPhases();
    const ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    const TrafficConfig traffic = uniformTraffic(0.08);

    ColumnSim ref(col, traffic);
    ref.setMeasureWindow(phases.warmup, phases.measureEnd());
    ref.run(phases.warmup);
    const std::string bytes = saveToString(ref);
    ref.run(phases.total() - phases.warmup);
    const std::uint64_t want = runDigest(ref);

    for (bool activity : {true, false}) {
        ColumnSim sim(col, traffic);
        sim.configure({.activityDriven = activity});
        sim.setMeasureWindow(phases.warmup, phases.measureEnd());
        std::string err;
        ASSERT_TRUE(restoreFromString(sim, bytes, &err)) << err;
        sim.run(phases.total() - phases.warmup);
        sim.checkInvariants();
        EXPECT_EQ(runDigest(sim), want) << (activity ? "event" : "tick");
    }
}

// --------------------------------------------- trace continuity + audit

TEST(CheckpointTrace, MergedTraceIsByteIdenticalAndAuditsClean)
{
    // Record the uninterrupted run; then record the same run as a
    // prefix (up to the save) and a suffix (restored continuation).
    // Concatenating prefix and suffix events must serialize to the very
    // bytes of the uninterrupted trace, and that merged trace must pass
    // the independent checker's audit.
    ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    TrafficConfig t = makeWorkload1(col);
    t.genUntil = 6000;
    const Cycle saveAt = 3000;

    ColumnSim ref(col, t);
    ref.setMeasureWindow(0, 6000);
    TraceRecorder refRec(describeColumn(ref.cfg()));
    refRec.setMeasureWindow(0, 6000);
    ref.attachTraceSink(&refRec);
    ref.run(saveAt);
    const std::string bytes = saveToString(ref);
    const Cycle refDone = ref.runUntilDrained(100000, 6000);
    ASSERT_NE(refDone, kNoCycle);
    refRec.finish(ref.now(), ref.drained());
    const std::string wantTrace = serializeFlitTrace(refRec.trace());

    // Prefix: a second instrumented run up to the save cycle.
    ColumnSim pre(col, t);
    pre.setMeasureWindow(0, 6000);
    TraceRecorder preRec(describeColumn(pre.cfg()));
    preRec.setMeasureWindow(0, 6000);
    pre.attachTraceSink(&preRec);
    pre.run(saveAt);

    // Suffix: restore and continue with a fresh recorder.
    ColumnSim sim(col, t);
    sim.setMeasureWindow(0, 6000);
    TraceRecorder sufRec(describeColumn(sim.cfg()));
    sufRec.setMeasureWindow(0, 6000);
    sim.attachTraceSink(&sufRec);
    std::string err;
    ASSERT_TRUE(restoreFromString(sim, bytes, &err)) << err;
    const Cycle done = sim.runUntilDrained(100000, 6000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(done, refDone);
    sufRec.finish(sim.now(), sim.drained());

    // Merge: the suffix's sealed meta (end cycle, drained flag), the
    // shared port table, prefix events then suffix events.
    FlitTrace merged;
    merged.meta = sufRec.trace().meta;
    merged.ports = preRec.trace().ports;
    merged.events = preRec.trace().events;
    merged.events.insert(merged.events.end(),
                         sufRec.trace().events.begin(),
                         sufRec.trace().events.end());

    EXPECT_EQ(serializeFlitTrace(merged), wantTrace);
    const CheckReport report = verifyTrace(merged);
    EXPECT_TRUE(report.ok()) << report.firstDiagnostic();
    EXPECT_GT(report.eventsChecked, 100u);
}

// ------------------------------------------------ chip and fabric sims

TEST(CheckpointChip, WholeChipRoundTripMatches)
{
    ChipNetConfig cc;
    cc.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    cc.column.pvc.frameLen = 2000;
    TrafficConfig t = uniformTraffic(0.05);
    t.genUntil = 5000;

    ChipSim ref(cc, t);
    ref.setMeasureWindow(0, 5000);
    ref.run(3000);
    const std::string bytes = saveToString(ref);
    const Cycle refDone = ref.runUntilDrained(120000, 5000);
    ASSERT_NE(refDone, kNoCycle);
    EXPECT_GT(ref.handoffs(), 0u);

    ChipSim sim(cc, t);
    sim.setMeasureWindow(0, 5000);
    std::string err;
    ASSERT_TRUE(restoreFromString(sim, bytes, &err)) << err;
    EXPECT_EQ(sim.now(), 3000u);
    const Cycle done = sim.runUntilDrained(120000, 5000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(done, refDone);
    EXPECT_EQ(runDigest(sim), runDigest(ref));
    EXPECT_EQ(sim.handoffs(), ref.handoffs());
    sim.checkInvariants();
}

TEST(CheckpointFabric, TwoChipFabricRoundTripMatches)
{
    FabricSpec spec;
    spec.chips = 2;
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    spec.column.pvc.frameLen = 2000;
    TrafficConfig t = uniformTraffic(0.05);
    t.genUntil = 5000;

    FabricSim ref(spec, t);
    ref.setMeasureWindow(1000, 5000);
    ref.run(3000);
    const std::string bytes = saveToString(ref);
    const Cycle refDone = ref.runUntilDrained(200000, 5000);
    ASSERT_NE(refDone, kNoCycle);
    EXPECT_GT(ref.linkHops(), 0u);

    FabricSim sim(spec, t);
    sim.setMeasureWindow(1000, 5000);
    std::string err;
    ASSERT_TRUE(restoreFromString(sim, bytes, &err)) << err;
    const Cycle done = sim.runUntilDrained(200000, 5000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(done, refDone);
    EXPECT_EQ(runDigest(sim), runDigest(ref));
    EXPECT_EQ(sim.handoffs(), ref.handoffs());
    EXPECT_EQ(sim.linkHops(), ref.linkHops());
    sim.checkInvariants();
}

// ------------------------------------------------- header + validation

TEST(CheckpointHeader, InfoIsReadableWithoutASimulation)
{
    const ColumnConfig col = paperColumn(TopologyKind::MeshX1, QosMode::Wrr);
    ColumnSim sim(col, uniformTraffic(0.08));
    sim.configure({.activityDriven = false});
    sim.run(2000);
    const std::string bytes = saveToString(sim);

    std::istringstream is(bytes);
    const CheckpointInfo info = readCheckpointInfo(is);
    EXPECT_EQ(info.version, kCheckpointVersion);
    EXPECT_EQ(info.salt, kEngineSalt);
    EXPECT_EQ(info.fingerprint, topologyFingerprint(sim.net()));
    EXPECT_EQ(info.now, 2000u);
    EXPECT_FALSE(info.engine.activityDriven);
    // The header ends where the first section's tag ("metrics") starts.
    EXPECT_EQ(is.get(), 7);
}

TEST(CheckpointHeader, TopologyFingerprintIsPinned)
{
    // Every saved checkpoint carries this value; restoring one needs the
    // target to compute it again, byte for byte.
    const ColumnSim sim(paperColumn(TopologyKind::Dps, QosMode::Pvc),
                        uniformTraffic(0.05));
    EXPECT_EQ(topologyFingerprint(sim.net()), 0xb32be543e0d0c79aull);
}

class CheckpointRejects : public ::testing::Test {
  protected:
    void SetUp() override
    {
        const ColumnConfig col =
            paperColumn(TopologyKind::MeshX1, QosMode::Pvc);
        ColumnSim sim(col, uniformTraffic(0.08));
        sim.run(1500);
        bytes_ = saveToString(sim);
        ASSERT_GT(bytes_.size(), 64u);
    }

    /// Restore `bytes` into a fresh identically-shaped sim; expect
    /// failure whose diagnostic contains `needle`, and the target left
    /// at cycle zero.
    void expectReject(const std::string &bytes, const std::string &needle)
    {
        const ColumnConfig col =
            paperColumn(TopologyKind::MeshX1, QosMode::Pvc);
        ColumnSim sim(col, uniformTraffic(0.08));
        std::string err;
        EXPECT_FALSE(restoreFromString(sim, bytes, &err));
        EXPECT_NE(err.find(needle), std::string::npos)
            << "diagnostic \"" << err << "\" lacks \"" << needle << "\"";
        EXPECT_EQ(sim.now(), 0u);
    }

    std::string bytes_;
};

TEST_F(CheckpointRejects, BadMagic)
{
    std::string s = bytes_;
    s[0] = 'X';
    expectReject(s, "bad magic");
}

TEST_F(CheckpointRejects, TruncatedHeader)
{
    expectReject(bytes_.substr(0, 20), "truncated checkpoint header");
}

TEST_F(CheckpointRejects, UnknownFormatVersion)
{
    // 4 is the format before standalone columns saved the fabric's
    // extra record.
    for (const char version : {char{99}, char{4}}) {
        std::string s = bytes_;
        s[8] = version; // first byte of the little-endian version word
        expectReject(s, "format version " + std::to_string(version));
    }
}

TEST_F(CheckpointRejects, EngineSaltMismatch)
{
    std::string s = bytes_;
    s[12] = static_cast<char>(s[12] ^ 0x5a); // inside the salt word
    expectReject(s, "engine salt mismatch");
}

TEST_F(CheckpointRejects, CorruptSectionTag)
{
    // The fixed header (magic, format version, salt, fingerprint, cycle,
    // engine flag) is followed by the first section tag's length byte
    // ("metrics" = 7).
    const std::size_t tag =
        sizeof(kCheckpointMagic) + sizeof(CheckpointInfo::version) +
        sizeof(CheckpointInfo::salt) + sizeof(CheckpointInfo::fingerprint) +
        sizeof(CheckpointInfo::now) + sizeof(std::uint8_t);
    std::string s = bytes_;
    ASSERT_EQ(s[tag], 7);
    s[tag] = 3;
    expectReject(s, "expected section");
}

TEST_F(CheckpointRejects, TruncatedBody)
{
    // The diagnostic names the section and byte offset it died in.
    std::string err;
    {
        const ColumnConfig col =
            paperColumn(TopologyKind::MeshX1, QosMode::Pvc);
        ColumnSim sim(col, uniformTraffic(0.08));
        EXPECT_FALSE(restoreFromString(
            sim, bytes_.substr(0, bytes_.size() / 2), &err));
    }
    EXPECT_NE(err.find("unexpected end of checkpoint"), std::string::npos)
        << err;
    EXPECT_NE(err.find("section"), std::string::npos) << err;
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
}

TEST_F(CheckpointRejects, TopologyFingerprintMismatch)
{
    const ColumnConfig other = paperColumn(TopologyKind::Mecs, QosMode::Pvc);
    ColumnSim sim(other, uniformTraffic(0.08));
    std::string err;
    EXPECT_FALSE(restoreFromString(sim, bytes_, &err));
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

TEST_F(CheckpointRejects, SteppedTargetRefused)
{
    const ColumnConfig col = paperColumn(TopologyKind::MeshX1, QosMode::Pvc);
    ColumnSim sim(col, uniformTraffic(0.08));
    sim.run(10);
    std::string err;
    EXPECT_FALSE(restoreFromString(sim, bytes_, &err));
    EXPECT_NE(err.find("freshly built"), std::string::npos) << err;
}

TEST_F(CheckpointRejects, WorkloadMismatchFailsInsteadOfAborting)
{
    // Same topology fingerprint, different workload: the bursty source
    // packs its ON/OFF modulator, the steady one does not.
    const ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    const auto bursty =
        WorkloadSpec::parse("bursty:on=0.002,off=0.01,gain=4");
    ASSERT_TRUE(bursty.has_value());
    ColumnSim saved(col, uniformTraffic(0.05), *bursty);
    saved.run(1000);
    const std::string bytes = saveToString(saved);

    ColumnSim steady(col, uniformTraffic(0.05));
    std::string err;
    EXPECT_FALSE(restoreFromString(steady, bytes, &err));
    EXPECT_NE(err.find("traffic-source state size mismatch"),
              std::string::npos)
        << err;
    EXPECT_EQ(steady.now(), 0u);
}

TEST_F(CheckpointRejects, GsfFrameCountMismatchFailsInsteadOfAborting)
{
    // The GSF gate packs one budget record per frame window; the
    // fingerprint does not cover the window count.
    const ColumnConfig col = paperColumn(TopologyKind::Mecs, QosMode::Gsf);
    ColumnSim saved(col, uniformTraffic(0.05));
    saved.run(1000);
    const std::string bytes = saveToString(saved);

    ColumnConfig other = col;
    other.pvc.gsfFrames = 2;
    ASSERT_NE(other.pvc.gsfFrames, col.pvc.gsfFrames);
    ColumnSim target(other, uniformTraffic(0.05));
    std::string err;
    EXPECT_FALSE(restoreFromString(target, bytes, &err));
    EXPECT_NE(err.find("source-gate state size mismatch"), std::string::npos)
        << err;
    EXPECT_EQ(target.now(), 0u);
}

TEST(CheckpointBounds, ImplausibleVcCountOnPerFlowPortIsRejected)
{
    // Per-flow queueing grows VCs on demand, so its ports accept a saved
    // count above their current size — but never an unbounded one.
    const ColumnConfig col =
        paperColumn(TopologyKind::MeshX1, QosMode::PerFlowQueue);
    ColumnSim saved(col, uniformTraffic(0.08));
    saved.run(1500);
    std::string bytes = saveToString(saved);

    // The first VC array after the "ports" tag is node 0's terminal.
    ASSERT_TRUE(saved.net().termPort(0)->unboundedVcs);
    const std::size_t tag = bytes.find("\x05ports");
    ASSERT_NE(tag, std::string::npos);
    for (std::size_t i = 0; i < 4; ++i)
        bytes[tag + 6 + i] = static_cast<char>(0xFF);

    ColumnSim sim(col, uniformTraffic(0.08));
    std::string err;
    EXPECT_FALSE(restoreFromString(sim, bytes, &err));
    EXPECT_NE(err.find("implausible VC count 4294967295"), std::string::npos)
        << err;
}

TEST_F(CheckpointRejects, HeaderRejectLeavesTargetUsable)
{
    // A header-level reject happens before any mutation: the target must
    // still run to the same digest as a never-touched sim.
    const ColumnConfig col = paperColumn(TopologyKind::MeshX1, QosMode::Pvc);
    const RunPhases phases = testPhases();

    std::string s = bytes_;
    s[12] = static_cast<char>(s[12] ^ 0x5a);

    ColumnSim rejected(col, uniformTraffic(0.08));
    std::string err;
    EXPECT_FALSE(restoreFromString(rejected, s, &err));
    rejected.setMeasureWindow(phases.warmup, phases.measureEnd());
    rejected.run(phases.total());
    rejected.checkInvariants();

    ColumnSim clean(col, uniformTraffic(0.08));
    clean.setMeasureWindow(phases.warmup, phases.measureEnd());
    clean.run(phases.total());
    EXPECT_EQ(runDigest(rejected), runDigest(clean));
}

} // namespace
} // namespace taqos
