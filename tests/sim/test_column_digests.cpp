/// Pinned standalone-column behaviour: metric digests of the 8-node QOS
/// column on every topology (flattened butterfly included) and QoS
/// policy under steady, bursty and ramp traffic; trace replay at full
/// and half inflation, from a file and from memory; the Table 2 hotspot
/// on every topology; and the structural fingerprint of every
/// topology x policy network. The numbers were recorded from the
/// dedicated column simulator before it became a row-less fabric; any
/// drift means the column's cycle behaviour or wiring moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/experiments.h"
#include "exp/json_writer.h"
#include "sim/checkpoint.h"
#include "sim/column_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

constexpr TopologyKind kTopos[6] = {
    TopologyKind::MeshX1, TopologyKind::MeshX2, TopologyKind::MeshX4,
    TopologyKind::Mecs,   TopologyKind::Dps,    TopologyKind::FlatButterfly,
};

/// Indexed [topology][policy][steady, bursty, ramp] in kTopos x
/// kAllQosModes order.
constexpr std::uint64_t kPins[6][6][3] = {
    // clang-format off
    {{17802706645876532866ull, 6367368133762202479ull, 13985475409762947072ull},
     {9850499072921335715ull, 14597835275746564269ull, 13797115951629306856ull},
     {1314874233094631124ull, 10890159823218685609ull, 6367523661636098854ull},
     {4220002672697399181ull, 11319353623013422077ull, 112963916418068939ull},
     {17678624436503348209ull, 15013829541122343568ull, 17717997141568954026ull},
     {18234320479450175306ull, 17840118634113631923ull, 5475114450918443986ull}},
    {{4105547768406610313ull, 1631686508241517432ull, 8647734367329122912ull},
     {16072947303475839623ull, 14656357619110204942ull, 11162914783411879081ull},
     {4081928213762827774ull, 9826534829637833502ull, 1992408193475547769ull},
     {16130778876316143935ull, 2579940716414654202ull, 12243401537618963457ull},
     {7700663942309882830ull, 17110670964319750468ull, 14757412921637785968ull},
     {5317157950050291791ull, 15172979271561475648ull, 15370641008548629158ull}},
    {{16302966810890984764ull, 13381408448129046743ull, 5809911852054048563ull},
     {15891417124067002017ull, 5531424819889652446ull, 6811191271686767598ull},
     {3703712185659694428ull, 13582039543645576746ull, 14577358634081440973ull},
     {11279808058002467220ull, 6758748644663553881ull, 2240118615303145410ull},
     {16293072530025838416ull, 12018629419819907769ull, 11788863291037443548ull},
     {958361234464872202ull, 2189060865317060680ull, 10597429716675396707ull}},
    {{1239337196930665314ull, 7030637464164597977ull, 1296965094154058981ull},
     {10807021038350493102ull, 13267114007729306929ull, 682412223348868801ull},
     {16092750727752260751ull, 14994970061488506057ull, 2129481646324800978ull},
     {1627071648807308908ull, 484003642777322401ull, 6239048665476005949ull},
     {16223267805753436544ull, 3500184599360695428ull, 3520902451848747305ull},
     {11970599023425162918ull, 11619370074244613006ull, 3828865754475132468ull}},
    {{7660257271758244931ull, 16646445430936399397ull, 2988121803161254942ull},
     {17084139865009588277ull, 16086926185143626596ull, 8284412608555759838ull},
     {17671620584484112576ull, 10551743945995014165ull, 9539665547306766234ull},
     {3275989637451262379ull, 10322503482418443429ull, 13332732539697777949ull},
     {2059445197352487562ull, 1929328751006870593ull, 17991254938167963953ull},
     {8969670726024871856ull, 15504688664313654079ull, 7088374455090045111ull}},
    {{3390200576113256620ull, 17124637391112469991ull, 9825343382144349138ull},
     {8173012510188486476ull, 15813269476066069744ull, 11558204737357633698ull},
     {2456409931007505100ull, 7264310748962947575ull, 5431092597950502578ull},
     {14508460681296554647ull, 15101487008691263435ull, 382668049717710332ull},
     {435936482379611362ull, 16145257715119164294ull, 10348191348532702139ull},
     {4895483597051340022ull, 14154322765254098300ull, 11003762087768142384ull}},
    // clang-format on
};

/// topologyFingerprint of each column, [topology][policy].
constexpr std::uint64_t kFingerprints[6][6] = {
    // clang-format off
    {15136506665455804349ull, 17975276033401184702ull, 10582101876886015322ull,
     9421341708236986565ull, 13167677457850577556ull, 1965479220760577084ull},
    {13171851699867157439ull, 834323929557812314ull, 11736356162548582738ull,
     13925551466706931535ull, 11117996129258855006ull, 8701373087311416876ull},
    {2022818530050867432ull, 18325566699920823647ull, 3224058125804858108ull,
     14931719719599684232ull, 3468223796128914980ull, 8385258592458586515ull},
    {3551020442431760508ull, 15333775709187487088ull, 7281357348703464858ull,
     14811029069384357683ull, 14385239259951606818ull, 16527471984274445138ull},
    {12910664836485007258ull, 8461506819028335663ull, 5509992025555851168ull,
     1358088133583714950ull, 244024440143078334ull, 14854718534361855019ull},
    {9871423484880099535ull, 8901274231401235711ull, 12712847631467198528ull,
     824352445290919981ull, 13672393390693361916ull, 14656657391822668611ull},
    // clang-format on
};

/// Trace replay under PVC, [dps, fbfly][inflate 1, inflate 0.5].
constexpr std::uint64_t kTracePins[2][2] = {
    {9989672082846993491ull, 18273692805130395228ull},
    {10890380988856214976ull, 14373350113373707847ull},
};

/// The same DPS trace replayed from memory (the trace constructor).
constexpr std::uint64_t kMemoryTracePin = 9989672082846993491ull;

/// Table 2 hotspot under PVC, per topology.
constexpr std::uint64_t kHotspotPins[6] = {
    2492270400908549136ull, 866112903420551126ull,
    11383951463873791825ull, 10261674395948579337ull,
    2008465803777739503ull, 10849691816171060052ull,
};

WorkloadSpec
workloadOf(std::size_t w)
{
    WorkloadSpec spec;
    if (w == 1) {
        spec.kind = WorkloadKind::Bursty;
    } else if (w == 2) {
        spec.kind = WorkloadKind::Ramp;
        spec.rampPeriod = 1500;
    }
    return spec;
}

ColumnConfig
pinColumn(TopologyKind topo, QosMode mode)
{
    ColumnConfig col = paperColumn(topo, mode);
    col.pvc.frameLen = 1000; // frame flushes inside every run
    return col;
}

TrafficConfig
uniform(double rate, std::uint64_t seed)
{
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = rate;
    traffic.genUntil = 3000;
    traffic.seed = seed;
    return traffic;
}

/// Run to a fixed horizon past the generation end, measuring [500, 3000).
std::uint64_t
runDigest(ColumnSim &sim)
{
    sim.setMeasureWindow(500, 3000);
    sim.run(4000);
    sim.checkInvariants();
    return metricsDigest(sim.metrics());
}

TEST(ColumnDigests, EveryTopologyPolicyAndWorkloadMatchesThePins)
{
    for (std::size_t t = 0; t < 6; ++t) {
        for (std::size_t m = 0; m < 6; ++m) {
            for (std::size_t w = 0; w < 3; ++w) {
                ColumnSim sim(pinColumn(kTopos[t], kAllQosModes[m]),
                              uniform(0.05, 23 + t * 18 + m * 3 + w),
                              workloadOf(w));
                const std::string cell =
                    std::string(topologyName(kTopos[t])) + "/" +
                    qosModeName(kAllQosModes[m]) + "/" +
                    workloadOf(w).name();
                EXPECT_EQ(runDigest(sim), kPins[t][m][w]) << cell;
            }
        }
    }
}

TEST(ColumnDigests, EveryTopologyPolicyFingerprintMatchesThePins)
{
    for (std::size_t t = 0; t < 6; ++t) {
        for (std::size_t m = 0; m < 6; ++m) {
            ColumnSim sim(pinColumn(kTopos[t], kAllQosModes[m]),
                          uniform(0.05, 1));
            EXPECT_EQ(topologyFingerprint(sim.net()), kFingerprints[t][m])
                << topologyName(kTopos[t]) << "/"
                << qosModeName(kAllQosModes[m]);
        }
    }
}

TEST(ColumnDigests, TraceReplayMatchesThePins)
{
    const TopologyKind topos[2] = {TopologyKind::Dps,
                                   TopologyKind::FlatButterfly};
    for (std::size_t t = 0; t < 2; ++t) {
        const ColumnConfig col = pinColumn(topos[t], QosMode::Pvc);
        const TrafficTrace recorded =
            TrafficTrace::record(col, uniform(0.06, 31 + t), 3000);
        const std::string path = ::testing::TempDir() +
                                 "column_digests_" +
                                 topologyName(topos[t]) + ".csv";
        ASSERT_TRUE(writeTextFile(path, recorded.toCsv()));
        for (std::size_t i = 0; i < 2; ++i) {
            WorkloadSpec spec;
            spec.kind = WorkloadKind::Trace;
            spec.tracePath = path;
            spec.inflate = i == 0 ? 1.0 : 0.5;
            ColumnSim sim(col, uniform(0.06, 31 + t), spec);
            EXPECT_EQ(runDigest(sim), kTracePins[t][i])
                << topologyName(topos[t]) << " " << spec.name();
        }
        if (topos[t] == TopologyKind::Dps) {
            ColumnSim sim(col, recorded);
            EXPECT_EQ(runDigest(sim), kMemoryTracePin);
        }
    }
}

TEST(ColumnDigests, Table2HotspotMatchesThePins)
{
    for (std::size_t t = 0; t < 6; ++t) {
        const ColumnConfig col = paperColumn(kTopos[t], QosMode::Pvc);
        TrafficConfig traffic = makeHotspotAll(col, 0.05);
        traffic.seed = 41 + t;
        ColumnSim sim(col, traffic);
        sim.setMeasureWindow(1000, 5000);
        sim.run(5000);
        sim.checkInvariants();
        EXPECT_EQ(metricsDigest(sim.metrics()), kHotspotPins[t])
            << topologyName(kTopos[t]);
    }
}

} // namespace
} // namespace taqos
