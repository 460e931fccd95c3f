/// Pinned whole-chip behaviour: metric digests and handoff counts of the
/// 64-node consolidated chip (rows + QOS column) on every topology and
/// QoS policy, under steady and bursty traffic, plus one cell whose
/// tenant mix churns through ChurnDriver::applyTo. The numbers were
/// recorded from the dedicated chip simulator before it became a
/// one-chip fabric; any drift means the chip's cycle behaviour moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chip/churn.h"
#include "core/experiments.h"
#include "sim/chip_sim.h"

namespace taqos {
namespace {

struct ChipPin {
    std::uint64_t digest;
    std::uint64_t handoffs;
};

/// Indexed [topology][policy][steady, bursty] in kAllTopologies x
/// kAllQosModes order.
constexpr ChipPin kPins[5][6][2] = {
    // clang-format off
    {{{12202191610874837316ull, 4498}, {14528745131753850423ull, 2769}},
     {{15289773600343942297ull, 4460}, {9896219463493518757ull, 2876}},
     {{4546952430768645028ull, 4469}, {4073121660608386182ull, 3270}},
     {{2805747480372570314ull, 4433}, {9871169510488186714ull, 2822}},
     {{18041800824018430024ull, 4586}, {4486240213617404196ull, 3068}},
     {{15096168020224805215ull, 4386}, {257818132631111745ull, 2857}}},
    {{{6782275542917279704ull, 4497}, {12586275245998718757ull, 2996}},
     {{10855475694193530762ull, 4463}, {1343923806327117427ull, 2947}},
     {{18323226588380109509ull, 4627}, {6410003208209551003ull, 2851}},
     {{11605703311569429095ull, 4459}, {11985142295932987548ull, 3034}},
     {{13977824728278163354ull, 4460}, {13070699957303511968ull, 3015}},
     {{13258853462264883681ull, 4426}, {17724800266108548068ull, 3245}}},
    {{{13082871738662068686ull, 4441}, {9782429766442084945ull, 2898}},
     {{6430721775104934153ull, 4416}, {7688951351334471596ull, 2893}},
     {{14019491617578580526ull, 4511}, {17117681245009887230ull, 3506}},
     {{4188860645274078569ull, 4441}, {16462364671299132548ull, 3164}},
     {{7622045374783496742ull, 4426}, {3519494646812530397ull, 2781}},
     {{10639151586923769129ull, 4459}, {5573193789485588386ull, 2917}}},
    {{{1503032627724034866ull, 4368}, {9510118973614921336ull, 2992}},
     {{7536306207730840152ull, 4613}, {6456172498340544992ull, 3283}},
     {{6450670969165820258ull, 4511}, {18087606085733121035ull, 2821}},
     {{16689019040206847359ull, 4516}, {17537795924716532544ull, 3096}},
     {{9054269005003176622ull, 4455}, {11430643518965316138ull, 2977}},
     {{12301091511988522677ull, 4400}, {1639335522705256875ull, 2755}}},
    {{{6925781854983394394ull, 4474}, {7920958087000760138ull, 2970}},
     {{18192932737447491320ull, 4517}, {4621524284847493146ull, 3311}},
     {{12317594349740777568ull, 4402}, {5624165222414117193ull, 2927}},
     {{11408528550138444400ull, 4566}, {10041419408772905814ull, 2860}},
     {{13500762652990039809ull, 4573}, {12571097794451624234ull, 3161}},
     {{10904178488128216995ull, 4458}, {4171622887849427681ull, 3121}}},
    // clang-format on
};

constexpr ChipPin kChurnPin = {2266252272592918339ull, 2971};

WorkloadSpec
burstySpec()
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Bursty;
    return spec;
}

TEST(ChipDigests, EveryTopologyPolicyAndWorkloadMatchesThePins)
{
    for (std::size_t t = 0; t < 5; ++t) {
        for (std::size_t m = 0; m < 6; ++m) {
            for (std::size_t w = 0; w < 2; ++w) {
                ChipNetConfig cc;
                cc.column = paperColumn(kAllTopologies[t], kAllQosModes[m]);
                cc.column.pvc.frameLen = 2000;
                TrafficConfig traffic;
                traffic.pattern = TrafficPattern::UniformRandom;
                traffic.injectionRate = 0.05;
                traffic.genUntil = 4000;
                traffic.seed = 17 + t * 6 + m;
                ChipSim sim(cc, traffic,
                            w == 0 ? WorkloadSpec{} : burstySpec());
                sim.setMeasureWindow(1000, 4000);
                sim.run(5000);
                sim.checkInvariants();
                const std::string cell =
                    std::string(topologyName(kAllTopologies[t])) + "/" +
                    qosModeName(kAllQosModes[m]) +
                    (w == 0 ? "/steady" : "/bursty");
                EXPECT_EQ(metricsDigest(sim.metrics()), kPins[t][m][w].digest)
                    << cell;
                EXPECT_EQ(sim.handoffs(), kPins[t][m][w].handoffs) << cell;
            }
        }
    }
}

TEST(ChipDigests, ChurnAppliedThroughTheDriverMatchesThePin)
{
    ChipNetConfig cfg;
    cfg.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    cfg.column.pvc.frameLen = 1500;
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Churn;
    spec.churnFrames = 1;
    spec.churnMaxVms = 5;
    ChurnDriver churn(cfg, {{0, 32, 2}, {1, 16, 1}}, spec, 5);
    cfg.column.pvc = churn.flowRegisters();

    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = 0.03;
    traffic.genUntil = 8000;
    traffic.seed = 5;
    const std::vector<bool> active = churn.activeComputeFlows();
    traffic.activeFlows.assign(active.begin(), active.end());

    ChipSim sim(cfg, traffic, spec);
    sim.setMeasureWindow(500, 8000);
    for (int e = 1; static_cast<Cycle>(e) * churn.epochLen() < 8000; ++e) {
        sim.run(static_cast<Cycle>(e) * churn.epochLen() - sim.now());
        churn.advanceTo(e);
        churn.applyTo(sim);
    }
    sim.run(10000 - sim.now());
    sim.checkInvariants();
    EXPECT_EQ(churn.currentEpoch(), 5);
    EXPECT_EQ(metricsDigest(sim.metrics()), kChurnPin.digest);
    EXPECT_EQ(sim.handoffs(), kChurnPin.handoffs);
}

} // namespace
} // namespace taqos
