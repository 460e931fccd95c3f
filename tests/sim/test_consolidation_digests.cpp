/// Pinned consolidated-server cells: the whole metric record of sweep
/// ChipConsolidation cells (every metric name, in order, and the bits of
/// every value) folded into one hash per cell. The pins cover every
/// topology and QoS policy under steady and bursty load at the paper's
/// VM placement, the two other placements on DPS, and tenant churn with
/// and without the adversarial terminal flows on DPS. Any drift means a
/// consolidated-server run, or the record it emits, moved.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "exp/sweep.h"

namespace taqos {
namespace {

/// Names and value bits of the record, in emission order.
std::uint64_t
recordDigest(const CellResult &res)
{
    std::uint64_t h = res.metrics.size();
    for (const auto &[name, v] : res.metrics) {
        h = hashCombine(h, name.size());
        for (char c : name)
            h = hashCombine(h, static_cast<unsigned char>(c));
        h = hashCombine(h, std::bit_cast<std::uint64_t>(v));
    }
    return h;
}

CellResult
runChipCell(TopologyKind topo, QosMode mode, int placement,
            const WorkloadSpec &workload, const RunPhases &phases,
            std::uint64_t seed)
{
    CellSpec cell;
    cell.scenario = Scenario::ChipConsolidation;
    cell.topology = topo;
    cell.mode = mode;
    cell.rate = 0.05;
    cell.placement = placement;
    cell.workloadSpec = workload;
    cell.phases = phases;
    cell.seed = seed;
    return SweepRunner::runCell(cell);
}

std::string
label(TopologyKind topo, QosMode mode, const std::string &rest)
{
    return std::string(topologyName(topo)) + "/" + qosModeName(mode) + "/" +
           rest;
}

WorkloadSpec
workloadOf(WorkloadKind kind, bool attack = false)
{
    WorkloadSpec spec;
    spec.kind = kind;
    spec.churnAttack = attack;
    return spec;
}

constexpr RunPhases kShortPhases{500, 3000, 1000};
/// One 50K-cycle QOS frame inside the generation horizon: one epoch.
constexpr RunPhases kChurnPhases{1000, 54000, 2000};

/// Indexed [topology][policy][steady, bursty] in kAllTopologies x
/// kAllQosModes order, placement 0.
constexpr std::uint64_t kPaperPins[5][6][2] = {
    // clang-format off
    {{4851763296574597945ull, 11834474709510412855ull},
     {7961149562588043583ull, 12479962062223797127ull},
     {16311619978283144132ull, 2793599500030326766ull},
     {5826136025442648443ull, 4562791660374724536ull},
     {8841170731613025168ull, 13709569664201305240ull},
     {11244726158990604507ull, 9674011528539405574ull}},
    {{2782106993547413258ull, 3200505790892573551ull},
     {7450385149624701240ull, 7967912518999849653ull},
     {14962292785626946242ull, 10879470431801475092ull},
     {3192139153485922582ull, 8813077171999792404ull},
     {12841126967752659987ull, 14022869638819337313ull},
     {12607209935823240719ull, 10899000359009191692ull}},
    {{3063687481824587999ull, 13960711625361452191ull},
     {8085094132994727969ull, 772037039749924367ull},
     {8502951334411344300ull, 11337491484759701402ull},
     {8922271221370551793ull, 6586584840674318466ull},
     {15859235410047900648ull, 17102190969508903938ull},
     {4855366911843552443ull, 5706467661029387826ull}},
    {{1564648754958958779ull, 14689590306515451483ull},
     {17495647698990114647ull, 4347054228513003680ull},
     {3416038686018675433ull, 5392497153685729964ull},
     {18272271273520434353ull, 11253523345647046890ull},
     {17418382268353155166ull, 10764117581240919493ull},
     {13910092029106449421ull, 7104205185706457051ull}},
    {{15533536879245313271ull, 13918783445384105251ull},
     {6240065978011384867ull, 1293927439403210823ull},
     {6223926523404444426ull, 8260550707535580446ull},
     {17799400803176091634ull, 10916441520443996286ull},
     {16998829939770066543ull, 8035674712402574359ull},
     {1548451199577770731ull, 5430481965434012398ull}},
    // clang-format on
};

/// Indexed [placement 1, 2][policy], DPS, steady.
constexpr std::uint64_t kPlacementPins[2][6] = {
    // clang-format off
    {11420522564688197616ull, 3309974661781156130ull, 155593243876514616ull,
     16152899012791445484ull, 5861556062041383943ull, 10973441348608741170ull},
    {14346746130078849137ull, 8645843947875135089ull, 12849855487990978751ull,
     9918487025979097940ull, 6617391903680884622ull, 13586747819407241779ull},
    // clang-format on
};

/// Indexed [churn, churn+attack][policy], DPS, placement 0.
constexpr std::uint64_t kChurnPins[2][6] = {
    // clang-format off
    {8699154871737798862ull, 4337326922894140296ull, 4348808548108477233ull,
     4089265701134903677ull, 6478149849249323477ull, 12280967610489687475ull},
    {15173465679307466034ull, 3603100014100983845ull, 2933422532289493604ull,
     5520046893531091415ull, 3788413059671847638ull, 11894562339879068598ull},
    // clang-format on
};

TEST(ConsolidationDigests, EveryTopologyPolicyAndLoadAtThePaperPlacement)
{
    for (std::size_t t = 0; t < 5; ++t) {
        for (std::size_t m = 0; m < 6; ++m) {
            for (std::size_t w = 0; w < 2; ++w) {
                const TopologyKind topo = kAllTopologies[t];
                const QosMode mode = kAllQosModes[m];
                const CellResult res = runChipCell(
                    topo, mode, 0,
                    workloadOf(w == 0 ? WorkloadKind::Steady
                                      : WorkloadKind::Bursty),
                    kShortPhases, 11 + t * 12 + m * 2 + w);
                EXPECT_EQ(recordDigest(res), kPaperPins[t][m][w])
                    << label(topo, mode, w == 0 ? "steady" : "bursty");
            }
        }
    }
}

TEST(ConsolidationDigests, OtherPlacementsOnDps)
{
    for (int p = 1; p <= 2; ++p) {
        for (std::size_t m = 0; m < 6; ++m) {
            const QosMode mode = kAllQosModes[m];
            const CellResult res =
                runChipCell(TopologyKind::Dps, mode, p, WorkloadSpec{},
                            kShortPhases, 101 + 6 * p + m);
            EXPECT_EQ(recordDigest(res), kPlacementPins[p - 1][m])
                << label(TopologyKind::Dps, mode,
                         "placement" + std::to_string(p));
        }
    }
}

TEST(ConsolidationDigests, ChurnAndChurnAttackOnDps)
{
    for (std::size_t a = 0; a < 2; ++a) {
        for (std::size_t m = 0; m < 6; ++m) {
            const QosMode mode = kAllQosModes[m];
            const CellResult res = runChipCell(
                TopologyKind::Dps, mode, 0,
                workloadOf(WorkloadKind::Churn, a == 1), kChurnPhases,
                201 + 6 * a + m);
            const std::string cell =
                label(TopologyKind::Dps, mode, a == 0 ? "churn" : "attack");
            EXPECT_EQ(res.get("churn_epochs"), 1.0) << cell;
            EXPECT_EQ(recordDigest(res), kChurnPins[a][m]) << cell;
        }
    }
}

} // namespace
} // namespace taqos
