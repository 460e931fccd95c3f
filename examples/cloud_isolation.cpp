/// Cloud denial-of-service scenario (Sec. 1, after Ristenpart et al.):
/// a hostile tenant co-located on the CMP floods the memory controllers.
/// Without QOS the victim's memory throughput collapses and its latency
/// explodes; with PVC in the shared column the victim keeps its
/// provisioned share.
///
///   $ ./cloud_isolation [topology=dps]
#include <cstdio>

#include "common/options.h"
#include "core/taqos.h"

using namespace taqos;

namespace {

struct TenantResult {
    double victimFlits = 0.0;
    double attackerFlits = 0.0;
};

/// Victim: node 6's injectors at a modest 1.5% each. Attacker: all
/// injectors of nodes 1..3 blasting at 20% each, all towards the
/// node-0 memory controller.
TenantResult
run(TopologyKind kind, QosMode mode)
{
    ColumnConfig col;
    col.topology = kind;
    col.mode = mode;
    col.canonicalize();

    TrafficConfig t;
    t.pattern = TrafficPattern::Hotspot;
    t.hotspotNode = 0;
    t.activeFlows.assign(static_cast<std::size_t>(col.numFlows()), false);
    t.flowRates.assign(static_cast<std::size_t>(col.numFlows()), -1.0);
    const auto activate = [&](FlowId f, double rate) {
        t.activeFlows[static_cast<std::size_t>(f)] = true;
        t.flowRates[static_cast<std::size_t>(f)] = rate;
    };
    for (int k = 0; k < col.injectorsPerNode; ++k) {
        activate(col.flowOf(6, k), 0.015); // victim
        for (NodeId n = 1; n <= 3; ++n)
            activate(col.flowOf(n, k), 0.20); // attacker
    }

    ColumnSim sim(col, t);
    sim.setMeasureWindow(10000, 110000);
    sim.run(110000);

    TenantResult r;
    const SimMetrics &m = sim.metrics();
    for (int k = 0; k < col.injectorsPerNode; ++k) {
        r.victimFlits += static_cast<double>(
            m.flowFlits[static_cast<std::size_t>(col.flowOf(6, k))]);
        for (NodeId n = 1; n <= 3; ++n)
            r.attackerFlits += static_cast<double>(
                m.flowFlits[static_cast<std::size_t>(col.flowOf(n, k))]);
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"topology"});
    const TopologyKind kind =
        enumOption(opts, "topology", TopologyKind::Dps, parseTopology,
                   "topology", joinNames(kAllTopologies, topologyName));

    // The victim asks for 8 x 1.5% = 12% of the memory controller — well
    // under its aggregate fair share (8/32 of the link).
    const double victimDemand = 8 * 0.015 * 100000;

    std::printf("Victim demand: %.0f flits over the run; attacker offers "
                "16x the link capacity.\n\n",
                victimDemand);
    std::printf("%-10s %-9s %14s %18s %16s\n", "topology", "mode",
                "victim flits", "% of its demand", "attacker flits");
    for (auto mode : {QosMode::NoQos, QosMode::Pvc}) {
        const TenantResult r = run(kind, mode);
        std::printf("%-10s %-9s %14.0f %17.1f%% %16.0f\n",
                    topologyName(kind), qosModeName(mode), r.victimFlits,
                    100.0 * r.victimFlits / victimDemand, r.attackerFlits);
    }
    std::printf("\nWith no QOS, locally-fair arbitration lets the "
                "co-located attacker take\nnearly the whole memory "
                "controller; PVC's per-flow accounting caps the\n"
                "attacker at its provisioned share and the victim's "
                "service is restored.\n");
    return 0;
}
