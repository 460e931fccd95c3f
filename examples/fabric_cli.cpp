/// Fabric-scale consolidated server from the command line: declare a
/// multi-chip fabric with a FabricSpec, admit the paper's three-VM mix on
/// every chip, and run the whole machine — all shared columns active,
/// cross-chip traffic over the inter-chip links — cycle-accurately to
/// drain. The default geometry is the kilo-node acceptance fabric:
/// 4 chips x 32x32 tiles x 2 shared columns = 1024 routers.
///
/// Options (key=value, all optional):
///   chips=4              chips in the fabric
///   tiles=32             tiles per chip edge (square; 4-way concentrated)
///   columns=4,12         shared-column grid xs
///   topo=dps             column topology (mesh_x1..fbfly)
///   mode=pvc             column QoS policy
///   links=p2p|ring       inter-chip link topology
///   rate=0.05            flits/cycle per owned compute node
///   remote=0.25          remote-chip share of each node's rate
///   workload=SPEC        dynamic workload (steady | bursty:... |
///                        ramp:...; trace has no fabric embedding, and
///                        churn runs only in the sweep's chip scenario)
///   verify=1             record the flit trace and run the independent
///                        checker's audit on it (exit 1 on violations)
///   seed=S warmup=C measure=C drain=C
///   fast=1               short phases for smokes
///
/// Any other key, a value that does not parse as its option's type (an
/// integer out of its range, a negative rate or share included), a
/// fabric FabricNetwork::build would refuse, or a chip too small for the
/// VM mix fails with one line before work starts.
///
/// Examples:
///   fabric_cli fast=1
///   fabric_cli chips=2 tiles=16 columns=4 links=ring verify=1
///   fabric_cli fast=1 verify=1   # CI smoke
#include <cstdio>

#include "common/options.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"

using namespace taqos;

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);
    opts.rejectUnknown({"chips", "tiles", "columns", "topo", "mode",
                        "links", "rate", "remote", "workload", "verify",
                        "seed", "warmup", "measure", "drain", "fast"});

    FabricConsolidationConfig cfg;
    cfg.chips = opts.getInt("chips", 4);
    const int tiles = opts.getInt("tiles", 32);
    cfg.chip.tilesX = cfg.chip.tilesY = tiles;
    cfg.chip.sharedColumns =
        opts.has("columns") ? parseIntList(opts.get("columns", ""))
                            : std::vector<int>{4, 12};
    cfg.topology = enumOption(opts, "topo", TopologyKind::Dps,
                              parseTopology, "topology",
                              joinNames(kAllTopologies, topologyName));
    cfg.mode = enumOption(opts, "mode", QosMode::Pvc, parseQosMode, "mode",
                          joinNames(kAllQosModes, qosModeName));
    cfg.links = enumOption(opts, "links", LinkTopology::PointToPoint,
                           parseLinkTopology, "link topology", "p2p ring");
    cfg.ratePerNode = opts.getNonNegative("rate", cfg.ratePerNode);
    cfg.remoteShare = opts.getNonNegative("remote", cfg.remoteShare);
    const std::vector<WorkloadSpec> wspecs = workloadAxisFromOpts(opts);
    if (wspecs.size() > 1)
        optionError("fabric_cli takes a single workload spec");
    if (!wspecs.empty()) {
        const std::string werr = fabricWorkloadError(wspecs[0]);
        if (!werr.empty())
            optionError(werr);
        cfg.workload = wspecs[0];
    }
    cfg.seed = opts.getInt("seed", cfg.seed);
    cfg.audit = opts.getBool("verify", false);
    cfg.phases = opts.getBool("fast", false) ? RunPhases{500, 2000, 1000}
                                             : RunPhases{2000, 8000, 4000};
    cfg.phases.warmup = opts.getCycles("warmup", cfg.phases.warmup);
    cfg.phases.measure = opts.getCycles("measure", cfg.phases.measure);
    cfg.phases.drain = opts.getCycles("drain", cfg.phases.drain);

    // The spec runFabricConsolidation builds, checked before any work.
    FabricSpec spec;
    spec.chips = cfg.chips;
    spec.chip = cfg.chip;
    spec.column = paperColumn(cfg.topology, cfg.mode);
    spec.links = cfg.links;
    const std::string err = fabricSpecError(spec);
    if (!err.empty())
        optionError("bad fabric: " + err);
    const std::string mixErr = vmMixError(cfg);
    if (!mixErr.empty())
        optionError("bad fabric: " + mixErr);

    std::printf("=== fabric: %d chip(s) x %dx%d tiles, %zu shared "
                "column(s), %s links, %s/%s ===\n",
                cfg.chips, tiles, tiles, cfg.chip.sharedColumns.size(),
                linkTopologyName(cfg.links), topologyName(cfg.topology),
                qosModeName(cfg.mode));

    const FabricConsolidationResult res = runFabricConsolidation(cfg);
    std::printf("  %d routers, %llu packets delivered, %llu handoffs, "
                "%llu link hops, %llu preemptions\n",
                res.nodes,
                static_cast<unsigned long long>(res.deliveredPackets),
                static_cast<unsigned long long>(res.handoffs),
                static_cast<unsigned long long>(res.linkHops),
                static_cast<unsigned long long>(res.preemptions));
    std::printf("  avg latency %.1f cycles, digest %016llx\n",
                res.avgLatency,
                static_cast<unsigned long long>(res.digest));
    if (res.drainCycle == kNoCycle)
        std::printf("  drain: budget exhausted\n");
    else
        std::printf("  drained at cycle %llu, invariants clean\n",
                    static_cast<unsigned long long>(res.drainCycle));

    TextTable t;
    t.setHeader({"chip", "vm", "weight", "nodes", "flits", "flits/node"});
    for (const auto &vm : res.vms) {
        t.addRow({strFormat("%d", vm.chip), strFormat("%d", vm.vmId),
                  strFormat("%u", vm.weight),
                  strFormat("%zu", vm.domainNodes),
                  strFormat("%llu",
                            static_cast<unsigned long long>(vm.flits)),
                  strFormat("%.1f", vm.flitsPerNode)});
    }
    std::printf("\nPer-VM service (should scale with the programmed "
                "weights on every chip):\n%s\n",
                t.render().c_str());

    int rc = 0;
    if (cfg.audit) {
        if (res.auditOk) {
            std::printf("checker audit: OK (%llu events)\n",
                        static_cast<unsigned long long>(res.auditEvents));
        } else {
            std::printf("checker audit: FAILED — %s\n",
                        res.auditDiagnostic.c_str());
            rc = 1;
        }
    }
    if (res.drainCycle == kNoCycle)
        rc = 1;
    return rc;
}
