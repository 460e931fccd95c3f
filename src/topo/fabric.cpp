/// \file fabric.cpp
/// FabricSpec finalization: geometry, per-block column wiring (via the
/// shared ColumnWiring machinery), the per-catchment row meshes with
/// their boundary handoffs, and the id-space bookkeeping. A row-less
/// fabric (the standalone column) gets only its block. The inter-chip
/// links themselves are cycle behavior and live in sim/fabric_sim.cpp.
#include "topo/fabric.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <string>

#include "common/assert.h"
#include "common/strings.h"
#include "noc/packet.h"
#include "qos/policy.h"

namespace taqos {

const char *
linkTopologyName(LinkTopology kind)
{
    switch (kind) {
      case LinkTopology::PointToPoint: return "p2p";
      case LinkTopology::Ring: return "ring";
    }
    TAQOS_UNREACHABLE("bad link topology");
}

std::optional<LinkTopology>
parseLinkTopology(const std::string &name)
{
    if (name == "p2p" || name == "point-to-point" || name == "ptp")
        return LinkTopology::PointToPoint;
    if (name == "ring")
        return LinkTopology::Ring;
    return std::nullopt;
}

FabricSpec
ChipNetConfig::fabricSpec() const
{
    TAQOS_ASSERT(column.injectorsPerNode == chip.nodesX(),
                 "the row-injector/compute-node mapping requires "
                 "injectorsPerNode (%d) == nodesX (%d)",
                 column.injectorsPerNode, chip.nodesX());
    FabricSpec spec;
    spec.chip = chip;
    spec.chip.sharedColumns = {columnX()};
    spec.column = column;
    return spec;
}

namespace {

/// Injector slots per block node: the terminal, the largest catchment and
/// one per remote chip, or the column's own injectors when row-less.
std::int64_t
slotsPerNodeOf(const FabricSpec &spec, std::int64_t maxCatchment,
               bool rowless)
{
    return rowless ? spec.column.injectorsPerNode
                   : 1 + maxCatchment + (spec.chips - 1);
}

} // namespace

FabricSpec
columnFabricSpec(const ColumnConfig &col)
{
    FabricSpec spec;
    spec.chip.tilesX = 1;
    spec.chip.tilesY = col.numNodes;
    spec.chip.concentration = 1;
    spec.chip.sharedColumns = {0};
    spec.column = col;
    return spec;
}

std::string
fabricSpecError(const FabricSpec &spec)
{
    const ChipConfig &chip = spec.chip;
    if (spec.chips < 1)
        return strFormat("fabric needs at least one chip, got %d",
                         spec.chips);
    const int side = static_cast<int>(
        std::lround(std::sqrt(std::max(chip.concentration, 1))));
    if (side * side != chip.concentration || chip.tilesX % side != 0 ||
        chip.tilesY % side != 0) {
        return strFormat("tile grid %dx%d does not divide into nodes of %d "
                         "tiles",
                         chip.tilesX, chip.tilesY, chip.concentration);
    }
    if (chip.nodesY() < 2)
        return strFormat("columns need at least two nodes, got %d rows",
                         chip.nodesY());
    if (chip.sharedColumns.empty())
        return "fabric needs at least one shared column";
    std::vector<int> cols = chip.sharedColumns;
    std::sort(cols.begin(), cols.end());
    for (std::size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] < 0 || cols[i] >= chip.nodesX()) {
            return strFormat("shared column %d outside the grid "
                             "(columns 0..%d)",
                             cols[i], chip.nodesX() - 1);
        }
        if (i > 0 && cols[i] == cols[i - 1])
            return strFormat("duplicate shared column %d", cols[i]);
    }
    if (chip.nodesX() == static_cast<int>(cols.size())) {
        if (spec.chips != 1 || chip.nodesX() != 1)
            return "a fabric without compute columns must be one chip's "
                   "one shared column";
        // The block keeps the column's own injectors and east/west split.
        if (spec.column.eastRowInjectors < 0 ||
            spec.column.eastRowInjectors >= spec.column.injectorsPerNode) {
            return strFormat("%d east row injectors, but the column has %d "
                             "row injectors",
                             spec.column.eastRowInjectors,
                             spec.column.injectorsPerNode - 1);
        }
    }

    // Sizes in 64 bits, so a fabric too large to number or to allocate
    // fails here instead of overflowing an id or exhausting memory.
    const std::int64_t H = chip.nodesY();
    const std::int64_t nodes = std::int64_t{spec.chips} * chip.nodesX() * H;
    if (nodes > INT_MAX)
        return strFormat("%lld nodes; node ids must fit an int (at most %d)",
                         static_cast<long long>(nodes), INT_MAX);
    std::vector<int> catchment(cols.size(), 0);
    for (int x = 0; x < chip.nodesX(); ++x) {
        if (!chip.isSharedColumn(x))
            ++catchment[static_cast<std::size_t>(
                std::find(cols.begin(), cols.end(),
                          chip.nearestSharedColumn(x)) -
                cols.begin())];
    }
    const std::int64_t slots = slotsPerNodeOf(
        spec, *std::max_element(catchment.begin(), catchment.end()),
        chip.nodesX() == static_cast<int>(cols.size()));
    const std::int64_t flows =
        std::int64_t{spec.chips} * static_cast<std::int64_t>(cols.size()) *
        H * slots;
    if (flows > INT_MAX)
        return strFormat("%lld flows; flow ids must fit an int (at most %d)",
                         static_cast<long long>(flows), INT_MAX);
    if (flows > kMaxFlowTableCounters / (H * H))
        return strFormat("%lld flows need %lld flow-table counters each; the "
                         "build allocates at most %lld",
                         static_cast<long long>(flows),
                         static_cast<long long>(H * H),
                         static_cast<long long>(kMaxFlowTableCounters));
    // A mesh route charges one flow-table entry at every row it crosses,
    // and a packet logs each charge of its attempt for a preemption's
    // refund (build_mesh.cpp).
    const TopologyKind topo = spec.column.topology;
    const bool mesh = topo == TopologyKind::MeshX1 ||
                      topo == TopologyKind::MeshX2 ||
                      topo == TopologyKind::MeshX4;
    if (mesh && H > NetPacket::kMaxCharges &&
        makeQosPolicy(spec.column.mode, spec.column.pvc)->usesFlowTable())
        return strFormat("a %s column of %lld rows under %s charges a "
                         "flow-table entry per row, but a packet's charge "
                         "log holds %d",
                         topologyName(topo), static_cast<long long>(H),
                         qosModeName(spec.column.mode),
                         NetPacket::kMaxCharges);
    return {};
}

FabricLayout::FabricLayout(FabricSpec spec) : spec_(std::move(spec))
{
    const std::string err = fabricSpecError(spec_);
    TAQOS_ASSERT(err.empty(), "%s", err.c_str());
    ChipConfig &chip = spec_.chip;
    std::sort(chip.sharedColumns.begin(), chip.sharedColumns.end());
    gridWidth_ = chip.nodesX();
    gridHeight_ = chip.nodesY();
    spec_.column.numNodes = gridHeight_;

    catchments_.resize(chip.sharedColumns.size());
    blockOfX_.assign(static_cast<std::size_t>(gridWidth_), -1);
    for (int x = 0; x < gridWidth_; ++x) {
        if (chip.isSharedColumn(x))
            continue;
        const auto j = static_cast<std::size_t>(
            std::find(chip.sharedColumns.begin(), chip.sharedColumns.end(),
                      chip.nearestSharedColumn(x)) -
            chip.sharedColumns.begin());
        catchments_[j].push_back(x);
        blockOfX_[static_cast<std::size_t>(x)] = static_cast<int>(j);
        maxCatchment_ =
            std::max(maxCatchment_, static_cast<int>(catchments_[j].size()));
    }
    slotsPerNode_ =
        static_cast<int>(slotsPerNodeOf(spec_, maxCatchment_, rowless()));
}

bool
FabricLayout::slotUsable(int j, int k) const
{
    if (k == 0)
        return true;
    if (k <= maxCatchment_)
        return k - 1 < static_cast<int>(catchment(j).size());
    // Remote traffic starts at the westernmost catchment node: a block
    // with no catchment has no node to originate it.
    return k < slotsPerNode_ && !catchment(j).empty();
}

std::optional<FlowOrigin>
FabricLayout::originOf(FlowId f) const
{
    const int g = blockOfFlow(f);
    const int j = g % blocksPerChip();
    const int k = slotOfFlow(f);
    if (k == 0 || !slotUsable(j, k))
        return std::nullopt;
    const int c = g / blocksPerChip();
    const bool remote = k > maxCatchment_;
    const int x = catchment(j)[static_cast<std::size_t>(remote ? 0 : k - 1)];
    return FlowOrigin{remote ? remoteSourceChip(c, k) : c,
                      NodeCoord{x, rowOfFlow(f)}, remote};
}

namespace {

/// VC buffers per row-mesh input and per handoff buffer.
constexpr int kRowVcs = 4;

/// The fabric-global QoS parameters: total flow count, and the frame
/// scaled to the block count so per-flow quotas keep the single-column
/// magnitude.
PvcParams
fabricPvc(const FabricLayout &layout)
{
    PvcParams pvc = layout.spec().column.pvc;
    pvc.numFlows = layout.totalFlows();
    if (layout.blocks() > 1) {
        pvc.frameLen *= static_cast<Cycle>(layout.blocks());
        pvc.gsfFrameLen *= static_cast<Cycle>(layout.blocks());
    }
    return pvc;
}

} // namespace

FabricNetwork::FabricNetwork(FabricSpec fabric)
    : FabricLayout(std::move(fabric)),
      Network(spec().column.mode, fabricPvc(*this))
{
    const ChipConfig &chip = spec().chip;
    rankOfX_.assign(static_cast<std::size_t>(gridWidth()), -1);
    for (int x = 0; x < gridWidth(); ++x) {
        if (chip.isSharedColumn(x))
            continue;
        rankOfX_[static_cast<std::size_t>(x)] =
            static_cast<int>(computeXs_.size());
        computeXs_.push_back(x);
    }

    // Per-block column configurations: the spec's template with the
    // crossbar grouping implied by the block's catchment split (slots
    // west of the column share one port). A row-less fabric's block
    // keeps the template's injectors and split.
    blockCfgs_.reserve(static_cast<std::size_t>(blocks()));
    for (int g = 0; g < blocks(); ++g) {
        const int j = g % blocksPerChip();
        ColumnConfig cfg = spec().column;
        cfg.pvc = pvcParams();
        if (!rowless()) {
            int east = 0;
            for (int x : catchment(j)) {
                if (x < chip.sharedColumns[static_cast<std::size_t>(j)])
                    ++east;
            }
            cfg.injectorsPerNode = slotsPerNode();
            cfg.eastRowInjectors = east;
        }
        blockCfgs_.push_back(std::move(cfg));
    }
}

int
FabricNetwork::blockOfNode(NodeId n) const
{
    TAQOS_ASSERT(isBlockNode(n), "node %d is not a block node", n);
    return chipOfNode(n) * blocksPerChip() +
           n % nodesPerChip() / gridHeight();
}

InjectorQueue &
FabricNetwork::sourceQueue(FlowId f)
{
    if (slotOfFlow(f) == 0)
        return injector(f); // terminal flows originate at the block node
    InjectorQueue &q = rowQueues_[static_cast<std::size_t>(f)];
    TAQOS_ASSERT(q.flow == f, "flow %d has no origin queue", f);
    return q;
}

std::unique_ptr<FabricNetwork>
FabricNetwork::build(FabricSpec spec)
{
    std::unique_ptr<FabricNetwork> net(new FabricNetwork(std::move(spec)));
    TAQOS_ASSERT(net->pvcParams().weights().empty() ||
                     static_cast<int>(net->pvcParams().weights().size()) ==
                         net->totalFlows(),
                 "fabric weights must cover all %d flows",
                 net->totalFlows());
    buildFabric(*net);
    net->finalizeRouters();
    return net;
}

void
buildFabric(FabricNetwork &net)
{
    const FabricSpec &spec = net.spec();
    const ChipConfig &chip = spec.chip;
    const int B = net.blocksPerChip();
    const int H = net.gridHeight();
    const int vcs = kRowVcs;
    /// Row routers are 2-stage (VA, XT) like the mesh/DPS column routers.
    const int depth = 2;

    // Pre-size the flow-indexed stores before any block takes pointers
    // into them (ports keep InjectorQueue pointers; growth would dangle).
    net.injectors().resize(static_cast<std::size_t>(net.totalFlows()));
    if (!net.rowless())
        net.rowQueues_.resize(static_cast<std::size_t>(net.totalFlows()));

    // Port names carry the chip and block only when the fabric has more
    // than one, so a one-chip, one-column fabric keeps the standalone
    // names, short enough to skip a heap allocation per port.
    const auto chipTag = [&](int c) {
        return spec.chips > 1 ? strFormat("c%d_", c) : std::string();
    };
    const auto blockTag = [&](int j) {
        return B > 1 ? strFormat("b%d_", j) : std::string();
    };

    const auto wiring = [&](int c, int j) {
        const int g = c * B + j;
        return ColumnWiring{net, net.blockCfg(g), net.blockBase(g),
                            net.flowOf(g, 0, 0), chipTag(c) + blockTag(j)};
    };

    for (int c = 0; c < spec.chips; ++c) {
        // Block routers and terminals first — ascending node order is a
        // substrate invariant (termPort(n) indexes per-node storage).
        for (int j = 0; j < B; ++j)
            wireColumnInjection(wiring(c, j));

        // Compute-node routers, their aggregate injector queues (the
        // node's catchment flow plus any remote flows it originates),
        // and empty terminal buffers for uniform per-node indexing.
        for (int y = 0; y < H; ++y) {
            for (int r = 0; r < net.computePerRow(); ++r) {
                const int x = net.xOfRank(r);
                const NodeId id = net.computeNodeId(c, x, y);
                TAQOS_ASSERT(id == net.numNodes(),
                             "compute node id mismatch");
                Router *router = net.addRouter(id, QosMode::NoQos);
                net.addTermPort(id, 1);

                auto port = std::make_unique<InputPort>();
                port->name = chipTag(c) + "row_inj_" + std::to_string(x) +
                             "_" + std::to_string(y);
                port->node = id;
                port->kind = InputPort::Kind::Injection;
                port->pipelineDelay = depth;
                port->group = router->addXbarGroup();

                const auto addOrigin = [&](FlowId f) {
                    InjectorQueue &q =
                        net.rowQueues_[static_cast<std::size_t>(f)];
                    q.flow = f;
                    q.node = id;
                    q.windowLimit = spec.column.pvc.windowLimit;
                    port->injectors.push_back(&q);
                };

                const int j = net.blockOfX(x);
                const auto &cat = net.catchment(j);
                const int idx = static_cast<int>(
                    std::find(cat.begin(), cat.end(), x) - cat.begin());
                addOrigin(net.flowOf(c * B + j, y, 1 + idx));

                // The westernmost catchment node also originates this
                // (block, row)'s traffic toward every remote chip.
                if (idx == 0) {
                    for (int cd = 0; cd < spec.chips; ++cd) {
                        if (cd != c)
                            addOrigin(net.flowOf(cd * B + j, y,
                                                 net.remoteSlot(c, cd)));
                    }
                }
                router->addInputPort(std::move(port));
            }
        }

        for (int j = 0; j < B; ++j)
            wireColumnTopology(wiring(c, j));

        // Row meshes: each catchment side chains toward its block's
        // column-entry node, ending in a boundary handoff buffer
        const auto makeRowInput = [&](Router *router,
                                      const std::string &name,
                                      NodeId node) {
            auto port = std::make_unique<InputPort>();
            port->name = name;
            port->node = node;
            port->kind = InputPort::Kind::Network;
            port->pipelineDelay = depth;
            port->creditDelay = 1;
            port->reservedVc = -1; // rows run without QOS machinery
            port->group = router->addXbarGroup();
            port->vcs.resize(static_cast<std::size_t>(vcs));
            return router->addInputPort(std::move(port));
        };
        const auto makeHandoff = [&](const std::string &name, int j,
                                     int y) {
            auto port = std::make_unique<InputPort>();
            port->name = name;
            port->node = net.blockNodeId(c, j, y);
            port->kind = InputPort::Kind::Network;
            port->creditDelay = 1;
            port->reservedVc = -1;
            port->vcs.resize(static_cast<std::size_t>(vcs));
            net.handoff_.push_back(std::move(port));
            net.auxPorts_.push_back(net.handoff_.back().get());
            return net.handoff_.back().get();
        };
        const auto addRowOutput = [&](int x, int y, int j,
                                      const char *dir, InputPort *down) {
            Router *router = net.router(net.computeNodeId(c, x, y));
            auto out = std::make_unique<OutputPort>();
            out->name = chipTag(c) + "row_out_" + dir + "_" +
                        std::to_string(x) + "_" + std::to_string(y);
            out->node = net.computeNodeId(c, x, y);
            out->tableIdx = Network::nextTableIdx(router);
            out->drops.push_back(OutputPort::Drop{down, /*wireDelay=*/1,
                                                  /*meshHops=*/1.0});
            const int idx = static_cast<int>(router->outputs().size());
            router->addOutputPort(std::move(out));
            // Everything in a catchment row heads for its block's
            // column-entry node.
            router->setRoute(net.blockNodeId(c, j, y), RouteEntry{idx, 1, 0});
        };

        for (int j = 0; j < B; ++j) {
            const int cx =
                chip.sharedColumns[static_cast<std::size_t>(j)];
            const auto &cat = net.catchment(j);
            std::vector<int> west, east;
            for (int x : cat)
                (x < cx ? west : east).push_back(x);

            for (int y = 0; y < H; ++y) {
                const std::string suffix = blockTag(j) + std::to_string(y);
                if (!west.empty()) {
                    std::vector<InputPort *> in(west.size(), nullptr);
                    for (std::size_t i = 1; i < west.size(); ++i) {
                        in[i] = makeRowInput(
                            net.router(net.computeNodeId(c, west[i], y)),
                            chipTag(c) + "row_in_e_" +
                                std::to_string(west[i]) + "_" +
                                std::to_string(y),
                            net.computeNodeId(c, west[i], y));
                    }
                    InputPort *hand = makeHandoff(
                        chipTag(c) + "handoff_w_" + suffix, j, y);
                    for (std::size_t i = 0; i < west.size(); ++i) {
                        addRowOutput(west[i], y, j, "e",
                                     i + 1 == west.size() ? hand
                                                          : in[i + 1]);
                    }
                }
                if (!east.empty()) {
                    std::vector<InputPort *> in(east.size(), nullptr);
                    for (std::size_t i = 0; i + 1 < east.size(); ++i) {
                        in[i] = makeRowInput(
                            net.router(net.computeNodeId(c, east[i], y)),
                            chipTag(c) + "row_in_w_" +
                                std::to_string(east[i]) + "_" +
                                std::to_string(y),
                            net.computeNodeId(c, east[i], y));
                    }
                    InputPort *hand = makeHandoff(
                        chipTag(c) + "handoff_e_" + suffix, j, y);
                    for (std::size_t i = east.size(); i-- > 0;) {
                        addRowOutput(east[i], y, j, "w",
                                     i == 0 ? hand : in[i - 1]);
                    }
                }
            }
        }
    }
}

} // namespace taqos
