/// \file fabric.h
/// Columns, whole chips and multi-chip fabrics, declared by a FabricSpec
/// and finalized into a Network by FabricNetwork::build. The single-chip
/// scenario (ChipNetConfig::fabricSpec) is the one-chip, one-block
/// fabric; the standalone column (columnFabricSpec) is the *row-less*
/// fabric: one chip whose grid holds only its shared column, so it has
/// no compute nodes, row meshes, handoffs or links, and its one block
/// keeps the column's own injector count and east/west crossbar split.
///
/// A fabric is the consolidated-server machine around the paper's QOS
/// column:
///   - every shared column of every chip is an active QOS block, built by
///     the same ColumnWiring machinery as the standalone column;
///   - each compute node belongs to the catchment of its nearest shared
///     column and reaches it over a 1-D NoQos row mesh ending in a
///     handoff buffer at the column boundary, where the packet re-enters
///     through the block's per-flow entrance queue (the row injector the
///     OS programs a flow register for);
///   - chips are joined by inter-chip links (point-to-point or a ring of
///     chip-to-chip channels). A packet for a remote column rides its
///     local row mesh to the boundary handoff, crosses the link fabric,
///     and re-enters through the destination block's per-flow entrance
///     queue — the row-to-column handoff pattern applied at chip scale.
///
/// Node-id space (ascending, chip-major): chip c occupies
/// [c*nodesPerChip, (c+1)*nodesPerChip); within a chip the block (column)
/// nodes come first — block j's node for grid row y is
/// chipBase + j*H + y — followed by the compute nodes in row-major order.
/// A one-chip, one-column fabric therefore numbers its column nodes
/// 0..H-1 exactly like the standalone column.
///
/// Flow-id space (FabricLayout; chip-major, then block-major, the shared
/// columns taken ascending whatever order the spec lists them in): block
/// g's flows are [g*flowsPerBlock, (g+1)*flowsPerBlock), per row laid out as
///   slot 0                       the block's own terminal flow,
///   slots 1..catchment           one per catchment compute node
///                                (ascending grid x; trailing slots of
///                                smaller catchments stay inactive),
///   slots after the catchment    one per *remote* chip: slot r maps to
///                                source chip (c + 1 + r) % chips.
/// Remote flows keep their destination-block flow id for the whole
/// journey, so the destination column's flow registers (weights, quotas,
/// windows) govern them exactly like local sources, and no block router
/// ever sees another block's flow: its flow table windows the block's
/// own [g*flowsPerBlock, (g+1)*flowsPerBlock) only.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chip/geometry.h"
#include "common/assert.h"
#include "topo/column_wiring.h"

namespace taqos {

/// How chips are linked (Sec. 1's consolidated server spans boards).
enum class LinkTopology {
    PointToPoint, ///< dedicated channel per ordered chip pair
    Ring,         ///< unidirectional ring; packets hop chip to chip
};

const char *linkTopologyName(LinkTopology kind);
std::optional<LinkTopology> parseLinkTopology(const std::string &name);

/// Declarative description of a multi-chip fabric: chips x geometry x
/// inter-chip links, with one QoS policy (`column.mode`) in every shared
/// column. Finalized by FabricNetwork::build into a ready-to-simulate
/// Network.
struct FabricSpec {
    int chips = 1;
    ChipConfig chip;

    /// Template for every QOS block: topology, VC provisioning, QoS
    /// parameters. `numNodes` is forced to the grid height and, unless
    /// the fabric is row-less, `injectorsPerNode` and `eastRowInjectors`
    /// to the fabric's slots and catchment split; when `pvc.weights` is
    /// non-empty it must be sized to the TOTAL flow count
    /// (FabricLayout::totalFlows).
    ColumnConfig column;

    LinkTopology links = LinkTopology::PointToPoint;
};

/// The most flow-table counters the build allocates for a fabric's block
/// routers, its dominant allocation: each router keeps one 8-byte counter
/// per output and flow of its block, counted here with one output per
/// column node, as a DPS router has. A DPS fabric just under the cap
/// (41 chips of 32x32 tiles, shared columns 4 and 12: 16,457,728
/// counters) peaked at 265 MB resident once built (getrusage, g++ 12.2
/// Release on a 4-vCPU Xeon KVM guest); the 8-chip, 2048-router fabric
/// needs 1,048,576.
inline constexpr std::int64_t kMaxFlowTableCounters = std::int64_t{1}
                                                      << 24;

/// The first rule `spec` breaks, as one line, or "" when it builds: at
/// least one chip; a tile grid that divides into square nodes of
/// `concentration` tiles; at least two node rows; at least one shared
/// column, each inside the grid and none twice; a grid without compute
/// columns must be one chip's one column with its east row injectors
/// inside its row injectors; node and flow ids that fit an `int`; at
/// most kMaxFlowTableCounters flow-table counters; and, under a policy
/// with flow tables, no mesh column taller than NetPacket::kMaxCharges
/// rows. FabricLayout asserts on it, and CLIs call it before any work
/// starts.
std::string fabricSpecError(const FabricSpec &spec);

/// The whole-chip scenario (Sec. 2.1): one chip, its first shared column
/// simulated, every other grid column a compute column feeding it over
/// the unprotected rows. It is the one-chip, one-block fabric
/// (fabricSpec()), so the column's node ids are 0..H-1 (id == grid row)
/// and its flow ids, routes and flow-register indices are the standalone
/// column's.
struct ChipNetConfig {
    ChipConfig chip;

    /// The shared column's interconnect/QOS configuration. `numNodes` is
    /// forced to the chip's node-grid height; `injectorsPerNode` must
    /// equal the chip's nodesX (the column node's terminal flow plus one
    /// row injector per compute node of its row).
    ColumnConfig column;

    /// Grid x of the simulated shared column.
    int columnX() const
    {
        TAQOS_ASSERT(!chip.sharedColumns.empty(),
                     "chip has no shared column to simulate");
        return chip.sharedColumns.front();
    }

    /// The equivalent fabric: one chip whose only block is columnX().
    FabricSpec fabricSpec() const;
};

/// The standalone column as a fabric: one chip, one grid column (the
/// shared column, `col.numNodes` tall) and no compute columns. Its block
/// is wired exactly as the column alone: node ids 0..numNodes-1, flow
/// ids node * injectorsPerNode + injector, unprefixed port names.
FabricSpec columnFabricSpec(const ColumnConfig &col);

/// The compute node a flow starts at, and whether the flow crosses chips.
struct FlowOrigin {
    int chip = 0;
    NodeCoord node;
    bool remote = false;
};

/// A fabric's flow-id layout, computed from its FabricSpec alone: the
/// catchments, the slots per block node and the compute node behind each
/// flow. FabricNetwork is wired from it and the hypervisor programs flow
/// registers from it, so the two agree on which node feeds which flow.
class FabricLayout {
  public:
    /// Asserts that `spec` builds (fabricSpecError).
    explicit FabricLayout(FabricSpec spec);

    /// The spec as built: shared columns ascending, the column template
    /// as tall as the node grid.
    const FabricSpec &spec() const { return spec_; }

    int chips() const { return spec_.chips; }
    int blocksPerChip() const
    {
        return static_cast<int>(spec_.chip.sharedColumns.size());
    }
    int blocks() const { return chips() * blocksPerChip(); }
    /// The chip's node grid, computed once: ChipConfig derives it from
    /// the concentration with a square root on every call.
    int gridWidth() const { return gridWidth_; }
    int gridHeight() const { return gridHeight_; }
    int computePerRow() const { return gridWidth_ - blocksPerChip(); }
    /// True for the standalone column: no compute nodes, so no rows.
    bool rowless() const { return computePerRow() == 0; }
    /// Injector slots per block node: terminal + largest catchment +
    /// remote, or the column's own injector count when row-less.
    int slotsPerNode() const { return slotsPerNode_; }
    int remoteSlots() const { return spec_.chips > 1 ? spec_.chips - 1 : 0; }
    int flowsPerBlock() const { return gridHeight() * slotsPerNode_; }
    int totalFlows() const { return blocks() * flowsPerBlock(); }

    /// Catchment of local block `j`: the grid xs of the compute nodes
    /// whose nearest shared column is column `j` (ascending; identical
    /// on every chip).
    const std::vector<int> &catchment(int j) const
    {
        return catchments_[static_cast<std::size_t>(j)];
    }
    /// Local block index whose catchment contains compute column `x`.
    int blockOfX(int x) const
    {
        TAQOS_ASSERT(x >= 0 && x < gridWidth_ &&
                         blockOfX_[static_cast<std::size_t>(x)] >= 0,
                     "grid column %d is not a compute column", x);
        return blockOfX_[static_cast<std::size_t>(x)];
    }

    /// Flow of slot `k` at row `y` of global block `g`.
    FlowId flowOf(int g, int y, int k) const
    {
        return g * flowsPerBlock() + y * slotsPerNode_ + k;
    }
    int blockOfFlow(FlowId f) const { return f / flowsPerBlock(); }
    /// (row, slot) of flow `f` within its block.
    int rowOfFlow(FlowId f) const
    {
        return f % flowsPerBlock() / slotsPerNode_;
    }
    int slotOfFlow(FlowId f) const { return f % slotsPerNode_; }
    /// Slot that carries chip `srcChip`'s traffic into a block on chip
    /// `dstChip` (the two differ).
    int remoteSlot(int srcChip, int dstChip) const
    {
        return 1 + maxCatchment_ + (srcChip - dstChip - 1 + chips()) % chips();
    }
    /// Source chip of remote slot `k` (> catchment slots) at a block on
    /// chip `c`; the inverse of remoteSlot.
    int remoteSourceChip(int c, int k) const
    {
        return (c + 1 + (k - 1 - maxCatchment_)) % chips();
    }
    /// True when slot `k` of local block `j` carries traffic (terminal,
    /// a real catchment entry, or a remote slot of a block that has a
    /// catchment).
    bool slotUsable(int j, int k) const;

    /// The compute node that originates flow `f`, or nothing for a
    /// terminal flow, an unusable slot or a row-less fabric's injectors.
    /// A block's remote flows start at its westernmost catchment node on
    /// the source chip.
    std::optional<FlowOrigin> originOf(FlowId f) const;

  private:
    FabricSpec spec_;
    int gridWidth_ = 0;
    int gridHeight_ = 0;
    int slotsPerNode_ = 0;
    int maxCatchment_ = 0;
    std::vector<std::vector<int>> catchments_; ///< per local block
    std::vector<int> blockOfX_; ///< local block per grid x; -1 = shared
};

/// A fabric's network, wired from its layout (the first base, built
/// before the Network, whose QoS parameters need the flow count).
class FabricNetwork : public FabricLayout, public Network {
  public:
    static std::unique_ptr<FabricNetwork> build(FabricSpec spec);

    // --- geometry ---
    int nodesPerChip() const { return gridWidth() * gridHeight(); }

    /// The per-block column configuration global block `g` was wired
    /// with (the crossbar grouping differs per block).
    const ColumnConfig &blockCfg(int g) const
    {
        return blockCfgs_[static_cast<std::size_t>(g)];
    }

    // --- id mapping ---
    int chipOfNode(NodeId n) const { return n / nodesPerChip(); }
    bool isBlockNode(NodeId n) const
    {
        return n % nodesPerChip() < blocksPerChip() * gridHeight();
    }
    NodeId blockBase(int g) const
    {
        const int B = blocksPerChip();
        return (g / B) * nodesPerChip() + (g % B) * gridHeight();
    }
    NodeId blockNodeId(int chip, int j, int y) const
    {
        return blockBase(chip * blocksPerChip() + j) + y;
    }
    /// Global block index of a block node (asserts `n` is one).
    int blockOfNode(NodeId n) const;
    NodeId computeNodeId(int chip, int x, int y) const
    {
        return chip * nodesPerChip() + blocksPerChip() * gridHeight() +
               y * computePerRow() + rankOf(x);
    }
    /// Grid x of the compute node with row rank `r` (inverse of the
    /// row-major compute layout).
    int xOfRank(int r) const { return computeXs_[static_cast<std::size_t>(r)]; }

    /// Origin queue of flow `f`: the owning compute node's aggregate
    /// source queue for catchment/remote flows, the block entrance queue
    /// itself for terminal flows.
    InjectorQueue &sourceQueue(FlowId f);

    /// All compute-node origin queues, indexed by flow (terminal and
    /// inactive-slot entries unused; empty when the fabric is row-less).
    std::vector<InjectorQueue> &rowQueues() { return rowQueues_; }

  private:
    explicit FabricNetwork(FabricSpec spec);

    /// Row rank of compute column `x` (asserts `x` is one).
    int rankOf(int x) const
    {
        const int r = x >= 0 && x < gridWidth()
            ? rankOfX_[static_cast<std::size_t>(x)]
            : -1;
        TAQOS_ASSERT(r >= 0, "grid column %d is not a compute column", x);
        return r;
    }

    friend void buildFabric(FabricNetwork &net);

    std::vector<int> computeXs_;               ///< non-shared xs, ascending
    std::vector<int> rankOfX_;                 ///< per grid x; -1 = shared
    std::vector<ColumnConfig> blockCfgs_;      ///< per global block
    std::vector<InjectorQueue> rowQueues_;     ///< indexed by global flow
    /// Handoff buffers at every block boundary (also registered as the
    /// network's auxPorts, in creation order).
    std::vector<std::unique_ptr<InputPort>> handoff_;
};

} // namespace taqos
