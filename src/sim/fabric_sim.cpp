#include "sim/fabric_sim.h"

#include "common/assert.h"
#include "noc/trace_sink.h"
#include "sim/checkpoint.h"
#include "traffic/dynamic.h"

namespace taqos {
namespace {

/// Inter-chip wire delay, cycles per link traversal.
constexpr int kLinkDelay = 8;
/// Link serialization width, flits accepted per cycle.
constexpr int kLinkWidthFlits = 4;

/// Where each of `net`'s flows enters: the entrance queue for terminal
/// flows and every flow of a row-less fabric, the origin compute node's
/// row queue and its chip's block-entry node for row flows, and nothing
/// for slots no node originates.
std::vector<FlowInjection>
originTable(FabricNetwork &net)
{
    std::vector<FlowInjection> table(
        static_cast<std::size_t>(net.totalFlows()));
    const int B = net.blocksPerChip();
    const int slots = net.slotsPerNode();
    const bool rowless = net.rowless();
    for (int g = 0; g < net.blocks(); ++g) {
        const int c = g / B;
        const int j = g % B;
        const int localSlots = static_cast<int>(net.catchment(j).size());
        const NodeId base = net.blockBase(g);
        for (int y = 0; y < net.gridHeight(); ++y) {
            for (int k = 0; k < slots; ++k) {
                const FlowId f = net.flowOf(g, y, k);
                const bool atColumn = k == 0 || rowless;
                if (!atColumn && !net.slotUsable(j, k))
                    continue; // no node originates this slot
                FlowInjection &o = table[static_cast<std::size_t>(f)];
                // `src` stays the column entry, so ACK/NACK distances
                // remain column-local.
                o.base = base;
                o.src = base + y;
                if (atColumn)
                    continue;
                const int originChip =
                    k > localSlots ? net.remoteSourceChip(c, k) : c;
                o.row = &net.rowQueues()[static_cast<std::size_t>(f)];
                o.entry = net.blockNodeId(originChip, j, y);
            }
        }
    }
    return table;
}

} // namespace

FabricSim::FabricSim(const FabricSpec &spec, const TrafficConfig &traffic,
                     const WorkloadSpec &workload)
    : FabricSim(spec)
{
    const ColumnConfig &col = network().blockCfg(0);
    if (workload.kind == WorkloadKind::Trace) {
        TAQOS_ASSERT(network().rowless(),
                     "trace replay is a column workload; only a row-less "
                     "fabric has an embedding for it");
        std::string err;
        auto trace = loadTraceFile(workload.tracePath, &err, col);
        TAQOS_ASSERT(trace != nullptr, "workload '%s' failed: %s",
                     workload.name().c_str(), err.c_str());
        source_ = std::make_unique<TraceReplayer>(col, std::move(*trace),
                                                  workload);
        return;
    }
    auto gen = std::make_unique<TrafficGenerator>(col, traffic, workload,
                                                  originTable(network()));
    gen_ = gen.get();
    source_ = std::move(gen);
}

FabricSim::FabricSim(const FabricSpec &spec, TrafficTrace trace)
    : FabricSim(spec)
{
    TAQOS_ASSERT(network().rowless(),
                 "trace replay is a column workload; only a row-less "
                 "fabric has an embedding for it");
    source_ = std::make_unique<TraceReplayer>(network().blockCfg(0),
                                              std::move(trace));
}

FabricSim::FabricSim(const FabricSpec &spec)
    : NetSim(FabricNetwork::build(spec))
{
    const FabricSpec &sp = network().spec();
    if (sp.chips > 1) {
        if (sp.links == LinkTopology::PointToPoint) {
            links_.resize(
                static_cast<std::size_t>(sp.chips) *
                static_cast<std::size_t>(sp.chips));
            for (int s = 0; s < sp.chips; ++s) {
                for (int d = 0; d < sp.chips; ++d)
                    links_[static_cast<std::size_t>(s * sp.chips + d)]
                        .dstChip = d;
            }
        } else {
            links_.resize(static_cast<std::size_t>(sp.chips));
            for (int s = 0; s < sp.chips; ++s)
                links_[static_cast<std::size_t>(s)].dstChip =
                    (s + 1) % sp.chips;
        }
    }
}

void
FabricSim::sendOnLink(NetPacket *pkt, int srcChip, int dstChip)
{
    const FabricSpec &sp = spec();
    ChipLink &link = sp.links == LinkTopology::PointToPoint
        ? links_[static_cast<std::size_t>(srcChip * sp.chips + dstChip)]
        : links_[static_cast<std::size_t>(srcChip)];
    const Cycle due =
        std::max(now_ + static_cast<Cycle>(kLinkDelay), link.nextFree);
    link.nextFree =
        due + static_cast<Cycle>((pkt->sizeFlits + kLinkWidthFlits - 1) /
                                 kLinkWidthFlits);
    link.inFlight.emplace_back(pkt, due);
    ++linkHops_;
}

void
FabricSim::enterColumn(NetPacket *pkt)
{
    pkt->state = PacketState::Queued;
    pkt->queuedCycle = now_;
    pkt->dst = pkt->finalDst;
    net().injector(pkt->flow).enqueue(pkt);
}

void
FabricSim::processLinkArrivals()
{
    for (ChipLink &link : links_) {
        while (!link.inFlight.empty() &&
               link.inFlight.front().second <= now_) {
            NetPacket *pkt = link.inFlight.front().first;
            link.inFlight.pop_front();
            const int want = network().chipOfNode(pkt->finalDst);
            if (want != link.dstChip) {
                // Ring transit: pay another hop toward the destination
                // (due > now, so the next link won't re-pop it this
                // cycle).
                sendOnLink(pkt, link.dstChip, want);
                continue;
            }
            enterColumn(pkt);
        }
    }
}

void
FabricSim::tickTerminals()
{
    processLinkArrivals();
    NetSim::tickTerminals();
}

void
FabricSim::handoff(NetPacket *pkt, InputPort *port, int vcIdx)
{
    TAQOS_ASSERT(pkt->state == PacketState::InFlight,
                 "handoff for packet in state %d",
                 static_cast<int>(pkt->state));
    TAQOS_ASSERT(pkt->finalDst != kInvalidNode,
                 "handoff for packet without a final destination");

    pkt->removeLoc(port, vcIdx);
    port->vcs[static_cast<std::size_t>(vcIdx)].free(
        now_ + static_cast<Cycle>(port->creditDelay));
    if (trace_ != nullptr)
        trace_->segment(now_, *port, vcIdx, *pkt, pkt->finalDst);

    // The row traversal is completed service, not replayable work: a
    // later column preemption replays only the column segment.
    metrics_.usefulHops += pkt->hopsThisAttempt;

    // Release the row-segment window slot; the retransmission window is
    // claimed afresh at the column entrance.
    InjectorQueue &origin = network().sourceQueue(pkt->flow);
    TAQOS_ASSERT(pkt->inWindow, "handoff for packet outside row window");
    pkt->inWindow = false;
    --origin.outstanding;
    TAQOS_ASSERT(origin.outstanding >= 0, "row window underflow");
    // The freed row-window slot may unblock the origin node's queue.
    origin.noteWindowChange();
    ++handoffs_;

    const int destBlock = network().blockOfFlow(pkt->flow);
    if (network().blockOfNode(port->node) == destBlock) {
        enterColumn(pkt);
        return;
    }
    // Remote flow: cross the link fabric; the arrival performs the
    // entrance enqueue at the destination chip.
    const int here = network().chipOfNode(port->node);
    const int want =
        network().chipOfNode(network().blockBase(destBlock));
    TAQOS_ASSERT(here != want,
                 "cross-block handoff within one chip (flow %d)",
                 pkt->flow);
    sendOnLink(pkt, here, want);
}

void
FabricSim::saveExtra(CheckpointWriter &w) const
{
    w.u64(handoffs_);
    w.u64(linkHops_);
    saveInjectorQueues(w,
                       const_cast<FabricSim *>(this)->network().rowQueues());
    w.u32(static_cast<std::uint32_t>(links_.size()));
    for (const ChipLink &link : links_) {
        w.u64(link.nextFree);
        w.u32(static_cast<std::uint32_t>(link.inFlight.size()));
        for (const auto &[pkt, due] : link.inFlight) {
            w.pkt(pkt);
            w.u64(due);
        }
    }
}

void
FabricSim::restoreExtra(CheckpointReader &r)
{
    handoffs_ = r.u64();
    linkHops_ = r.u64();
    restoreInjectorQueues(r, network().rowQueues());
    if (r.u32() != links_.size())
        r.fail("inter-chip link count mismatch");
    for (ChipLink &link : links_) {
        link.nextFree = r.u64();
        const std::uint32_t len = r.u32();
        if (len > (1u << 24))
            r.fail("implausible link FIFO length");
        link.inFlight.clear();
        for (std::uint32_t i = 0; i < len; ++i) {
            NetPacket *pkt = r.pkt();
            const Cycle due = r.u64();
            if (pkt == nullptr)
                r.fail("null packet on an inter-chip link");
            link.inFlight.emplace_back(pkt, due);
        }
    }
}

void
FabricSim::checkInvariants() const
{
    NetSim::checkInvariants();
    auto &net = const_cast<FabricSim *>(this)->network();
    for (const auto &q : net.rowQueues()) {
        if (q.flow == kInvalidFlow)
            continue; // terminal or inactive slot, unused
        TAQOS_ASSERT(q.outstanding >= 0 && q.outstanding <= q.windowLimit,
                     "row window counter out of bounds for flow %d",
                     q.flow);
    }
    for (const ChipLink &link : links_) {
        Cycle prev = 0;
        for (const auto &[pkt, due] : link.inFlight) {
            TAQOS_ASSERT(pkt->state == PacketState::InFlight,
                         "link-resident packet in state %d",
                         static_cast<int>(pkt->state));
            TAQOS_ASSERT(due >= prev, "link FIFO order violated");
            prev = due;
        }
    }
}

} // namespace taqos
