#include "noc/packet.h"

namespace taqos {

void
NetPacket::addLoc(InputPort *port, int vc)
{
    TAQOS_ASSERT(numLocs < static_cast<int>(locs.size()),
                 "packet %llu occupies too many VCs",
                 static_cast<unsigned long long>(id));
    locs[static_cast<std::size_t>(numLocs++)] = VcRef{port, vc};
}

void
NetPacket::removeLoc(InputPort *port, int vc)
{
    for (int i = 0; i < numLocs; ++i) {
        if (locs[static_cast<std::size_t>(i)].port == port &&
            locs[static_cast<std::size_t>(i)].vc == vc) {
            locs[static_cast<std::size_t>(i)] =
                locs[static_cast<std::size_t>(numLocs - 1)];
            --numLocs;
            return;
        }
    }
    TAQOS_UNREACHABLE("removeLoc: location not found");
}

void
NetPacket::addXfer(OutputPort *out)
{
    TAQOS_ASSERT(numXfers < static_cast<int>(xfers.size()),
                 "packet %llu has too many active transfers",
                 static_cast<unsigned long long>(id));
    xfers[static_cast<std::size_t>(numXfers++)] = out;
}

void
NetPacket::removeXfer(OutputPort *out)
{
    for (int i = 0; i < numXfers; ++i) {
        if (xfers[static_cast<std::size_t>(i)] == out) {
            xfers[static_cast<std::size_t>(i)] =
                xfers[static_cast<std::size_t>(numXfers - 1)];
            --numXfers;
            return;
        }
    }
    TAQOS_UNREACHABLE("removeXfer: transfer not found");
}

void
NetPacket::logCharge(void *table, int tableIdx)
{
    // A packet traverses at most a handful of charging hops per attempt;
    // silently dropping beyond the cap would skew fairness accounting.
    TAQOS_ASSERT(numCharges < static_cast<int>(charges.size()),
                 "charge log overflow for packet %llu",
                 static_cast<unsigned long long>(id));
    charges[static_cast<std::size_t>(numCharges++)] =
        ChargeRef{table, tableIdx};
}

void
NetPacket::beginAttempt()
{
    state = PacketState::InFlight;
    hopsThisAttempt = 0.0;
    blockedSince = kNoCycle;
    ++attempt;
    clearLocs();
    numXfers = 0;
    numCharges = 0;
}

namespace {

/// Give a recycled record a fresh packet's scalars and empty logs. The
/// location, transfer and charge arrays keep stale entries, which their
/// counts guard, so most of the record is not rewritten.
void
resetForReuse(NetPacket &p)
{
    static_assert(sizeof(NetPacket) == 408,
                  "a new NetPacket field needs a reset here");
    static constexpr NetPacket kFresh{};
    p.flow = kFresh.flow;
    p.src = kFresh.src;
    p.dst = kFresh.dst;
    p.finalDst = kFresh.finalDst;
    p.sizeFlits = kFresh.sizeFlits;
    p.genCycle = kFresh.genCycle;
    p.queuedCycle = kFresh.queuedCycle;
    p.deliverCycle = kFresh.deliverCycle;
    p.state = kFresh.state;
    p.measured = kFresh.measured;
    p.rateCompliant = kFresh.rateCompliant;
    p.attempt = kFresh.attempt;
    p.carriedPrio = kFresh.carriedPrio;
    p.frameTag = kFresh.frameTag;
    p.blockedSince = kFresh.blockedSince;
    p.hopsThisAttempt = kFresh.hopsThisAttempt;
    p.numLocs = kFresh.numLocs;
    p.numXfers = kFresh.numXfers;
    p.inWindow = kFresh.inWindow;
    p.numCharges = kFresh.numCharges;
}

} // namespace

NetPacket *
PacketPool::alloc()
{
    NetPacket *pkt;
    if (!free_.empty()) {
        pkt = free_.back();
        free_.pop_back();
        resetForReuse(*pkt);
        pkt->id = nextId_++;
    } else {
        all_.push_back(std::make_unique<NetPacket>());
        pkt = all_.back().get();
        pkt->id = nextId_++;
    }
    ++live_;
    return pkt;
}

void
PacketPool::restoreShape(std::size_t count)
{
    TAQOS_ASSERT(all_.empty() && live_ == 0,
                 "restoreShape on a non-fresh pool");
    all_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        all_.push_back(std::make_unique<NetPacket>());
    live_ = count;
}

void
PacketPool::restoreFreeList(const std::vector<std::size_t> &freeIdx,
                            PacketId nextId)
{
    free_.clear();
    free_.reserve(freeIdx.size());
    for (const std::size_t i : freeIdx) {
        TAQOS_ASSERT(i < all_.size(), "free-list index out of range");
        free_.push_back(all_[i].get());
    }
    TAQOS_ASSERT(live_ >= free_.size(), "free list larger than pool");
    live_ = all_.size() - free_.size();
    nextId_ = nextId;
}

void
PacketPool::release(NetPacket *pkt)
{
    TAQOS_ASSERT(pkt->state == PacketState::Delivered ||
                     pkt->state == PacketState::Queued,
                 "releasing packet in non-terminal state");
    TAQOS_ASSERT(pkt->numLocs == 0, "releasing packet that still owns VCs");
    TAQOS_ASSERT(live_ > 0, "pool underflow");
    --live_;
    free_.push_back(pkt);
}

} // namespace taqos
