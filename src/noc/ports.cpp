#include "noc/ports.h"

#include "noc/trace_sink.h"
#include "router/router.h"

namespace taqos {

void
InjectorQueue::enqueue(NetPacket *pkt)
{
    const bool headChanged = q_.empty();
    q_.push_back(pkt);
    if (port != nullptr)
        port->onInjectorEnqueue(*this, headChanged);
}

void
InjectorQueue::enqueueFront(NetPacket *pkt)
{
    q_.push_front(pkt);
    if (port != nullptr)
        port->onInjectorEnqueue(*this, /*headChanged=*/true);
}

NetPacket *
InjectorQueue::dequeue()
{
    TAQOS_ASSERT(!q_.empty(), "dequeue from empty injector queue");
    NetPacket *pkt = q_.front();
    q_.pop_front();
    if (port != nullptr)
        port->onInjectorDequeue(*this);
    return pkt;
}

void
InjectorQueue::noteWindowChange()
{
    if (port != nullptr)
        port->onInjectorWindowChange(*this);
}

void
InputPort::attachVcs()
{
    for (auto &vc : vcs)
        vc.setPort(this);
}

void
InputPort::onVcReserved(VirtualChannel &vc)
{
    if (trace != nullptr) {
        trace->vcReserved(*this, vcIndex(vc), *vc.packet(),
                          vc.headArrival(), vc.tailArrival());
    }
    if (owner != nullptr)
        owner->noteVcReserved(this, vcIndex(vc));
    if (ejection != nullptr)
        ejection->arm(vc.tailArrival(), ejectIdx, vcIndex(vc));
}

void
InputPort::onVcFreed(VirtualChannel &vc, NetPacket *freed)
{
    if (trace != nullptr && freed != nullptr)
        trace->vcFreed(*this, vcIndex(vc), *freed);
    if (owner != nullptr)
        owner->noteVcFreed(this, vc);
}

void
InputPort::onVcDrained(VirtualChannel &vc)
{
    if (trace != nullptr)
        trace->vcDrained(*this, vcIndex(vc), *vc.packet());
    // Still occupied (the packet stays resident until its tail departs),
    // but no longer an arbitration candidate here.
    if (owner != nullptr)
        owner->noteVcDrained(this, vc);
}

void
InputPort::onInjectorEnqueue(InjectorQueue &inj, bool headChanged)
{
    if (owner != nullptr)
        owner->noteInjectorEnqueue(inj, headChanged);
}

void
InputPort::onInjectorDequeue(InjectorQueue &inj)
{
    if (owner != nullptr)
        owner->noteInjectorDequeue(inj);
}

void
InputPort::onInjectorWindowChange(InjectorQueue &inj)
{
    if (owner != nullptr)
        owner->noteInjectorWindowChange(inj);
}

int
InputPort::findFreeVc(Cycle now, bool rateCompliant)
{
    // Regular VCs first; the reserved VC is the compliant traffic's escape
    // path and is spent last.
    for (int i = 0; i < static_cast<int>(vcs.size()); ++i) {
        if (i == reservedVc)
            continue;
        if (vcs[static_cast<std::size_t>(i)].allocatable(now))
            return i;
    }
    if (rateCompliant && reservedVc >= 0 &&
        vcs[static_cast<std::size_t>(reservedVc)].allocatable(now)) {
        return reservedVc;
    }
    if (unboundedVcs) {
        // Per-flow queueing baseline: conjure a fresh VC. The credit is
        // immediately visible; the baseline models per-flow buffers deep
        // enough to never block.
        vcs.emplace_back();
        vcs.back().setPort(this);
        return static_cast<int>(vcs.size()) - 1;
    }
    return -1;
}

int
InputPort::occupiedVcs() const
{
    int n = 0;
    for (const auto &vc : vcs)
        n += vc.state() != VirtualChannel::State::Free;
    return n;
}

int
OutputPort::Transfer::flitsDeparted(Cycle now, int sizeFlits) const
{
    if (!active || now < firstFlit)
        return 0;
    const Cycle last = now < tailDepart ? now : tailDepart;
    const int flits = static_cast<int>(last - firstFlit + 1);
    return flits > sizeFlits ? sizeFlits : flits;
}

void
OutputPort::startTransfer(NetPacket *pkt, int dropIdx, VcRef srcVc, Cycle now)
{
    TAQOS_ASSERT(!xfer_.active, "output %s already streaming", name.c_str());
    TAQOS_ASSERT(linkFree(now), "output %s link busy", name.c_str());
    TAQOS_ASSERT(dropIdx >= 0 && dropIdx < static_cast<int>(drops.size()),
                 "bad drop index %d on %s", dropIdx, name.c_str());

    xfer_.active = true;
    xfer_.pkt = pkt;
    xfer_.dropIdx = dropIdx;
    xfer_.firstFlit = now + 1;
    xfer_.tailDepart = now + static_cast<Cycle>(pkt->sizeFlits);
    xfer_.srcVc = srcVc;
    nextStart_ = now + static_cast<Cycle>(pkt->sizeFlits);
    pkt->addXfer(this);
    if (owner != nullptr)
        owner->noteXferStarted(index, xfer_.tailDepart);

    if (srcVc.port != nullptr)
        srcVc.port->vcs[static_cast<std::size_t>(srcVc.vc)].startDrain();
}

void
OutputPort::tickCompletion(Cycle now)
{
    if (!xfer_.active || now < xfer_.tailDepart)
        return;

    NetPacket *pkt = xfer_.pkt;
    pkt->removeXfer(this);
    pkt->hopsThisAttempt +=
        drops[static_cast<std::size_t>(xfer_.dropIdx)].meshHops;

    if (xfer_.srcVc.port != nullptr) {
        InputPort *sp = xfer_.srcVc.port;
        sp->vcs[static_cast<std::size_t>(xfer_.srcVc.vc)].free(
            now + static_cast<Cycle>(sp->creditDelay));
        pkt->removeLoc(sp, xfer_.srcVc.vc);
    }
    xfer_.active = false;
    xfer_.pkt = nullptr;
    if (owner != nullptr)
        owner->noteXferEnded(index);
}

double
OutputPort::cancelTransfer(Cycle now)
{
    if (!xfer_.active)
        return 0.0;

    NetPacket *pkt = xfer_.pkt;
    pkt->removeXfer(this);
    const double frac =
        static_cast<double>(xfer_.flitsDeparted(now, pkt->sizeFlits)) /
        static_cast<double>(pkt->sizeFlits);
    const double wasted =
        frac * drops[static_cast<std::size_t>(xfer_.dropIdx)].meshHops;

    // The source VC (if any) is freed by the preemption chain kill, which
    // owns the packet's location list; here we only tear down the channel
    // state. Unsent flit slots are released so the preempting packet can
    // take the link next cycle.
    xfer_.active = false;
    xfer_.pkt = nullptr;
    if (nextStart_ > now + 1)
        nextStart_ = now + 1;
    if (owner != nullptr)
        owner->noteXferEnded(index);
    return wasted;
}

} // namespace taqos
