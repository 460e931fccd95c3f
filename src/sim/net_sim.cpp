#include "sim/net_sim.h"

#include <algorithm>

#include "common/assert.h"
#include "noc/trace_sink.h"
#include "router/router.h"

namespace taqos {

NetSim::NetSim(std::unique_ptr<Network> net)
    : net_(std::move(net)), metrics_(net_->numFlows())
{
    if (net_->policyTraits().usesSourceQuota())
        quota_ = std::make_unique<QuotaTracker>(net_->pvcParams());
    gate_ = makeSourceGate(net_->mode(), net_->pvcParams());

    // The ejection order: every node's terminal, then the aux ports.
    for (NodeId n = 0; n < net_->numNodes(); ++n)
        ejectPorts_.push_back(net_->termPort(n));
    for (InputPort *port : net_->auxPorts())
        ejectPorts_.push_back(port);
    for (std::size_t i = 0; i < ejectPorts_.size(); ++i) {
        ejectPorts_[i]->ejection = &ejections_;
        ejectPorts_[i]->ejectIdx = static_cast<int>(i);
    }
}

NetSim::~NetSim() = default;

void
NetSim::setMeasureWindow(Cycle start, Cycle end)
{
    metrics_.measureStart = start;
    metrics_.measureEnd = end;
}

void
NetSim::configure(const EngineConfig &cfg)
{
    TAQOS_ASSERT(cfg.shards >= 1, "need at least one shard");
    TAQOS_ASSERT(now_ == 0 || cfg.activityDriven == engineCfg_.activityDriven,
                 "engine selection must precede the first step");
    engineCfg_ = cfg;
}

void
NetSim::attachTraceSink(TraceSink *sink)
{
    trace_ = sink;
    net_->setTraceSink(sink);
}

void
NetSim::processFrameBoundary()
{
    // Source-gated policies (GSF) advance their global frame window on
    // their own schedule (drain-driven early reclamation). A window
    // advance resets injection budgets — gated source packets may become
    // admissible — so cached arbitration state network-wide is stale.
    if (gate_ != nullptr) {
        const std::uint64_t epoch = gate_->epoch();
        gate_->rollover(now_);
        if (gate_->epoch() != epoch &&
            net_->policyTraits().invalidatesOnFrameBoundary()) {
            net_->invalidateArbitration();
        }
    }

    const Cycle frame = net_->policyTraits().frameLen();
    if (frame == 0 || now_ == 0 || now_ % frame != 0)
        return;
    for (NodeId n = 0; n < net_->numNodes(); ++n)
        net_->router(n)->frameFlush();
    if (quota_ != nullptr)
        quota_->flush();

    // The flush clears bandwidth history everywhere — including the
    // priority copies carried by in-flight packets (priority reuse).
    // Stale pre-flush priorities would otherwise starve DPS pass-through
    // traffic against freshly-zeroed local counters for much of a frame.
    const auto clearPort = [](InputPort *port) {
        for (auto &vc : port->vcs) {
            if (NetPacket *pkt = vc.packet())
                pkt->carriedPrio = 0;
        }
    };
    for (NodeId n = 0; n < net_->numNodes(); ++n) {
        for (const auto &in : net_->router(n)->inputs())
            clearPort(in.get());
    }
    for (InputPort *port : ejectPorts_)
        clearPort(port);

    // The flush rewrote the state cached winner rankings were computed
    // from (flow tables, quota counters, carried priorities).
    if (net_->policyTraits().invalidatesOnFrameBoundary())
        net_->invalidateArbitration();
}

void
NetSim::processAcks()
{
    AckEvent ev;
    while (ack_.popDue(now_, ev)) {
        NetPacket *pkt = ev.pkt;
        InjectorQueue &inj = net_->injector(pkt->flow);
        if (ev.isNack) {
            // Retransmit: back to the head of the source queue; the packet
            // keeps its window slot and its original generation time.
            TAQOS_ASSERT(pkt->state == PacketState::Dropped,
                         "NACK for packet not dropped");
            pkt->state = PacketState::Queued;
            pkt->queuedCycle = now_;
            if (trace_ != nullptr)
                trace_->requeue(now_, *pkt);
            inj.enqueueFront(pkt);
        } else {
            TAQOS_ASSERT(pkt->state == PacketState::Delivered,
                         "ACK for undelivered packet");
            TAQOS_ASSERT(pkt->inWindow, "ACK for packet outside window");
            pkt->inWindow = false;
            --inj.outstanding;
            TAQOS_ASSERT(inj.outstanding >= 0, "window underflow");
            // The retired slot may unblock a head packet stalled on the
            // retransmission window.
            inj.noteWindowChange();
            if (trace_ != nullptr)
                trace_->retire(now_, *pkt);
            pool_.release(pkt);
        }
    }
}

void
NetSim::deliver(NetPacket *pkt, InputPort *port, int vcIdx)
{
    pkt->state = PacketState::Delivered;
    pkt->deliverCycle = now_;
    if (trace_ != nullptr)
        trace_->deliver(now_, *port, vcIdx, *pkt);
    pkt->removeLoc(port, vcIdx);
    port->vcs[static_cast<std::size_t>(vcIdx)].free(
        now_ + static_cast<Cycle>(port->creditDelay));

    ++metrics_.deliveredPackets;
    metrics_.deliveredFlits += static_cast<std::uint64_t>(pkt->sizeFlits);
    metrics_.usefulHops += pkt->hopsThisAttempt;
    if (pkt->measured) {
        const double lat = static_cast<double>(now_ - pkt->genCycle);
        metrics_.latency.push(lat);
        metrics_.latencyHist.add(lat);
    }
    if (metrics_.inWindow(now_)) {
        metrics_.flowFlits[static_cast<std::size_t>(pkt->flow)] +=
            static_cast<std::uint64_t>(pkt->sizeFlits);
    }

    ack_.send(now_, net_->ackDistance(pkt->src, pkt->dst), pkt,
              /*isNack=*/false);
    if (gate_ != nullptr)
        gate_->onDeliver(*pkt, now_);
}

void
NetSim::eject(int idx, int vcIdx)
{
    InputPort *port = ejectPorts_[static_cast<std::size_t>(idx)];
    VirtualChannel &vc = port->vcs[static_cast<std::size_t>(vcIdx)];
    if (vc.state() != VirtualChannel::State::Reserved ||
        now_ < vc.tailArrival())
        return;
    if (idx < net_->numNodes())
        deliver(vc.packet(), port, vcIdx);
    else
        handoff(vc.packet(), port, vcIdx);
}

void
NetSim::tickTerminals()
{
    EjectionDueList::Entry due;
    if (engineCfg_.activityDriven) {
        // Only the VCs whose tail arrives this cycle, in the full scan's
        // (port, VC) order. A stale entry, left by a packet killed in its
        // buffer, finds its VC Free or holding a later packet, whose own
        // entry delivers it.
        while (ejections_.popDue(now_, due)) {
            ++stats_.ejections;
            eject(due.port, due.vc);
        }
        return;
    }
    for (std::size_t i = 0; i < ejectPorts_.size(); ++i) {
        for (std::size_t v = 0; v < ejectPorts_[i]->vcs.size(); ++v)
            eject(static_cast<int>(i), static_cast<int>(v));
    }
    // The full scan is the reference; the due list is only kept in step
    // for the invariant checks.
    while (ejections_.popDue(now_, due)) {
    }
}

void
NetSim::rearmEjections()
{
    ejections_.clear();
    for (std::size_t i = 0; i < ejectPorts_.size(); ++i) {
        const InputPort &port = *ejectPorts_[i];
        for (std::size_t v = 0; v < port.vcs.size(); ++v) {
            const VirtualChannel &vc = port.vcs[v];
            if (vc.state() == VirtualChannel::State::Reserved)
                ejections_.arm(vc.tailArrival(), static_cast<int>(i),
                               static_cast<int>(v));
        }
    }
}

void
NetSim::step()
{
    if (trace_ != nullptr)
        trace_->noteCycle(now_);
    processFrameBoundary();
    processAcks();
    if (source_ != nullptr)
        source_->tick(now_, pool_, net_->injectors(), metrics_);

    TickContext ctx;
    ctx.now = now_;
    ctx.quota = quota_.get();
    ctx.ack = &ack_;
    ctx.metrics = &metrics_;
    ctx.gate = gate_.get();
    ctx.forceScan = !engineCfg_.activityDriven;

    ActivityWorklist &worklist = net_->worklist();
    if (engineCfg_.activityDriven) {
        // Tick only routers with work, in node order: the always-tick
        // engine visits routers by ascending node id, and same-cycle
        // mutations (a grant at router A dirtying router B) must stay
        // ordered identically. Arms raised by the phases above (NACK
        // requeues, fresh traffic) are folded in first; arms raised
        // *during* the router phases (a grant reserving a downstream VC,
        // a handoff enqueue in the terminal phase) target state that is
        // not actionable until next cycle — a previously-idle router's
        // tick this cycle would be a no-op — so they join then, exactly
        // matching the always-tick schedule.
        worklist.merge();
        worklist.forEachActive(
            [&](NodeId n) { net_->router(n)->tickCompletions(now_); });
        worklist.forEachActive(
            [&](NodeId n) { net_->router(n)->tickArbitrate(ctx); });
    } else {
        for (NodeId n = 0; n < net_->numNodes(); ++n)
            net_->router(n)->tickCompletions(now_);
        for (NodeId n = 0; n < net_->numNodes(); ++n)
            net_->router(n)->tickArbitrate(ctx);
    }

    stats_ += ctx.stats;

    tickTerminals();
    if (engineCfg_.activityDriven) {
        // Drop the routers whose work drained this cycle.
        worklist.sweep([this](NodeId n) {
            Router *r = net_->router(n);
            if (r->hasWork())
                return false;
            r->leaveWorklist();
            return true;
        });
    }
    ++now_;
}

void
NetSim::run(Cycle cycles)
{
    for (Cycle c = 0; c < cycles; ++c)
        step();
}

Cycle
NetSim::runUntilDrained(Cycle maxCycles, Cycle earliestDone)
{
    const Cycle limit = now_ + maxCycles;
    while (now_ < limit) {
        if (now_ >= earliestDone && drained() && ack_.pending() == 0)
            return now_;
        step();
    }
    return drained() && ack_.pending() == 0 ? now_ : kNoCycle;
}

namespace {

void
checkPortInvariants(const InputPort &port)
{
    for (int v = 0; v < static_cast<int>(port.vcs.size()); ++v) {
        const VirtualChannel &vc = port.vcs[static_cast<std::size_t>(v)];
        if (vc.state() == VirtualChannel::State::Free)
            continue;
        const NetPacket *pkt = vc.packet();
        TAQOS_ASSERT(pkt != nullptr, "occupied VC without packet");
        TAQOS_ASSERT(pkt->state == PacketState::InFlight,
                     "VC %s/%d holds packet in state %d", port.name.c_str(),
                     v, static_cast<int>(pkt->state));
        bool found = false;
        for (int i = 0; i < pkt->numLocs; ++i) {
            const VcRef &loc = pkt->locs[static_cast<std::size_t>(i)];
            if (loc.port == &port && loc.vc == v)
                found = true;
        }
        TAQOS_ASSERT(found, "VC %s/%d not in its packet's locations",
                     port.name.c_str(), v);
    }
}

} // namespace

void
NetSim::checkInvariants() const
{
    auto *net = const_cast<Network *>(net_.get());
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        for (const auto &in : net->router(n)->inputs())
            checkPortInvariants(*in);
    }
    for (const InputPort *port : ejectPorts_)
        checkPortInvariants(*port);
    for (const auto &inj : net->injectors()) {
        TAQOS_ASSERT(inj.outstanding >= 0 &&
                         inj.outstanding <= inj.windowLimit,
                     "window counter out of bounds for flow %d", inj.flow);
    }

    // Activity-tracking consistency: the incremental counts must agree
    // with a full rescan, and every router with work must be armed (a
    // live router missing from the worklist would silently freeze).
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        const Router *r = net->router(n);
        int occupied = 0;
        int queued = 0;
        for (const auto &in : r->inputs()) {
            occupied += in->occupiedVcs();
            for (const InjectorQueue *inj : in->injectors)
                queued += static_cast<int>(inj->queue().size());
        }
        TAQOS_ASSERT(r->occupiedVcCount() == occupied,
                     "router %d VC-occupancy count drifted (%d vs %d)", n,
                     r->occupiedVcCount(), occupied);
        TAQOS_ASSERT(r->queuedPacketCount() == queued,
                     "router %d queued-packet count drifted (%d vs %d)", n,
                     r->queuedPacketCount(), queued);
        TAQOS_ASSERT(!engineCfg_.activityDriven || !r->hasWork() || r->inWorklist(),
                     "router %d has work but is not armed", n);
        r->checkSlots(now_, engineCfg_.activityDriven);
    }

    // Every Reserved terminal or handoff VC has a due entry at its tail
    // cycle (a buffer missing one would never deliver), and no entry is
    // overdue.
    std::vector<EjectionDueList::Entry> due = ejections_.entries();
    std::sort(due.begin(), due.end());
    TAQOS_ASSERT(due.empty() || due.front().due >= now_,
                 "ejection due entry %d/%d overdue at %llu (now %llu)",
                 due.front().port, due.front().vc,
                 static_cast<unsigned long long>(due.front().due),
                 static_cast<unsigned long long>(now_));
    for (std::size_t i = 0; i < ejectPorts_.size(); ++i) {
        const InputPort &port = *ejectPorts_[i];
        for (std::size_t v = 0; v < port.vcs.size(); ++v) {
            const VirtualChannel &vc = port.vcs[v];
            if (vc.state() != VirtualChannel::State::Reserved)
                continue;
            const EjectionDueList::Entry want{vc.tailArrival(),
                                              static_cast<int>(i),
                                              static_cast<int>(v)};
            TAQOS_ASSERT(std::binary_search(due.begin(), due.end(), want),
                         "reserved VC %s/%zu has no ejection due entry at "
                         "its tail cycle %llu",
                         port.name.c_str(), v,
                         static_cast<unsigned long long>(vc.tailArrival()));
        }
    }
}

} // namespace taqos
