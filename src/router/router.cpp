#include "router/router.h"

#include <algorithm>
#include <cstdlib>

#include "common/log.h"
#include "noc/trace_sink.h"

namespace taqos {

Router::Router(NodeId node, QosMode mode, const PvcParams &params,
               FlowId flowBase, int flowCount)
    : node_(node), params_(&params), flowBase_(flowBase),
      flowCount_(flowCount), policy_(makeQosPolicy(mode, params))
{
}

InputPort *
Router::addInputPort(std::unique_ptr<InputPort> port)
{
    port->owner = this;
    inputs_.push_back(std::move(port));
    return inputs_.back().get();
}

OutputPort *
Router::addOutputPort(std::unique_ptr<OutputPort> port)
{
    port->owner = this;
    outputs_.push_back(std::move(port));
    return outputs_.back().get();
}

void
Router::setWorklist(ActivityWorklist *wl)
{
    worklist_ = wl;
    arm();
}

void
Router::arm()
{
    if (worklist_ != nullptr && !inWorklist_) {
        inWorklist_ = true;
        worklist_->pending.push_back(node_);
    }
}

void
Router::markArbDirty()
{
    for (auto &d : outDirty_)
        d = 1;
    anyOutDirty_ = true;
    // Frame flushes rewrite state the preemption victim search reads
    // (flow tables, carried priorities): spoil its memo too.
    ++mutEpoch_;
}

void
Router::insertSlot(int outPort, const ArbSlot &slot)
{
    const auto o = static_cast<std::size_t>(outPort);
    auto &list = slots_[o];
    // Keep enumeration order so a per-output scan compares candidates in
    // exactly the sequence the legacy input-major scan would.
    auto it = list.begin();
    while (it != list.end() && it->key < slot.key)
        ++it;
    list.insert(it, slot);
    // The new candidate cannot change the winner before it is eligible by
    // time, so the scan at that cycle is the first that could see it:
    // schedule that scan instead of dirtying the output. The preemption
    // victim search sees the new rival at once, so its memo is spoiled.
    if (slot.eligible < outWake_[o])
        outWake_[o] = slot.eligible;
    if (slot.eligible < minWake_)
        minWake_ = slot.eligible;
    ++mutEpoch_;
}

void
Router::removeVcSlot(int outPort, const InputPort *in, int vcIdx)
{
    auto &list = slots_[static_cast<std::size_t>(outPort)];
    for (auto it = list.begin(); it != list.end(); ++it) {
        if (it->port == in && it->vc == vcIdx) {
            list.erase(it);
            dirtyOutput(outPort);
            return;
        }
    }
    TAQOS_ASSERT(false, "router %d: missing VC slot %s/%d on output %d",
                 node_, in->name.c_str(), vcIdx, outPort);
}

void
Router::removeInjectorSlot(int outPort, const InjectorQueue *inj)
{
    auto &list = slots_[static_cast<std::size_t>(outPort)];
    for (auto it = list.begin(); it != list.end(); ++it) {
        if (it->inj == inj) {
            list.erase(it);
            dirtyOutput(outPort);
            return;
        }
    }
    TAQOS_ASSERT(false, "router %d: missing injector slot on output %d",
                 node_, outPort);
}

Router::ArbSlot
Router::slotFor(InputPort *in, NetPacket *pkt, Cycle readyFrom,
                std::uint32_t key, int dropIdx) const
{
    ArbSlot slot;
    slot.pkt = pkt;
    slot.port = in;
    slot.eligible = readyFrom + static_cast<Cycle>(in->pipelineDelay - 1);
    slot.genCycle = pkt->genCycle;
    slot.key = key;
    slot.dropIdx = dropIdx;
    slot.flow = pkt->flow;
    slot.carried = in->usesCarriedPrio;
    return slot;
}

void
Router::addVcSlot(InputPort *in, int vcIdx)
{
    VirtualChannel &vc = in->vcs[static_cast<std::size_t>(vcIdx)];
    TAQOS_ASSERT(vc.arbOutput() < 0, "VC %s/%d already has a slot",
                 in->name.c_str(), vcIdx);
    const RouteEntry route = routeFor(*vc.packet());
    ArbSlot slot =
        slotFor(in, vc.packet(), vc.headArrival(),
                in->enumBase + static_cast<std::uint32_t>(vcIdx) + 1,
                route.dropIdx);
    slot.vc = vcIdx;
    insertSlot(route.outPort, slot);
    vc.setArbOutput(route.outPort);
}

void
Router::updateInjectorSlot(InjectorQueue &inj)
{
    if (inj.headOut >= 0) {
        removeInjectorSlot(inj.headOut, &inj);
        inj.headOut = -1;
    }
    if (inj.queue().empty())
        return;
    NetPacket *pkt = inj.queue().front();
    const RouteEntry route = routeFor(*pkt);
    ArbSlot slot = slotFor(
        inj.port, pkt, pkt->queuedCycle,
        inj.port->enumBase + static_cast<std::uint32_t>(inj.slotIdx) + 1,
        route.dropIdx);
    slot.inj = &inj;
    insertSlot(route.outPort, slot);
    inj.headOut = route.outPort;
}

void
Router::noteVcReserved(InputPort *in, int vcIdx)
{
    ++occupiedVcs_;
    addVcSlot(in, vcIdx);
    arm();
}

void
Router::noteVcFreed(InputPort *in, VirtualChannel &vc)
{
    --occupiedVcs_;
    TAQOS_ASSERT(occupiedVcs_ >= 0, "router %d VC-occupancy underflow",
                 node_);
    // A Draining VC already surrendered its slot; a Reserved one (kill,
    // terminal ejection at a router-owned port) still holds it.
    if (vc.arbOutput() >= 0) {
        removeVcSlot(vc.arbOutput(), in, in->vcIndex(vc));
        vc.setArbOutput(-1);
    }
}

void
Router::noteVcDrained(InputPort *in, VirtualChannel &vc)
{
    TAQOS_ASSERT(vc.arbOutput() >= 0, "draining VC without a slot");
    removeVcSlot(vc.arbOutput(), in, in->vcIndex(vc));
    vc.setArbOutput(-1);
}

void
Router::noteInjectorEnqueue(InjectorQueue &inj, bool headChanged)
{
    ++queuedPkts_;
    if (headChanged)
        updateInjectorSlot(inj);
    arm();
}

void
Router::noteInjectorDequeue(InjectorQueue &inj)
{
    --queuedPkts_;
    TAQOS_ASSERT(queuedPkts_ >= 0, "router %d queued-packet underflow",
                 node_);
    updateInjectorSlot(inj);
}

void
Router::noteInjectorWindowChange(InjectorQueue &inj)
{
    // The head may have been stalled on the retransmission window.
    if (inj.headOut >= 0)
        dirtyOutput(inj.headOut);
}

void
Router::noteXferStarted(Cycle tailDepart)
{
    ++activeXfers_;
    if (tailDepart < nextCompletion_)
        nextCompletion_ = tailDepart;
    arm();
}

void
Router::noteXferEnded()
{
    --activeXfers_;
    TAQOS_ASSERT(activeXfers_ >= 0, "router %d transfer-count underflow",
                 node_);
}

void
Router::noteTableMutated(int tableIdx)
{
    if (tableIdx < 0) {
        markArbDirty();
        return;
    }
    for (int o : tableOuts_[static_cast<std::size_t>(tableIdx)])
        dirtyOutput(o);
}

XbarGroup *
Router::addXbarGroup()
{
    groups_.push_back(std::make_unique<XbarGroup>());
    return groups_.back().get();
}

void
Router::setRoute(NodeId dest, RouteEntry entry)
{
    if (routes_.empty()) {
        routeBase_ = dest;
    } else if (dest < routeBase_) {
        routes_.insert(routes_.begin(),
                       static_cast<std::size_t>(routeBase_ - dest),
                       RouteEntry{});
        routeBase_ = dest;
    }
    const auto idx = static_cast<std::size_t>(dest - routeBase_);
    if (idx >= routes_.size())
        routes_.resize(idx + 1);
    routes_[idx] = entry;
}

void
Router::finalize()
{
    int numTables = 0;
    for (const auto &out : outputs_) {
        TAQOS_ASSERT(out->tableIdx >= 0, "output %s has no flow table id",
                     out->name.c_str());
        numTables = std::max(numTables, out->tableIdx + 1);
    }
    // Per-flow bandwidth state exists only for the policies that schedule
    // by it: PVC, the per-flow queueing reference (same virtual clock),
    // and WRR (round-count meter).
    if (policy_->usesFlowTable()) {
        flowTable_ = FlowTable(*params_, numTables, flowBase_, flowCount_);
        flowTable_.setOwner(this);
    }
    best_.resize(outputs_.size());
    policy_->init(static_cast<int>(outputs_.size()));
    switch (policy_->mode()) {
      case QosMode::Pvc: arbitrate_ = &Router::arbitrate<PvcPolicy>; break;
      case QosMode::PerFlowQueue:
        arbitrate_ = &Router::arbitrate<PerFlowQueuePolicy>;
        break;
      case QosMode::NoQos: arbitrate_ = &Router::arbitrate<NoQosPolicy>; break;
      case QosMode::Gsf: arbitrate_ = &Router::arbitrate<GsfPolicy>; break;
      case QosMode::AgeArb: arbitrate_ = &Router::arbitrate<AgePolicy>; break;
      case QosMode::Wrr: arbitrate_ = &Router::arbitrate<WrrPolicy>; break;
    }

    // Activity-tracking structure. Enumeration bases reproduce the
    // legacy input-major candidate numbering (the round-robin keys);
    // under unbounded per-flow VCs later ports' live numbering can
    // drift from these static bases, but the rrKey is only decisive for
    // the rotating no-qos arbiter, whose VC structure is static.
    std::uint32_t base = 0;
    for (const auto &in : inputs_) {
        in->enumBase = base;
        if (in->kind == InputPort::Kind::Injection) {
            for (std::size_t k = 0; k < in->injectors.size(); ++k)
                in->injectors[k]->slotIdx = static_cast<int>(k);
            base += static_cast<std::uint32_t>(in->injectors.size());
        } else {
            base += static_cast<std::uint32_t>(in->vcs.size());
        }
    }
    slots_.assign(outputs_.size(), {});
    outDirty_.assign(outputs_.size(), 1);
    outWake_.assign(outputs_.size(), 0);
    preemptMemo_.assign(outputs_.size(), {});
    tableOuts_.assign(static_cast<std::size_t>(numTables), {});
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        tableOuts_[static_cast<std::size_t>(outputs_[o]->tableIdx)]
            .push_back(static_cast<int>(o));
    }
}

RouteEntry
Router::routeFor(const NetPacket &pkt) const
{
    // A destination below routeBase_ wraps to a huge index.
    const auto idx = static_cast<std::size_t>(pkt.dst - routeBase_);
    TAQOS_ASSERT(idx < routes_.size(), "router %d has no route to %d",
                 node_, pkt.dst);
    RouteEntry entry = routes_[idx];
    TAQOS_ASSERT(entry.outPort >= 0, "router %d: unroutable dest %d", node_,
                 pkt.dst);
    if (entry.numParallel > 1) {
        // Replicated mesh: spread packets across the parallel channels.
        entry.outPort +=
            static_cast<int>(pkt.id % static_cast<PacketId>(entry.numParallel));
        entry.numParallel = 1;
    }
    return entry;
}

template <class P>
void
Router::collectCandidates(TickContext &ctx)
{
    const P &policy = static_cast<const P &>(*policy_);
    const auto rank = [&](const NetPacket &pkt, const InputPort &in,
                          int outPort) {
        return policy.rank(
            pkt, in.usesCarriedPrio, flowTable_,
            outputs_[static_cast<std::size_t>(outPort)]->tableIdx);
    };
    for (auto &b : best_)
        b.pkt = nullptr;

    std::uint32_t enumIdx = 0;
    for (const auto &inPtr : inputs_) {
        InputPort *in = inPtr.get();
        const Cycle ready = static_cast<Cycle>(in->pipelineDelay - 1);

        if (in->kind == InputPort::Kind::Injection) {
            for (InjectorQueue *inj : in->injectors) {
                ++enumIdx;
                if (inj->queue().empty())
                    continue;
                NetPacket *pkt = inj->queue().front();
                // The retransmission window gates new injections; a NACKed
                // packet already owns its slot.
                if (!pkt->inWindow && !inj->windowOpen())
                    continue;
                if (ctx.now < pkt->queuedCycle + ready)
                    continue;
                // Source-side policy gate (GSF frame budgets): an
                // unadmitted packet stalls its queue.
                if (ctx.gate != nullptr && !ctx.gate->admit(*pkt, ctx.now))
                    continue;
                Candidate cand;
                cand.pkt = pkt;
                cand.port = in;
                cand.vc = -1;
                cand.inj = inj;
                cand.age = pkt->genCycle;
                cand.rrKey = enumIdx;
                const RouteEntry route = routeFor(*pkt);
                cand.outPort = route.outPort;
                cand.dropIdx = route.dropIdx;
                cand.prio = rank(*pkt, *in, cand.outPort);
                auto &best = best_[static_cast<std::size_t>(cand.outPort)];
                if (best.pkt == nullptr ||
                    policy.better(arbKey(cand), arbKey(best), cand.outPort)) {
                    best = cand;
                }
            }
            continue;
        }

        for (int v = 0; v < static_cast<int>(in->vcs.size()); ++v) {
            ++enumIdx;
            const VirtualChannel &vc = in->vcs[static_cast<std::size_t>(v)];
            if (vc.state() != VirtualChannel::State::Reserved)
                continue; // Free, or already draining towards the next hop
            if (!vc.arrived(ctx.now) || ctx.now < vc.headArrival() + ready)
                continue;
            NetPacket *pkt = vc.packet();
            Candidate cand;
            cand.pkt = pkt;
            cand.port = in;
            cand.vc = v;
            cand.age = pkt->genCycle;
            cand.rrKey = enumIdx;
            const RouteEntry route = routeFor(*pkt);
            cand.outPort = route.outPort;
            cand.dropIdx = route.dropIdx;
            cand.prio = rank(*pkt, *in, cand.outPort);
            auto &best = best_[static_cast<std::size_t>(cand.outPort)];
            if (best.pkt == nullptr ||
                policy.better(arbKey(cand), arbKey(best), cand.outPort)) {
                best = cand;
            }
        }
    }
}

template <class P>
void
Router::scanOutput(int outPort, TickContext &ctx)
{
    const auto o = static_cast<std::size_t>(outPort);
    const P &policy = static_cast<const P &>(*policy_);
    const int tableIdx = outputs_[o]->tableIdx;
    const ArbSlot *win = nullptr;
    ArbKey winKey;

    // Earliest purely time-driven change to this output's candidate set.
    // Event-driven changes (frees, enqueues, table charges, window/gate
    // state) dirty the output through the hooks instead.
    Cycle wake = kNoCycle;

    for (const ArbSlot &slot : slots_[o]) {
        if (slot.inj != nullptr) {
            // Window, time, gate: the gate may stamp a GSF frame on
            // admission, so it is asked only of a packet that is
            // otherwise ready, on the same cycles the full scan asks.
            if (!slot.pkt->inWindow && !slot.inj->windowOpen())
                continue;
            if (ctx.now < slot.eligible) {
                wake = std::min(wake, slot.eligible);
                continue;
            }
            if (ctx.gate != nullptr && !ctx.gate->admit(*slot.pkt, ctx.now))
                continue;
        } else if (ctx.now < slot.eligible) {
            wake = std::min(wake, slot.eligible);
            continue;
        }
        const ArbKey key{
            policy.rank(*slot.pkt, slot.carried, flowTable_, tableIdx),
            slot.genCycle, slot.flow, slot.key};
        if (win == nullptr || policy.better(key, winKey, outPort)) {
            win = &slot;
            winKey = key;
        }
    }
    outWake_[o] = wake;

    Candidate &best = best_[o];
    if (win == nullptr) {
        best.pkt = nullptr;
        return;
    }
    best.pkt = win->pkt;
    best.port = win->port;
    best.vc = win->vc;
    best.inj = win->inj;
    best.prio = winKey.prio;
    best.age = winKey.age;
    best.rrKey = winKey.rrKey;
    best.outPort = outPort;
    best.dropIdx = win->dropIdx;
}

void
Router::checkSlots(Cycle now, bool wakes) const
{
    std::size_t expected = 0;
    for (const auto &in : inputs_) {
        for (std::size_t v = 0; v < in->vcs.size(); ++v) {
            const VirtualChannel &vc = in->vcs[v];
            const bool reserved =
                vc.state() == VirtualChannel::State::Reserved;
            TAQOS_ASSERT(reserved == (vc.arbOutput() >= 0),
                         "VC %s/%zu in state %d has slot output %d",
                         in->name.c_str(), v,
                         static_cast<int>(vc.state()), vc.arbOutput());
            expected += reserved ? 1 : 0;
        }
        for (const InjectorQueue *inj : in->injectors) {
            TAQOS_ASSERT(inj->queue().empty() == (inj->headOut < 0),
                         "injector of flow %d: %zu queued, head slot on "
                         "output %d",
                         inj->flow, inj->queue().size(), inj->headOut);
            expected += inj->queue().empty() ? 0 : 1;
        }
    }

    std::size_t held = 0;
    for (std::size_t o = 0; o < slots_.size(); ++o) {
        const int out = static_cast<int>(o);
        std::uint32_t prevKey = 0;
        for (const ArbSlot &slot : slots_[o]) {
            ++held;
            TAQOS_ASSERT(slot.key >= prevKey,
                         "router %d output %d: slots out of enumeration "
                         "order",
                         node_, out);
            prevKey = slot.key;
            NetPacket *pkt = nullptr;
            Cycle readyFrom = 0;
            if (slot.inj != nullptr) {
                TAQOS_ASSERT(slot.vc < 0 && slot.inj->port == slot.port &&
                                 slot.inj->headOut == out &&
                                 !slot.inj->queue().empty(),
                             "router %d output %d: stale injector slot of "
                             "flow %d",
                             node_, out, slot.inj->flow);
                pkt = slot.inj->queue().front();
                readyFrom = pkt->queuedCycle;
            } else {
                const VirtualChannel &vc =
                    slot.port->vcs[static_cast<std::size_t>(slot.vc)];
                TAQOS_ASSERT(vc.state() == VirtualChannel::State::Reserved &&
                                 vc.arbOutput() == out,
                             "stale arbitration slot on %s/%d",
                             slot.port->name.c_str(), slot.vc);
                pkt = vc.packet();
                readyFrom = vc.headArrival();
            }
            const RouteEntry route = routeFor(*pkt);
            const ArbSlot live =
                slotFor(slot.port, pkt, readyFrom, slot.key, route.dropIdx);
            TAQOS_ASSERT(slot.pkt == live.pkt &&
                             slot.eligible == live.eligible &&
                             slot.genCycle == live.genCycle &&
                             slot.flow == live.flow &&
                             slot.carried == live.carried &&
                             slot.dropIdx == live.dropIdx &&
                             route.outPort == out,
                         "router %d output %d: slot %s/%d caches stale "
                         "candidate state",
                         node_, out, slot.port->name.c_str(), slot.vc);
            // A slot no scan has yet seen eligible must have its scan
            // scheduled (a window-stalled injector head is rescanned when
            // an ACK reopens the window).
            const bool windowStalled = slot.inj != nullptr &&
                                       !pkt->inWindow &&
                                       !slot.inj->windowOpen();
            TAQOS_ASSERT(!wakes || slot.eligible < now || windowStalled ||
                             outDirty_[o] != 0 ||
                             outWake_[o] <= slot.eligible,
                         "router %d output %d: slot %s/%d eligible at "
                         "%llu but the output wakes at %llu",
                         node_, out, slot.port->name.c_str(), slot.vc,
                         static_cast<unsigned long long>(slot.eligible),
                         static_cast<unsigned long long>(outWake_[o]));
        }
        TAQOS_ASSERT(!wakes || anyOutDirty_ ||
                         (outDirty_[o] == 0 && minWake_ <= outWake_[o]),
                     "router %d: summary misses output %d's dirty flag or "
                     "wake",
                     node_, out);
    }
    TAQOS_ASSERT(held == expected,
                 "router %d holds %zu arbitration slots for %zu candidates",
                 node_, held, expected);
}

bool
Router::validate(const Candidate &cand) const
{
    if (cand.vc >= 0) {
        const VirtualChannel &vc =
            cand.port->vcs[static_cast<std::size_t>(cand.vc)];
        return vc.state() == VirtualChannel::State::Reserved &&
               vc.packet() == cand.pkt &&
               cand.pkt->state == PacketState::InFlight;
    }
    return !cand.inj->queue().empty() &&
           cand.inj->queue().front() == cand.pkt &&
           cand.pkt->state == PacketState::Queued;
}

void
Router::tryGrant(Candidate &cand, TickContext &ctx)
{
    if (!validate(cand))
        return;
    OutputPort *out = outputs_[static_cast<std::size_t>(cand.outPort)].get();
    NetPacket *pkt = cand.pkt;

    if (!out->linkFree(ctx.now) || out->transfer().active) {
        // Blocked by an ongoing transfer on the output channel. A
        // higher-priority arrival does not interrupt the transfer — but a
        // preemption does (Sec. 4): if the policy judges the inversion to
        // have persisted past its wait threshold, the streaming packet is
        // discarded.
        if (pkt->blockedSince == kNoCycle)
            pkt->blockedSince = ctx.now;
        if (out->transfer().active &&
            policy_->onAllocFail(ctx.now - pkt->blockedSince,
                                 /*xferBlocked=*/true)) {
            tryPreempt(cand,
                       out->drops[static_cast<std::size_t>(cand.dropIdx)]
                           .down,
                       ctx);
        }
        return;
    }
    if (cand.port->group != nullptr && !cand.port->group->freeAt(ctx.now))
        return;

    const bool fromInjection = cand.vc < 0;
    const bool compliant = fromInjection
        ? (ctx.quota != nullptr &&
           ctx.quota->compliant(pkt->flow, pkt->sizeFlits))
        : pkt->rateCompliant;

    OutputPort::Drop &drop =
        out->drops[static_cast<std::size_t>(cand.dropIdx)];
    InputPort *down = drop.down;
    const int vcIdx = down->findFreeVc(ctx.now, compliant);
    if (vcIdx < 0) {
        if (pkt->blockedSince == kNoCycle)
            pkt->blockedSince = ctx.now;
        if (policy_->onAllocFail(ctx.now - pkt->blockedSince,
                                 /*xferBlocked=*/false)) {
            tryPreempt(cand, down, ctx);
        }
        return;
    }
    pkt->blockedSince = kNoCycle;

    if (fromInjection) {
        cand.inj->dequeue();
        pkt->beginAttempt(ctx.now);
        // The compliance mark protects this packet at hops that reuse the
        // source-computed priority (DPS pass-through). Stamp it from the
        // source router's per-output counter — the same basis those hops'
        // upstream arbitration charged — not the source-global meter,
        // which conflates traffic to unrelated destinations.
        pkt->rateCompliant = flowTable_.enabled()
            ? quotaProtected(*pkt, true, out->tableIdx)
            : compliant;
        // The reserved quota meters the source's own demand; a replay is
        // the network's fault and does not burn reserved share.
        if (ctx.quota != nullptr && pkt->attempt == 1)
            ctx.quota->charge(pkt->flow, pkt->sizeFlits);
        if (!pkt->inWindow) {
            pkt->inWindow = true;
            ++cand.inj->outstanding;
        }
        if (ctx.metrics != nullptr)
            ++ctx.metrics->injectedAttempts;
        if (trace_ != nullptr)
            trace_->inject(ctx.now, node_, *pkt);
    }

    // Priority reuse: the next hop (a DPS repeater, or any router without
    // local state for this flow) arbitrates with the value computed here.
    pkt->carriedPrio = cand.prio;
    if (flowTable_.enabled() && !cand.port->usesCarriedPrio) {
        flowTable_.charge(out->tableIdx, pkt->flow, pkt->sizeFlits);
        pkt->logCharge(&flowTable_, out->tableIdx);
    }

    const Cycle headArrival = ctx.now + 1 + static_cast<Cycle>(drop.wireDelay);
    const Cycle tailArrival =
        headArrival + static_cast<Cycle>(pkt->sizeFlits) - 1;
    down->vcs[static_cast<std::size_t>(vcIdx)].reserve(pkt, headArrival,
                                                       tailArrival);
    pkt->addLoc(down, vcIdx);

    const VcRef srcVc = fromInjection ? VcRef{nullptr, -1}
                                      : VcRef{cand.port, cand.vc};
    out->startTransfer(pkt, cand.dropIdx, vcIdx, srcVc, ctx.now);
    ++ctx.stats.hops;
    if (trace_ != nullptr)
        trace_->hop(ctx.now, node_, *down, vcIdx, *pkt);

    if (cand.port->group != nullptr)
        cand.port->group->occupy(ctx.now, pkt->sizeFlits);

    policy_->onGrant(cand.outPort, arbKey(cand));
    // The grant rotated policy state and consumed a candidate: rescan
    // this output next cycle. (The slot hooks above already imply it;
    // kept explicit because onGrant state is invisible to them.)
    dirtyOutput(cand.outPort);
}

bool
Router::quotaProtected(const NetPacket &pkt, bool localState,
                       int tableIdx) const
{
    if (!params_->quotaEnabled)
        return false;
    // "The first N flits from each source [per frame] are non-preemptable":
    // judged against the local bandwidth counter where the router keeps
    // one, or the compliance mark stamped at injection on DPS pass-through
    // paths (priority reuse).
    if (localState) {
        const double cap = params_->quotaProtectFactor *
                           static_cast<double>(params_->quotaFlits(pkt.flow));
        return static_cast<double>(flowTable_.countOf(tableIdx, pkt.flow)) <=
               cap;
    }
    return pkt.rateCompliant;
}

bool
Router::tryPreempt(const Candidate &cand, InputPort *down, TickContext &ctx)
{
    // Priority inversion: the requester is blocked on its output by
    // buffered lower-priority packets (no downstream VC, or the channel is
    // streaming someone else's packet). Discard the lowest-priority
    // blocker, subject to:
    //  - reserved-quota protection ("the first N flits from each source
    //    in a frame are non-preemptable"): a flow whose local bandwidth
    //    counter is still within its provisioned per-frame share cannot be
    //    a victim — with every source transmitting at its fair share all
    //    traffic stays under the cap, throttling preemptions (Sec. 5.3);
    //  - a minimum priority gap (counter noise is not an inversion).
    // Victims are taken from packets *waiting* for this output: the
    // occupants of the downstream VCs and the rival packets buffered at
    // this router's inputs. On equal priority a victim that is not
    // mid-transfer is preferred — discarding work already on a wire costs
    // throughput (Sec. 5.3 notes most victims fall at or near the source).
    const bool localState =
        flowTable_.enabled() && !cand.port->usesCarriedPrio;
    const int tbl =
        outputs_[static_cast<std::size_t>(cand.outPort)]->tableIdx;

    // A victimless search is pure, and its outcome depends only on the
    // requester, its priority, and the buffered-packet/table state on
    // both sides of the contested channel — all tracked by the mutation
    // epochs. A blocked requester retries every cycle past the wait
    // threshold; without the memo those retries rescan identical state.
    PreemptMemo &memo =
        preemptMemo_[static_cast<std::size_t>(cand.outPort)];
    if (!ctx.forceScan && memo.pkt == cand.pkt && memo.prio == cand.prio &&
        memo.down == down && memo.selfEpoch == mutEpoch_ &&
        memo.downEpoch == down->mutEpoch()) {
        return false;
    }

    NetPacket *victim = nullptr;
    std::uint64_t victimPrio = 0;

    auto consider = [&](NetPacket *pkt) {
        if (pkt == nullptr || pkt == cand.pkt || pkt == victim)
            return;
        if (quotaProtected(*pkt, localState, tbl))
            return;
        const std::uint64_t prio = localState
            ? flowTable_.priorityOf(tbl, pkt->flow)
            : pkt->carriedPrio;
        if (prio <= cand.prio ||
            prio - cand.prio <= params_->preemptGapScaled()) {
            return;
        }
        if (victim == nullptr || prio > victimPrio ||
            (prio == victimPrio && victim->numXfers > 0 &&
             pkt->numXfers == 0)) {
            victim = pkt;
            victimPrio = prio;
        }
    };

    // Downstream VC occupants (waiting or still arriving — not the ones
    // already draining onwards).
    for (const auto &vc : down->vcs) {
        if (vc.state() == VirtualChannel::State::Draining)
            continue;
        consider(vc.packet());
    }
    // Rival packets buffered at this router and routed to the same
    // output. The cached slot list of the contested output holds exactly
    // that set, in the enumeration order the full scan would visit (the
    // equal-priority tie favours the first-seen victim, so the order is
    // semantically load-bearing); the legacy reference engine takes the
    // full scan instead.
    if (ctx.forceScan) {
        for (const auto &inPtr : inputs_) {
            for (const auto &vc : inPtr->vcs) {
                if (vc.state() != VirtualChannel::State::Reserved)
                    continue;
                NetPacket *pkt = vc.packet();
                if (pkt == nullptr ||
                    routeFor(*pkt).outPort != cand.outPort) {
                    continue;
                }
                consider(pkt);
            }
        }
    } else {
        for (const ArbSlot &slot :
             slots_[static_cast<std::size_t>(cand.outPort)]) {
            if (slot.inj != nullptr)
                continue; // source-queued packets hold no buffer here
            consider(slot.pkt);
        }
    }

    if (victim == nullptr) {
        memo.pkt = cand.pkt;
        memo.prio = cand.prio;
        memo.down = down;
        memo.selfEpoch = mutEpoch_;
        memo.downEpoch = down->mutEpoch();
        return false;
    }
    killPacket(victim, ctx);
    return true;
}

void
Router::killPacket(NetPacket *victim, TickContext &ctx)
{
    TAQOS_ASSERT(victim->state == PacketState::InFlight,
                 "preempting packet in state %d",
                 static_cast<int>(victim->state));

    // Record the kill before the teardown below frees the victim's VCs,
    // so the trace shows K and then the chain's F events.
    if (trace_ != nullptr)
        trace_->kill(ctx.now, node_, *victim);

    double wasted = victim->hopsThisAttempt;
    while (victim->numXfers > 0)
        wasted += victim->xfers[0]->cancelTransfer(ctx.now);

    for (int i = 0; i < victim->numLocs; ++i) {
        const VcRef &loc = victim->locs[static_cast<std::size_t>(i)];
        loc.port->vcs[static_cast<std::size_t>(loc.vc)].free(
            ctx.now + static_cast<Cycle>(loc.port->creditDelay));
    }
    victim->clearLocs();
    victim->state = PacketState::Dropped;
    ++victim->preemptions;

    // Refund the attempt's bandwidth charges: the discarded service must
    // not count against the victim's virtual clock.
    for (int i = 0; i < victim->numCharges; ++i) {
        auto *table = static_cast<FlowTable *>(
            victim->charges[static_cast<std::size_t>(i)].table);
        table->uncharge(victim->charges[static_cast<std::size_t>(i)].tableIdx,
                        victim->flow, victim->sizeFlits);
    }
    victim->numCharges = 0;

    if (ctx.metrics != nullptr) {
        ++ctx.metrics->preemptionEvents;
        ctx.metrics->wastedHops += wasted;
    }
    TAQOS_ASSERT(ctx.ack != nullptr, "PVC preemption requires an ACK network");
    ctx.ack->send(ctx.now, std::abs(node_ - victim->src), victim,
                  /*isNack=*/true);
    TAQOS_LOG_DEBUG("cycle %llu: node %d preempted packet %llu "
                    "(flow %d, %.1f hops wasted)",
                    static_cast<unsigned long long>(ctx.now), node_,
                    static_cast<unsigned long long>(victim->id),
                    victim->flow, wasted);
}

void
Router::setTraceSink(TraceSink *sink)
{
    trace_ = sink;
    for (const auto &in : inputs_) {
        if (sink != nullptr)
            sink->registerPort(*in, /*terminal=*/false);
        in->trace = sink;
    }
}

void
Router::tickCompletions(Cycle now)
{
    // nextCompletion is a lower bound on the earliest active transfer's
    // tail departure (a cancellation can only raise the true minimum), so
    // ticks before it are exact no-ops for every output.
    if (activeXfers_ == 0 || now < nextCompletion_)
        return;
    Cycle next = kNoCycle;
    for (const auto &out : outputs_) {
        out->tickCompletion(now);
        const OutputPort::Transfer &xfer = out->transfer();
        if (xfer.active && xfer.tailDepart < next)
            next = xfer.tailDepart;
    }
    nextCompletion_ = next;
}

void
Router::tickArbitrate(TickContext &ctx)
{
    ++ctx.stats.routerTicks;
    (this->*arbitrate_)(ctx);
}

template <class P>
void
Router::arbitrate(TickContext &ctx)
{
    if (ctx.forceScan) {
        collectCandidates<P>(ctx);
        for (std::size_t o = 0; o < outputs_.size(); ++o) {
            if (best_[o].pkt != nullptr)
                tryGrant(best_[o], ctx);
        }
        return;
    }

    // A cached winner set stays valid until an event dirties its output
    // or a scheduled eligibility comes due. All scans run before any
    // grant (the legacy collect-then-grant split), so a grant's side
    // effects never feed a same-cycle rescan the always-tick engine
    // would not have done; grant attempts on cached winners re-run every
    // cycle regardless, so time-driven grant conditions (link free,
    // credit visibility, crossbar slots, preemption wait thresholds) are
    // evaluated on exactly the cycles the always-tick engine would.
    if (anyOutDirty_ || ctx.now >= minWake_) {
        Cycle minWake = kNoCycle;
        int winners = 0;
        for (std::size_t o = 0; o < outputs_.size(); ++o) {
            if (outDirty_[o] != 0 || ctx.now >= outWake_[o]) {
                scanOutput<P>(static_cast<int>(o), ctx);
                ++ctx.stats.outputScans;
                outDirty_[o] = 0;
            }
            if (outWake_[o] < minWake)
                minWake = outWake_[o];
            if (best_[o].pkt != nullptr)
                ++winners;
        }
        anyOutDirty_ = false;
        minWake_ = minWake;
        winners_ = winners;
    }
    if (winners_ == 0)
        return;
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        if (best_[o].pkt != nullptr)
            tryGrant(best_[o], ctx);
    }
}

void
Router::tick(TickContext &ctx)
{
    tickCompletions(ctx.now);
    tickArbitrate(ctx);
}

void
Router::rebuildFromRestore()
{
    for (const auto &in : inputs_)
        in->recountHot();
    occupiedVcs_ = 0;
    queuedPkts_ = 0;
    activeXfers_ = 0;
    nextCompletion_ = kNoCycle;
    for (const auto &in : inputs_) {
        occupiedVcs_ += in->occupied();
        queuedPkts_ += in->queuedPackets();
    }
    for (const auto &out : outputs_) {
        const OutputPort::Transfer &xfer = out->transfer();
        if (xfer.active) {
            ++activeXfers_;
            if (xfer.tailDepart < nextCompletion_)
                nextCompletion_ = xfer.tailDepart;
        }
    }

    // Rebuild the per-output slot lists from scratch: exactly the slots
    // the incremental hooks would be maintaining — every Reserved VC
    // (Draining VCs surrendered theirs on drain start) and every
    // non-empty injector queue's head.
    for (auto &list : slots_)
        list.clear();
    for (const auto &in : inputs_) {
        for (std::size_t v = 0; v < in->vcs.size(); ++v) {
            VirtualChannel &vc = in->vcs[v];
            vc.setArbOutput(-1);
            if (vc.state() == VirtualChannel::State::Reserved)
                addVcSlot(in.get(), static_cast<int>(v));
        }
        for (InjectorQueue *inj : in->injectors) {
            inj->headOut = -1;
            if (!inj->queue().empty())
                updateInjectorSlot(*inj);
        }
    }

    // Drop every cached arbitration result. The first tick rescans all
    // outputs — the same full invalidation a frame flush performs, which
    // the always-tick cross-check proves bit-identical.
    for (auto &b : best_)
        b = Candidate{};
    std::fill(outDirty_.begin(), outDirty_.end(), 1);
    std::fill(outWake_.begin(), outWake_.end(), 0);
    preemptMemo_.assign(outputs_.size(), {});
    anyOutDirty_ = true;
    minWake_ = 0;
    winners_ = 0;
    mutEpoch_ = 0;
    inWorklist_ = false; // the engine repopulates its pending list
}

void
Router::frameFlush()
{
    if (flowTable_.enabled())
        flowTable_.flush();
    policy_->rollover();
}

} // namespace taqos
