#include "traffic/generator.h"

#include <algorithm>

#include "common/assert.h"
#include "traffic/dynamic.h"

namespace taqos {

TrafficGenerator::TrafficGenerator(const ColumnConfig &col,
                                   const TrafficConfig &traffic,
                                   const WorkloadSpec &workload,
                                   std::vector<FlowInjection> origins)
    : col_(col), traffic_(traffic), origins_(std::move(origins))
{
    const int perBlock = col_.numFlows();
    if (origins_.empty()) {
        origins_.resize(static_cast<std::size_t>(perBlock));
        for (FlowId f = 0; f < perBlock; ++f)
            origins_[static_cast<std::size_t>(f)].src = col_.nodeOfFlow(f);
    }
    const std::size_t flows = origins_.size();
    TAQOS_ASSERT(flows % static_cast<std::size_t>(perBlock) == 0,
                 "%zu flows do not fill blocks of %d", flows, perBlock);
    const int blocks = static_cast<int>(flows) / perBlock;
    streams_.resize(flows);
    for (int g = 0; g < blocks; ++g) {
        Rng master(blockSeed(traffic_.seed, g));
        for (int f = 0; f < perBlock; ++f)
            streams_[static_cast<std::size_t>(g * perBlock + f)].at =
                master.split();
    }
    genProb_.reserve(flows);
    for (std::size_t f = 0; f < flows; ++f)
        genProb_.push_back(genProbOf(f));
    mod_ = makeRateModulator(workload, static_cast<int>(flows),
                             traffic_.seed, blocks);
}

TrafficGenerator::~TrafficGenerator() = default;

double
TrafficGenerator::genProbOf(std::size_t f) const
{
    const auto flow = static_cast<FlowId>(f);
    if (origins_[f].src == kInvalidNode || !traffic_.flowActive(flow))
        return 0.0;
    return traffic_.rateOf(flow) / traffic_.meanPacketFlits();
}

void
TrafficGenerator::setFlowActive(FlowId flow, bool active)
{
    const auto f = static_cast<std::size_t>(flow);
    TAQOS_ASSERT(!active || origins_[f].src != kInvalidNode,
                 "flow %d has no origin to generate at", flow);
    if (traffic_.activeFlows.empty())
        traffic_.activeFlows.assign(streams_.size(), true);
    traffic_.activeFlows[f] = active;
    const double p = genProbOf(f);
    if (p == genProb_[f])
        return;
    if (next_ != kNoCycle) {
        // Re-base the flow where it stands; its search restarts at the
        // next tick under the new probability.
        streams_[f].at = standing(f);
        streams_[f].restartAt(next_);
        nextDue_ = std::min(nextDue_, next_);
    }
    genProb_[f] = p;
}

NodeId
TrafficGenerator::pickDest(std::size_t f, NodeId src)
{
    Rng &rng = streams_[f].at;
    switch (traffic_.pattern) {
      case TrafficPattern::UniformRandom: {
        // Uniform over the other nodes; local terminal accesses do not
        // exercise the column network.
        NodeId d = static_cast<NodeId>(
            rng.nextBelow(static_cast<std::uint64_t>(col_.numNodes - 1)));
        if (d >= src)
            ++d;
        return d;
      }
      case TrafficPattern::Tornado:
        return static_cast<NodeId>((src + col_.numNodes / 2) %
                                   col_.numNodes);
      case TrafficPattern::Hotspot:
        return traffic_.hotspotNode;
    }
    TAQOS_UNREACHABLE("bad pattern");
}

Event
TrafficGenerator::scan(std::size_t f, Rng &rng, Cycle limit) const
{
    const Cycle from = streams_[f].from;
    if (mod_ == nullptr)
        return scanTrial(rng, Trial::packet(genProb_[f]), from, limit);
    return mod_->scan(static_cast<FlowId>(f), genProb_[f], rng, from, limit);
}

void
TrafficGenerator::search(std::size_t f)
{
    LookaheadStream &s = streams_[f];
    s.ahead = s.at;
    const Event e = scan(f, s.ahead, traffic_.genUntil);
    s.due = e.at;
    s.hit = e.hit;
}

Rng
TrafficGenerator::standing(std::size_t f) const
{
    Rng rng = streams_[f].at;
    if (next_ == kNoCycle)
        return rng;
    // Every success before the boundary has been generated, so the
    // replay of the trials from the last event to it only fails.
    const Event e = scan(f, rng, next_);
    TAQOS_ASSERT(!e.hit, "flow %zu skipped a packet before cycle %llu", f,
                 static_cast<unsigned long long>(next_));
    return rng;
}

void
TrafficGenerator::rebase(Cycle now)
{
    for (std::size_t f = 0; f < streams_.size(); ++f) {
        streams_[f].at = standing(f);
        streams_[f].restartAt(now);
    }
    if (mod_ != nullptr)
        mod_->rebase(next_, now);
    nextDue_ = now;
}

void
TrafficGenerator::visit(std::size_t f, Cycle now, PacketPool &pool,
                        std::vector<InjectorQueue> &injectors,
                        SimMetrics &metrics)
{
    LookaheadStream &s = streams_[f];
    if (mod_ != nullptr)
        mod_->advance(static_cast<FlowId>(f), now);
    const bool packet = s.hit;
    s.commit();
    if (!packet) {
        // A stop: search on under the probability that holds from now.
        search(f);
        if (s.due != now)
            return;
        s.commit();
    }

    const FlowInjection &o = origins_[f];
    InjectorQueue &inj = o.row != nullptr ? *o.row : injectors[f];
    // Size and destination are drawn even when suppressed so that the
    // downstream random sequence is unperturbed.
    const int size = s.at.bernoulli(traffic_.shortPacketProb)
        ? traffic_.shortFlits
        : traffic_.longFlits;
    const NodeId dest = pickDest(f, o.src - o.base);
    TAQOS_ASSERT(dest >= 0 && dest < col_.numNodes,
                 "generated destination %d outside the column", dest);
    search(f);

    if (inj.queue().size() >= traffic_.maxQueueDepth) {
        ++suppressed_;
        return;
    }

    NetPacket *pkt = pool.alloc();
    pkt->flow = static_cast<FlowId>(f);
    pkt->src = o.src;
    if (o.row != nullptr) {
        // The row mesh carries the packet to the block-entry node; the
        // handoff there sends it on to its real destination.
        pkt->dst = o.entry;
        pkt->finalDst = o.base + dest;
    } else {
        pkt->dst = o.base + dest;
    }
    pkt->sizeFlits = size;
    pkt->genCycle = now;
    pkt->queuedCycle = now;
    pkt->state = PacketState::Queued;
    pkt->measured = metrics.inWindow(now);
    inj.enqueue(pkt);

    ++metrics.generatedPackets;
    metrics.generatedFlits += static_cast<std::uint64_t>(size);
    if (pkt->measured)
        ++metrics.measuredGenerated;
}

void
TrafficGenerator::tick(Cycle now, PacketPool &pool,
                       std::vector<InjectorQueue> &injectors,
                       SimMetrics &metrics)
{
    if (now >= traffic_.genUntil)
        return;
    if (now != next_)
        rebase(now);
    next_ = now + 1;
    if (now < nextDue_)
        return;

    // Visit the flows due now, in flow order; each one's next event lies
    // past `now`, and the earliest of them is the next cycle to look at.
    Cycle next = kNoCycle;
    for (std::size_t f = 0; f < streams_.size(); ++f) {
        TAQOS_ASSERT(streams_[f].due >= now,
                     "flow %zu's event at cycle %llu was skipped", f,
                     static_cast<unsigned long long>(streams_[f].due));
        if (streams_[f].due == now)
            visit(f, now, pool, injectors, metrics);
        next = std::min(next, streams_[f].due);
    }
    nextDue_ = next;
}

std::vector<std::uint64_t>
TrafficGenerator::packState() const
{
    std::vector<std::uint64_t> w;
    w.reserve(streams_.size() * 4 + 1);
    for (std::size_t f = 0; f < streams_.size(); ++f) {
        const auto s = standing(f).state();
        w.insert(w.end(), s.begin(), s.end());
    }
    w.push_back(suppressed_);
    if (mod_ != nullptr) {
        const auto mw = mod_->packState(next_);
        w.insert(w.end(), mw.begin(), mw.end());
    }
    return w;
}

void
TrafficGenerator::unpackState(const std::vector<std::uint64_t> &words)
{
    const std::size_t base = streams_.size() * 4 + 1;
    TAQOS_ASSERT(mod_ != nullptr ? words.size() >= base
                                 : words.size() == base,
                 "traffic-generator restore geometry mismatch");
    std::size_t i = 0;
    for (LookaheadStream &s : streams_) {
        s.at.setState({words[i], words[i + 1], words[i + 2], words[i + 3]});
        i += 4;
    }
    suppressed_ = words[i++];
    if (mod_ != nullptr)
        mod_->unpackState({words.begin() +
                               static_cast<std::ptrdiff_t>(i),
                           words.end()});
    // The streams stand where they were saved; the next tick primes
    // them at its cycle.
    next_ = kNoCycle;
    nextDue_ = kNoCycle;
}

} // namespace taqos
