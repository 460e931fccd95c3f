#include "traffic/generator.h"

#include <algorithm>

#include "common/assert.h"
#include "traffic/dynamic.h"

namespace taqos {

TrafficGenerator::TrafficGenerator(const ColumnConfig &col,
                                   const TrafficConfig &traffic)
    : col_(col), traffic_(traffic)
{
    Rng master(traffic_.seed);
    const int flows = col_.numFlows();
    streams_.resize(static_cast<std::size_t>(flows));
    genProb_.reserve(static_cast<std::size_t>(flows));
    for (FlowId f = 0; f < flows; ++f) {
        streams_[static_cast<std::size_t>(f)].at = master.split();
        const double rate =
            traffic_.flowActive(f) ? traffic_.rateOf(f) : 0.0;
        genProb_.push_back(rate / traffic_.meanPacketFlits());
    }
}

TrafficGenerator::TrafficGenerator(const ColumnConfig &col,
                                   const TrafficConfig &traffic,
                                   const WorkloadSpec &workload)
    : TrafficGenerator(col, traffic)
{
    mod_ = makeRateModulator(workload, col_.numFlows(), traffic_.seed);
}

TrafficGenerator::~TrafficGenerator() = default;

void
TrafficGenerator::setFlowActive(FlowId flow, bool active)
{
    if (traffic_.activeFlows.empty())
        traffic_.activeFlows.assign(streams_.size(), true);
    const auto f = static_cast<std::size_t>(flow);
    traffic_.activeFlows[f] = active;
    const double rate = active ? traffic_.rateOf(flow) : 0.0;
    const double p = rate / traffic_.meanPacketFlits();
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
TrafficGenerator::pickDest(FlowId flow)
{
    const NodeId src = col_.nodeOfFlow(flow);
    Rng &rng = streams_[static_cast<std::size_t>(flow)].at;
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

    const auto flow = static_cast<FlowId>(f);
    InjectorQueue &inj = injectors[f];
    // Size and destination are drawn even when suppressed so that the
    // downstream random sequence is unperturbed.
    const int size = s.at.bernoulli(traffic_.shortPacketProb)
        ? traffic_.shortFlits
        : traffic_.longFlits;
    const NodeId dest = pickDest(flow);
    search(f);

    if (inj.queue().size() >= traffic_.maxQueueDepth) {
        ++suppressed_;
        return;
    }

    NetPacket *pkt = pool.alloc();
    pkt->flow = flow;
    pkt->src = col_.nodeOfFlow(flow);
    pkt->dst = dest;
    pkt->sizeFlits = size;
    pkt->genCycle = now;
    pkt->queuedCycle = now;
    pkt->state = PacketState::Queued;
    pkt->measured = metrics.inWindow(now);
    inj.enqueue(pkt);
    fired_.push_back(flow);

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
    fired_.clear();
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
