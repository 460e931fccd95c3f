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
    rng_.reserve(static_cast<std::size_t>(flows));
    genProb_.reserve(static_cast<std::size_t>(flows));
    for (FlowId f = 0; f < flows; ++f) {
        rng_.push_back(master.split());
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
        traffic_.activeFlows.assign(rng_.size(), true);
    traffic_.activeFlows[static_cast<std::size_t>(flow)] = active;
    const double rate = active ? traffic_.rateOf(flow) : 0.0;
    genProb_[static_cast<std::size_t>(flow)] =
        rate / traffic_.meanPacketFlits();
}

NodeId
TrafficGenerator::pickDest(FlowId flow)
{
    const NodeId src = col_.nodeOfFlow(flow);
    Rng &rng = rng_[static_cast<std::size_t>(flow)];
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

void
TrafficGenerator::tick(Cycle now, PacketPool &pool,
                       std::vector<InjectorQueue> &injectors,
                       SimMetrics &metrics)
{
    if (now >= traffic_.genUntil)
        return;

    // A modulator reshapes this cycle's probabilities; the steady path
    // reads genProb_ directly and is untouched (bit-identical to the
    // modulator-free build). A zero scale freezes the flow's stream —
    // no draw — keeping the sequences deterministic through bursts.
    const auto flows = static_cast<std::size_t>(col_.numFlows());
    const double *prob = genProb_.data();
    if (mod_ != nullptr) {
        mod_->advance(now);
        effProb_.resize(flows);
        for (std::size_t f = 0; f < flows; ++f) {
            effProb_[f] = std::min(
                1.0, genProb_[f] * mod_->scaleOf(static_cast<FlowId>(f)));
        }
        prob = effProb_.data();
    }

    // Batched Bernoulli pass. Each flow's stream consumes exactly the
    // draws the per-flow bernoulli() calls would (one per cycle while
    // 0 < p < 1; none at the degenerate probabilities), so the sequences
    // stay bit-identical — only the loop structure changes.
    draws_.resize(flows);
    for (std::size_t f = 0; f < flows; ++f) {
        const double p = prob[f];
        if (p > 0.0 && p < 1.0)
            draws_[f] = rng_[f].nextU64();
    }

    for (FlowId f = 0; f < col_.numFlows(); ++f) {
        const double p = prob[static_cast<std::size_t>(f)];
        if (p <= 0.0)
            continue;
        Rng &rng = rng_[static_cast<std::size_t>(f)];
        if (p < 1.0 &&
            Rng::doubleFromBits(draws_[static_cast<std::size_t>(f)]) >= p) {
            continue;
        }

        InjectorQueue &inj = injectors[static_cast<std::size_t>(f)];
        // Size and destination are drawn even when suppressed so that the
        // downstream random sequence is unperturbed.
        const int size = rng.bernoulli(traffic_.shortPacketProb)
            ? traffic_.shortFlits
            : traffic_.longFlits;
        const NodeId dest = pickDest(f);

        if (inj.queue().size() >= traffic_.maxQueueDepth) {
            ++suppressed_;
            continue;
        }

        NetPacket *pkt = pool.alloc();
        pkt->flow = f;
        pkt->src = col_.nodeOfFlow(f);
        pkt->dst = dest;
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
}

std::vector<std::uint64_t>
TrafficGenerator::packState() const
{
    std::vector<std::uint64_t> w;
    w.reserve(rng_.size() * 4 + 1);
    for (const Rng &rng : rng_) {
        const auto s = rng.state();
        w.insert(w.end(), s.begin(), s.end());
    }
    w.push_back(suppressed_);
    if (mod_ != nullptr) {
        const auto mw = mod_->packState();
        w.insert(w.end(), mw.begin(), mw.end());
    }
    return w;
}

void
TrafficGenerator::unpackState(const std::vector<std::uint64_t> &words)
{
    const std::size_t base = rng_.size() * 4 + 1;
    TAQOS_ASSERT(mod_ != nullptr ? words.size() >= base
                                 : words.size() == base,
                 "traffic-generator restore geometry mismatch");
    std::size_t i = 0;
    for (Rng &rng : rng_) {
        rng.setState({words[i], words[i + 1], words[i + 2], words[i + 3]});
        i += 4;
    }
    suppressed_ = words[i++];
    if (mod_ != nullptr)
        mod_->unpackState({words.begin() +
                               static_cast<std::ptrdiff_t>(i),
                           words.end()});
}

} // namespace taqos
