/// \file reference_generator.h
/// Test-only reference: the per-cycle Bernoulli generator and ON/OFF
/// chain that the look-ahead streams replaced. Every flow draws once per
/// cycle while 0 < p < 1, every chain once per cycle while its flip
/// probability is strictly between 0 and 1, and a ramp flow takes the
/// wave's scale at every cycle. The look-ahead TrafficGenerator must
/// match it packet for packet and word for word (test_lookahead.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "noc/metrics.h"
#include "noc/packet.h"
#include "noc/ports.h"
#include "topo/topology.h"
#include "traffic/dynamic.h"
#include "traffic/pattern.h"
#include "traffic/workload_spec.h"

namespace taqos::reference {

/// The per-cycle generator, bursty and ramp modulation included.
class PerCycleGenerator {
  public:
    PerCycleGenerator(const ColumnConfig &col, const TrafficConfig &traffic,
                      const WorkloadSpec &workload = {})
        : col_(col), traffic_(traffic), spec_(workload)
    {
        Rng master(traffic_.seed);
        for (FlowId f = 0; f < col_.numFlows(); ++f) {
            rng_.push_back(master.split());
            const double rate =
                traffic_.flowActive(f) ? traffic_.rateOf(f) : 0.0;
            genProb_.push_back(rate / traffic_.meanPacketFlits());
        }
        if (spec_.kind == WorkloadKind::Bursty) {
            // The modulator salt of traffic/dynamic.cpp.
            Rng chains(splitmix64(traffic_.seed ^ 0x7a05'0b57'0000'0001ull));
            const double pOn =
                spec_.burstOn / (spec_.burstOn + spec_.burstOff);
            for (FlowId f = 0; f < col_.numFlows(); ++f) {
                chain_.push_back(chains.split());
                on_.push_back(chain_.back().nextDouble() < pOn);
            }
        }
    }

    void setFlowActive(FlowId flow, bool active)
    {
        if (traffic_.activeFlows.empty())
            traffic_.activeFlows.assign(rng_.size(), true);
        traffic_.activeFlows[static_cast<std::size_t>(flow)] = active;
        const double rate = active ? traffic_.rateOf(flow) : 0.0;
        genProb_[static_cast<std::size_t>(flow)] =
            rate / traffic_.meanPacketFlits();
    }

    void tick(Cycle now, PacketPool &pool,
              std::vector<InjectorQueue> &injectors, SimMetrics &metrics)
    {
        if (now >= traffic_.genUntil)
            return;
        for (std::size_t f = 0; f < chain_.size(); ++f) {
            const double flip = on_[f] ? spec_.burstOff : spec_.burstOn;
            if (chain_[f].bernoulli(flip))
                on_[f] = !on_[f];
        }
        for (FlowId f = 0; f < col_.numFlows(); ++f) {
            const auto i = static_cast<std::size_t>(f);
            double p = genProb_[i];
            if (spec_.kind == WorkloadKind::Bursty)
                p = std::min(1.0, p * (on_[i] ? spec_.burstGain : 0.0));
            else if (spec_.kind == WorkloadKind::Ramp)
                p = std::min(1.0, p * RampModulator::scaleAt(spec_, now));
            if (p <= 0.0)
                continue;
            Rng &rng = rng_[i];
            if (p < 1.0 && rng.nextDouble() >= p)
                continue;

            InjectorQueue &inj = injectors[i];
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

    std::uint64_t suppressed() const { return suppressed_; }
    bool onState(FlowId flow) const
    {
        return on_[static_cast<std::size_t>(flow)];
    }

    /// The parent's checkpoint words: flow streams, suppression counter,
    /// then (bursty) chain streams and the ON bits.
    std::vector<std::uint64_t> packState() const
    {
        std::vector<std::uint64_t> w;
        for (const Rng &rng : rng_) {
            const auto s = rng.state();
            w.insert(w.end(), s.begin(), s.end());
        }
        w.push_back(suppressed_);
        if (spec_.kind != WorkloadKind::Bursty)
            return w;
        for (const Rng &rng : chain_) {
            const auto s = rng.state();
            w.insert(w.end(), s.begin(), s.end());
        }
        for (std::size_t word = 0; word < (on_.size() + 63) / 64; ++word) {
            std::uint64_t bits = 0;
            for (std::size_t b = 0; b < 64 && word * 64 + b < on_.size();
                 ++b) {
                if (on_[word * 64 + b])
                    bits |= 1ull << b;
            }
            w.push_back(bits);
        }
        return w;
    }

  private:
    NodeId pickDest(FlowId flow)
    {
        const NodeId src = col_.nodeOfFlow(flow);
        Rng &rng = rng_[static_cast<std::size_t>(flow)];
        switch (traffic_.pattern) {
          case TrafficPattern::UniformRandom: {
            NodeId d = static_cast<NodeId>(rng.nextBelow(
                static_cast<std::uint64_t>(col_.numNodes - 1)));
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

    ColumnConfig col_;
    TrafficConfig traffic_;
    WorkloadSpec spec_;
    std::vector<Rng> rng_;
    std::vector<double> genProb_;
    std::vector<Rng> chain_;
    std::vector<bool> on_;
    std::uint64_t suppressed_ = 0;
};

} // namespace taqos::reference
