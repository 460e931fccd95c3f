/// \file pattern.h
/// Synthetic traffic patterns of the evaluation (Sec. 4): uniform random,
/// tornado, and hotspot, with stochastic 1- and 4-flit packets.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace taqos {

enum class TrafficPattern {
    UniformRandom, ///< each packet to a uniformly random other node
    Tornado,       ///< node i -> (i + N/2) mod N: worst case for rings/meshes
    Hotspot,       ///< everything to one terminal (fairness stressor)
};

const char *patternName(TrafficPattern pattern);
std::optional<TrafficPattern> parsePattern(const std::string &name);

struct TrafficConfig {
    TrafficPattern pattern = TrafficPattern::UniformRandom;

    /// Injection rate per injector, flits/cycle, applied to every active
    /// flow unless `flowRates` overrides it.
    double injectionRate = 0.05;

    /// Per-flow injection-rate overrides (flits/cycle); negative, NaN and
    /// absent entries fall back to `injectionRate`. Sized numFlows when
    /// used.
    std::vector<double> flowRates;

    /// Flows allowed to inject; empty = all flows active.
    std::vector<bool> activeFlows;

    NodeId hotspotNode = 0;

    /// Probability a packet is short (1 flit); the rest are 4-flit
    /// (request/reply mix).
    double shortPacketProb = 0.5;
    int shortFlits = 1;
    int longFlits = 4;

    /// Stop generating at this cycle (completion-time workloads);
    /// kNoCycle = open-ended.
    Cycle genUntil = kNoCycle;

    /// Source-queue cap: generation pauses while a flow's queue is this
    /// deep (bounds memory far past saturation).
    std::size_t maxQueueDepth = 5000;

    std::uint64_t seed = 0x7a05c0de;

    double meanPacketFlits() const
    {
        return shortPacketProb * shortFlits +
               (1.0 - shortPacketProb) * longFlits;
    }

    bool flowActive(FlowId flow) const
    {
        return activeFlows.empty() ||
               activeFlows[static_cast<std::size_t>(flow)];
    }

    double rateOf(FlowId flow) const
    {
        if (static_cast<std::size_t>(flow) < flowRates.size() &&
            flowRates[static_cast<std::size_t>(flow)] >= 0.0) {
            return flowRates[static_cast<std::size_t>(flow)];
        }
        return injectionRate;
    }
};

} // namespace taqos
