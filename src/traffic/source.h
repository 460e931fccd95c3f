/// \file source.h
/// The traffic-source interface the NetSim engine drives once per cycle.
/// Implementations push newly generated packets into the network's
/// per-flow injector queues: TrafficGenerator (stochastic; on a fabric
/// it also fills the compute nodes' row queues) and TraceReplayer
/// (deterministic replay).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "noc/metrics.h"
#include "noc/packet.h"
#include "noc/ports.h"

namespace taqos {

class TrafficSource {
  public:
    virtual ~TrafficSource() = default;

    /// Generate this cycle's packets. `injectors` is the network's
    /// canonical per-flow queue vector (Network::injectors()).
    virtual void tick(Cycle now, PacketPool &pool,
                      std::vector<InjectorQueue> &injectors,
                      SimMetrics &metrics) = 0;

    /// Checkpointing: the source's mutable state (RNG streams, replay
    /// cursors, suppression counters) as an opaque word vector. A
    /// stateful source MUST override both or restored runs diverge;
    /// unpackState runs on a freshly built source of the same
    /// configuration.
    virtual std::vector<std::uint64_t> packState() const { return {}; }
    virtual void unpackState(const std::vector<std::uint64_t> &words)
    {
        (void)words;
    }
};

} // namespace taqos
