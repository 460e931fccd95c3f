/// \file vc.h
/// A virtual channel under virtual cut-through flow control.
///
/// Each VC is sized to hold the largest packet (4 flits), so "a free VC"
/// is exactly "buffer space for a whole packet" — the VCT allocation
/// condition. A VC is Reserved the moment an upstream router wins
/// allocation for it; the head flit arrives `wireDelay` later and the
/// packet becomes arbitrable downstream (cut-through).
#pragma once

#include "common/types.h"
#include "noc/packet.h"

namespace taqos {

class InputPort;

class VirtualChannel {
  public:
    enum class State : std::uint8_t {
        Free,     ///< no packet; allocatable once the credit is visible
        Reserved, ///< allocated; flits arriving (or queued to arrive)
        Draining, ///< packet is being transmitted out of this VC
    };

    State state() const { return state_; }
    NetPacket *packet() const { return pkt_; }
    Cycle headArrival() const { return headArrival_; }
    Cycle tailArrival() const { return tailArrival_; }

    /// Has the head flit physically arrived (packet arbitrable)?
    bool arrived(Cycle now) const
    {
        return state_ != State::Free && now >= headArrival_;
    }

    /// May an upstream allocator take this VC at `now`? Models the credit
    /// round trip: a freed VC becomes visible after the credit delay.
    bool allocatable(Cycle now) const
    {
        return state_ == State::Free && now >= freeVisibleAt_;
    }

    /// Reserve for an incoming packet.
    void reserve(NetPacket *pkt, Cycle headArrival, Cycle tailArrival);

    /// Mark the packet as being transmitted out (virtual cut-through keeps
    /// it resident until the tail departs).
    void startDrain();

    /// Release; the upstream allocator sees the credit at `visibleAt`.
    void free(Cycle visibleAt);

    /// Flits of this packet physically present in the buffer at `now`
    /// (for preemption waste accounting).
    int flitsPresent(Cycle now) const;

    /// Attach the port this VC belongs to. State transitions then notify
    /// the port (router activity arming, the ejection due list, the flit
    /// trace); a detached VC (unit tests, scratch buffers) is tracked by
    /// nobody. Wired by Network::finalizeRouters.
    void setPort(InputPort *port) { port_ = port; }
    InputPort *port() const { return port_; }

    /// Restore: overwrite the full VC state without firing the port
    /// hooks (the restoring router recomputes its counts and re-adds
    /// arbitration slots, and the engine re-arms its ejection due list,
    /// afterwards, so the usual notify-on-transition path must stay
    /// silent). freeVisibleAt matters even
    /// for Free VCs — an in-flight credit is part of the state.
    void restoreRaw(State state, NetPacket *pkt, Cycle headArrival,
                    Cycle tailArrival, Cycle freeVisibleAt)
    {
        state_ = state;
        pkt_ = pkt;
        arbOutput_ = -1;
        headArrival_ = headArrival;
        tailArrival_ = tailArrival;
        freeVisibleAt_ = freeVisibleAt;
    }

    Cycle freeVisibleAt() const { return freeVisibleAt_; }

    /// Output whose candidate list holds this VC's arbitration slot
    /// (-1 = none: Free, Draining, or owned by a slot-less port). Managed
    /// by the owning Router.
    int arbOutput() const { return arbOutput_; }
    void setArbOutput(int out) { arbOutput_ = out; }

  private:
    State state_ = State::Free;
    NetPacket *pkt_ = nullptr;
    InputPort *port_ = nullptr;
    int arbOutput_ = -1;
    Cycle headArrival_ = kNoCycle;
    Cycle tailArrival_ = kNoCycle;
    Cycle freeVisibleAt_ = 0;
};

} // namespace taqos
