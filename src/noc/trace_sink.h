/// \file trace_sink.h
/// Observer interface for the flit-trace recording layer.
///
/// The engine, routers and ports already funnel every semantically
/// meaningful state change through the activity hooks (ports.h); a
/// TraceSink taps the same sites to emit an event stream an *independent*
/// checker (src/verify) can replay. The interface lives at the noc layer
/// so the router and port code can call it without depending on the sim
/// or verify layers; the concrete recorder is sim/trace_record.h.
///
/// Hooks that run inside a router tick carry the cycle explicitly (the
/// TickContext clock); port-level hooks fire synchronously inside those
/// and use the sink's notion of "now" (noteCycle, advanced once per
/// engine step and bumped by any explicit-cycle event, so out-of-band
/// calls — e.g. a test killing a packet between steps — stay ordered).
#pragma once

#include "common/types.h"

namespace taqos {

class InputPort;
struct NetPacket;

class TraceSink {
  public:
    virtual ~TraceSink();

    /// Announce a port before any event references it (identity, node,
    /// whether it is a terminal ejection buffer). Called once per port by
    /// Network::setTraceSink.
    virtual void registerPort(const InputPort &port, bool terminal) = 0;

    /// The engine entered cycle `now` (called at the top of every step).
    virtual void noteCycle(Cycle now) = 0;

    /// A source-queued packet won injection arbitration at `node`
    /// (attempt state — attempt, rateCompliant, frameTag — is final).
    virtual void inject(Cycle now, NodeId node, const NetPacket &pkt) = 0;

    /// VC `vc` of `port` was reserved for `pkt` (head/tail arrival known).
    virtual void vcReserved(const InputPort &port, int vc,
                            const NetPacket &pkt, Cycle headArrival,
                            Cycle tailArrival) = 0;

    /// The packet resident in (`port`, `vc`) started draining onward.
    virtual void vcDrained(const InputPort &port, int vc,
                           const NetPacket &pkt) = 0;

    /// (`port`, `vc`) released the packet it held (tail departed,
    /// delivery, or preemption teardown).
    virtual void vcFreed(const InputPort &port, int vc,
                         const NetPacket &pkt) = 0;

    /// `pkt` started a link transfer from the router at `from` into
    /// (`down`, `vc`) — the matching vcReserved precedes this event.
    virtual void hop(Cycle now, NodeId from, const InputPort &down, int vc,
                     const NetPacket &pkt) = 0;

    /// `pkt` was preempted (discarded) by the router at `node`.
    virtual void kill(Cycle now, NodeId node, const NetPacket &pkt) = 0;

    /// A NACK returned `pkt` to its source queue for retransmission.
    virtual void requeue(Cycle now, const NetPacket &pkt) = 0;

    /// `pkt`'s tail was ejected at (`port`, `vc`) — its destination
    /// terminal.
    virtual void deliver(Cycle now, const InputPort &port, int vc,
                         const NetPacket &pkt) = 0;

    /// The delivery ACK retired `pkt`'s window slot (end of life).
    virtual void retire(Cycle now, const NetPacket &pkt) = 0;

    /// `pkt` completed one journey segment at (`port`, `vc`) — a chip row
    /// reaching its column boundary, or an inter-chip gateway — and will
    /// be re-injected toward `newDst` with the attempt counter bumped.
    virtual void segment(Cycle now, const InputPort &port, int vc,
                         const NetPacket &pkt, NodeId newDst) = 0;
};

} // namespace taqos
