/// \file net_sim.h
/// The topology-agnostic cycle-level simulation engine. Drives any
/// Network (topo/network.h) from any TrafficSource (traffic/source.h).
/// Its one concrete simulator is FabricSim (sim/fabric_sim.h), which
/// adds the rows, handoffs and inter-chip links; ColumnSim (the
/// row-less fabric) and ChipSim (the one-chip fabric) are FabricSim
/// constructors.
///
/// Per-cycle phase order (dependences are cut by explicit delays, so the
/// order within a cycle only has to be internally consistent):
///   1. Policy frame boundary: advance the source gate's frame window
///      (GSF) and flush flow tables / quota counters (PVC).
///   2. ACK network delivery: completed packets retire and free their
///      window slot; NACKed packets re-enter their source queue.
///   3. Traffic generation into the source queues.
///   4. Router ticks: transfer completions, then VC allocation /
///      preemption per output.
///   5. Terminal ejection: packets whose tail has arrived are delivered
///      from the terminals (by node), then handed off from the aux ports.
///
/// By default the engine is *activity-driven*: phase 4 walks the set bits
/// of the router worklist (noc/activity.h), in node order, so it visits
/// only the routers holding an occupied VC, a queued source packet, or an
/// in-flight transfer (Router::hasWork); within a ticked router the
/// scan, grant and completion loops visit only the outputs whose bits
/// say they have work, and the candidate scan reruns only when an event
/// invalidated the cached winner set. Phase 5 takes from the ejection
/// due list only the terminal and handoff VCs whose tail arrives this
/// cycle, in the full scan's order. Each shortcut is exact — skipped work
/// is provably a no-op — so the engine is bit-identical to the
/// always-tick reference (EngineConfig::activityDriven = false), which
/// ticks every router and scans every ejection buffer every cycle and
/// which the golden-digest and toggle-equivalence tests pin. Engine
/// phases 1-3 always run: time-driven policy state (the GSF frame
/// window) must advance even when every router is idle.
///
/// One run is serial: a sweep keeps every core busy with independent
/// cells instead (exp/sweep.h). See README "Why the engine is serial".
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "noc/metrics.h"
#include "noc/packet.h"
#include "qos/ack_network.h"
#include "qos/policy.h"
#include "qos/pvc.h"
#include "sim/sim_config.h"
#include "topo/network.h"
#include "traffic/source.h"

namespace taqos {

class CheckpointWriter;
class CheckpointReader;

class NetSim {
  public:
    explicit NetSim(std::unique_ptr<Network> net);
    virtual ~NetSim();
    NetSim(const NetSim &) = delete;
    NetSim &operator=(const NetSim &) = delete;

    /// Advance one cycle.
    void step();

    /// Advance `cycles` cycles.
    void run(Cycle cycles);

    /// Run until every generated packet has been delivered and retired, or
    /// `maxCycles` elapse. Returns the cycle at which the network drained
    /// (kNoCycle on budget exhaustion). Meaningful once generation has a
    /// horizon (TrafficConfig::genUntil); drain checks begin at
    /// `earliestDone` (pass the generation horizon, so a quiet early cycle
    /// is not mistaken for completion).
    Cycle runUntilDrained(Cycle maxCycles, Cycle earliestDone = 0);

    /// True when no packet is live (queued, in flight, or awaiting ACK).
    bool drained() const { return pool_.liveCount() == 0; }

    /// Apply the engine selection (activity-driven vs. always-tick). Must
    /// precede the first step; a mid-run call may only repeat the
    /// current selection.
    void configure(const EngineConfig &cfg);

    bool activityDriven() const { return engineCfg_.activityDriven; }

    /// Open the measurement window [start, end): latency is recorded for
    /// packets generated inside it, per-flow throughput for deliveries
    /// inside it. Call before the window opens.
    void setMeasureWindow(Cycle start, Cycle end);

    /// Attach (or detach, with nullptr) a flit-trace recorder: wires the
    /// fabric's port/router hooks (Network::setTraceSink) and the
    /// engine-side events (delivery, NACK requeue, ACK retirement). The
    /// recorded stream feeds the independent checker in src/verify.
    void attachTraceSink(TraceSink *sink);

    Cycle now() const { return now_; }
    SimMetrics &metrics() { return metrics_; }
    const SimMetrics &metrics() const { return metrics_; }
    Network &net() { return *net_; }
    const Network &net() const { return *net_; }
    PacketPool &pool() { return pool_; }
    /// Exact arbitration-work counts of every step this object ran (a
    /// restored run counts from the restore; see EngineStats).
    const EngineStats &engineStats() const { return stats_; }

    /// Serialize the complete live state at the current cycle boundary
    /// (see sim/checkpoint.h for the format and the engine-neutrality
    /// contract). Call between steps, never mid-cycle.
    void saveCheckpoint(std::ostream &os) const;

    /// Restore a snapshot onto this simulation, which must be freshly
    /// built from the identical spec (same topology, policy, traffic
    /// configuration and trace attachment) and never stepped. Returns
    /// false — with a section- and offset-diagnosed message in `err` —
    /// on a version/salt/fingerprint mismatch or a truncated/corrupted
    /// stream; header mismatches leave the sim untouched, but a failure
    /// past the header leaves it partially overwritten and unusable.
    /// After success the run continues bit-identically to the original.
    bool restoreCheckpoint(std::istream &is, std::string *err = nullptr);

    /// Structural self-check: every occupied VC's packet holds a matching
    /// location record, occupancy chains are acyclic, window counters
    /// are within bounds, every router's arbitration slots and output
    /// bits match the live state they cache (Router::checkSlots), and
    /// every Reserved terminal or handoff VC has an ejection due entry
    /// at its tail cycle. Used by tests after every scenario.
    virtual void checkInvariants() const;

  protected:
    /// Subclass state riding in the checkpoint's "extra" section (the
    /// fabric's row source queues and link queues). Implementations must
    /// write and read exactly matching records; restoreExtra reports
    /// corruption by calling CheckpointReader::fail.
    virtual void saveExtra(CheckpointWriter &w) const = 0;
    virtual void restoreExtra(CheckpointReader &r) = 0;

    void processFrameBoundary();
    void processAcks();
    /// Phase 5: deliver the tail-arrived packets of the per-node terminal
    /// buffers, then hand off those of the aux ports. Subclasses extend
    /// it with other ejection-side work (the fabric's link arrivals).
    virtual void tickTerminals();
    void deliver(NetPacket *pkt, InputPort *port, int vcIdx);
    /// A packet whose tail has arrived in aux port `port` (a fabric's
    /// row-to-column handoff buffer) leaves it.
    virtual void handoff(NetPacket *pkt, InputPort *port, int vcIdx) = 0;

    std::unique_ptr<Network> net_;
    /// Per-cycle traffic source, installed before the first step.
    std::unique_ptr<TrafficSource> source_;
    std::unique_ptr<QuotaTracker> quota_; ///< null unless PVC
    std::unique_ptr<SourceGate> gate_;    ///< null unless the policy gates
    AckNetwork ack_;
    PacketPool pool_;
    SimMetrics metrics_;
    Cycle now_ = 0;
    EngineConfig engineCfg_;
    TraceSink *trace_ = nullptr; ///< flit-trace recorder (null = off)

  private:
    /// Deliver or hand off the packet in VC `vcIdx` of ejection port
    /// `idx` if its tail has arrived (a no-op for a Free VC).
    void eject(int idx, int vcIdx);
    /// Re-arm the ejection due list from the VC states (restore).
    void rearmEjections();

    /// The ejection order: every node's terminal, then the aux ports.
    std::vector<InputPort *> ejectPorts_;
    /// Terminal and handoff VCs by tail-arrival cycle (the ports arm it).
    EjectionDueList ejections_;
    EngineStats stats_;
};

} // namespace taqos
