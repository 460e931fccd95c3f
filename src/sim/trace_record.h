/// \file trace_record.h
/// The concrete trace-recording layer: a TraceSink that builds a
/// FlitTrace (verify/flit_trace.h) from the engine's activity hooks.
///
/// Usage:
///   ColumnSim sim(col, traffic);
///   TraceRecorder rec(describeColumn(col));
///   sim.attachTraceSink(&rec);         // wires every router and port
///   sim.run(...);
///   rec.finish(sim.now(), sim.drained());
///   saveFlitTrace(path, rec.trace(), err);   // or verifyTrace(...)
///
/// The recorder is engine-side plumbing; the checker consuming the trace
/// lives in src/verify and shares only the flit_trace.h data format.
#pragma once

#include <unordered_map>

#include "noc/trace_sink.h"
#include "topo/topology.h"
#include "verify/flit_trace.h"

namespace taqos {

class FabricNetwork;

/// TraceMeta for a run over one QOS-protected column: topology, policy
/// and QoS parameters plus the audit bounds: the age bound (age policy
/// only) and the WRR share tolerance.
TraceMeta describeColumn(const ColumnConfig &col);

/// TraceMeta for a multi-chip fabric run (topo/fabric.h). The topology
/// string is "fabric-<column topology>" (no route-adjacency family) and
/// the mode is the fabric's one policy; the age audit is skipped because
/// row and inter-chip transit add policy-independent latency.
TraceMeta describeFabric(const FabricNetwork &net);

class TraceRecorder final : public TraceSink {
  public:
    explicit TraceRecorder(TraceMeta meta);

    /// Record the measurement window the WRR audit evaluates over.
    void setMeasureWindow(Cycle start, Cycle end);

    /// Seal the trace after the run (final cycle, whether it drained).
    void finish(Cycle endCycle, bool drained);

    const FlitTrace &trace() const { return trace_; }
    FlitTrace &trace() { return trace_; }

    // --- TraceSink ---
    void registerPort(const InputPort &port, bool terminal) override;
    void noteCycle(Cycle now) override;
    void inject(Cycle now, NodeId node, const NetPacket &pkt) override;
    void vcReserved(const InputPort &port, int vc, const NetPacket &pkt,
                    Cycle headArrival, Cycle tailArrival) override;
    void vcDrained(const InputPort &port, int vc,
                   const NetPacket &pkt) override;
    void vcFreed(const InputPort &port, int vc,
                 const NetPacket &pkt) override;
    void hop(Cycle now, NodeId from, const InputPort &down, int vc,
             const NetPacket &pkt) override;
    void kill(Cycle now, NodeId node, const NetPacket &pkt) override;
    void requeue(Cycle now, const NetPacket &pkt) override;
    void deliver(Cycle now, const InputPort &port, int vc,
                 const NetPacket &pkt) override;
    void retire(Cycle now, const NetPacket &pkt) override;
    void segment(Cycle now, const InputPort &port, int vc,
                 const NetPacket &pkt, NodeId newDst) override;

  private:
    std::int32_t portId(const InputPort &port) const;
    /// Add one event; the first reserves the recording buffer, so a
    /// recorder that never records maps nothing.
    void append(const TraceEvent &e);
    /// Keep `now_` monotone: explicit-cycle events (a test-driven kill
    /// between engine steps) may outrun the per-step clock.
    Cycle bump(Cycle now);

    FlitTrace trace_;
    std::unordered_map<const InputPort *, std::int32_t> portIds_;
    Cycle now_ = 0;
};

} // namespace taqos
