/// \file trace.h
/// Deterministic workload capture and replay. A trace is the exact packet
/// stream a generator (or an external tool) produced — cycle, flow,
/// destination, size — so experiments can be repeated bit-identically
/// across machines, diffed between QOS modes, or driven from externally
/// produced workloads (e.g. memory-access traces of real applications,
/// which the paper's evaluation substitutes with synthetic traffic).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "noc/metrics.h"
#include "noc/packet.h"
#include "noc/ports.h"
#include "topo/topology.h"
#include "traffic/generator.h"
#include "traffic/pattern.h"
#include "traffic/workload_spec.h"

namespace taqos {

struct TraceEntry {
    Cycle cycle = 0;
    FlowId flow = kInvalidFlow;
    NodeId dst = kInvalidNode;
    int sizeFlits = 1;
};

class TrafficTrace {
  public:
    TrafficTrace() = default;
    explicit TrafficTrace(std::vector<TraceEntry> entries);

    /// Record the stream a generator would produce over `cycles`.
    static TrafficTrace record(const ColumnConfig &col,
                               const TrafficConfig &traffic, Cycle cycles);

    const std::vector<TraceEntry> &entries() const { return entries_; }
    std::size_t size() const { return entries_.size(); }
    Cycle lastCycle() const;
    std::uint64_t totalFlits() const;

    /// Append one entry; entries must be in non-decreasing cycle order.
    void append(TraceEntry entry);

    /// CSV round trip: "cycle,flow,dst,size" per line (with header).
    /// fromCsv diagnoses malformed input — wrong field count, non-numeric
    /// fields, a flow, dst or size past int, a control character,
    /// out-of-order cycles — as nullopt plus a one-line message naming
    /// the offending line, instead of silently truncating. With
    /// `column`, a flow or destination outside it is malformed too.
    std::string toCsv() const;
    static std::optional<TrafficTrace>
    fromCsv(const std::string &csv, std::string *err = nullptr,
            const ColumnConfig *column = nullptr);

  private:
    std::vector<TraceEntry> entries_;
};

/// Drives injector queues from a trace; interface-compatible with
/// TrafficGenerator's tick. Packets beyond `genUntil`-style horizons are
/// simply absent from the trace.
class TraceReplayer : public TrafficSource {
  public:
    TraceReplayer(const ColumnConfig &col, TrafficTrace trace);

    /// Replay under a Trace-kind WorkloadSpec: the trace is clipped to
    /// the spec's cycle window, rebased to cycle 0 and thinned to the
    /// inflation fraction (see applyReplayWindow in traffic/dynamic.h);
    /// with loop=1 the window repeats forever, each lap offset by the
    /// window length.
    TraceReplayer(const ColumnConfig &col, TrafficTrace trace,
                  const WorkloadSpec &spec);

    void tick(Cycle now, PacketPool &pool,
              std::vector<InjectorQueue> &injectors,
              SimMetrics &metrics) override;

    bool exhausted() const { return !loop_ && next_ >= trace_.size(); }
    const TrafficTrace &trace() const { return trace_; }

    /// Checkpointing: the replay cursor plus the loop lap counter.
    std::vector<std::uint64_t> packState() const override
    {
        return {static_cast<std::uint64_t>(next_), lap_};
    }
    void unpackState(const std::vector<std::uint64_t> &words) override
    {
        TAQOS_ASSERT(words.size() == 2, "trace-replayer restore mismatch");
        next_ = static_cast<std::size_t>(words[0]);
        lap_ = words[1];
    }

  private:
    ColumnConfig col_;
    TrafficTrace trace_;
    std::size_t next_ = 0;
    bool loop_ = false;
    Cycle loopLen_ = 0; ///< lap offset (window length) when looping
    std::uint64_t lap_ = 0;
};

} // namespace taqos
