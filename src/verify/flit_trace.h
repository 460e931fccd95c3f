/// \file flit_trace.h
/// The recorded flit-trace format: a compact, versioned, line-oriented
/// event stream describing everything a packet did in a run, plus the
/// configuration the independent checker (verify/checker.h) needs to
/// re-derive legality from first principles.
///
/// This header is deliberately self-contained (common/types.h only): the
/// checker side must not depend on router/engine internals, and the
/// engine side only needs the container to fill it.
///
/// Text layout (version 2; version-1 traces parse unchanged):
///
///   taqos-flit-trace 2
///   <key> <value...>          # meta, one per line, order-free
///   port <id> <node> <term> <name>
///   events <count>
///   <kind> <cycle> <fields...>
///
/// Event kinds (first token; fields are decimal integers: cycle, pkt,
/// gen, frameTag, head and tail unsigned 64-bit, the rest signed 32-bit,
/// -1 for "none" on node, port, vc, src and dst):
///   J cycle node pkt flow src dst size attempt gen frameTag compliant
///   R cycle port vc pkt head tail       VC reserved
///   N cycle port vc pkt                 VC started draining
///   F cycle port vc pkt                 VC freed
///   H cycle from port vc pkt            hop (link transfer started)
///   K cycle node pkt                    preemption kill
///   Q cycle pkt                         NACK requeued at source
///   D cycle port vc pkt                 delivered at destination terminal
///   A cycle pkt                         ACKed / retired
///   S cycle port vc pkt dst             segment handoff (v2): the packet
///                                       completed one journey segment at
///                                       (port, vc) — a chip row arriving
///                                       at its column boundary, or an
///                                       inter-chip gateway — and will be
///                                       re-injected toward the new
///                                       destination `dst` with the
///                                       attempt counter incremented
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace taqos {

inline constexpr int kFlitTraceVersion = 2;
/// Oldest version the parser still accepts (version 1 lacks only the
/// segment-handoff event, so replay is unchanged).
inline constexpr int kMinFlitTraceVersion = 1;

/// "No GSF frame tag" sentinel (mirrors noc kNoFrameTag without the
/// dependency).
inline constexpr std::uint64_t kTraceNoTag =
    static_cast<std::uint64_t>(-1);

enum class TraceEventKind : char {
    Inject = 'J',
    VcReserve = 'R',
    VcDrain = 'N',
    VcFree = 'F',
    Hop = 'H',
    Kill = 'K',
    Requeue = 'Q',
    Deliver = 'D',
    Retire = 'A',
    Segment = 'S',
};

/// Fields run widest first, so an event packs into 88 bytes with no
/// interior padding; an audit holds two copies of every event (the
/// recorded trace and the parsed one).
struct TraceEvent {
    Cycle cycle = 0;
    PacketId pkt = 0;
    Cycle gen = 0;                        ///< J
    std::uint64_t frameTag = kTraceNoTag; ///< J
    Cycle head = 0;                       ///< R
    Cycle tail = 0;                       ///< R

    std::int32_t node = -1; ///< J: injecting router; K: killer; H: from
    std::int32_t port = -1; ///< R/N/F/H/D/S: input-port id
    std::int32_t vc = -1;

    // Inject payload (the packet's identity and attempt state); `dst` is
    // also the Segment event's next-segment destination.
    FlowId flow = kInvalidFlow;
    std::int32_t src = -1;
    std::int32_t dst = -1;
    std::int32_t size = 0;
    std::int32_t attempt = 0;

    TraceEventKind kind = TraceEventKind::Inject;
    bool compliant = false; ///< J

    bool operator==(const TraceEvent &) const = default;
};
static_assert(sizeof(TraceEvent) == 88,
              "order TraceEvent's fields widest first");

/// One announced input port (identity table at the head of the trace).
struct TracePortInfo {
    std::int32_t id = -1;
    NodeId node = kInvalidNode;
    bool terminal = false;
    std::string name;

    bool operator==(const TracePortInfo &) const = default;
};

/// Run configuration the checker audits against. Every field is parsed
/// from the trace header — the checker never reads engine state.
struct TraceMeta {
    std::string topology; ///< topologyName() string ("dps", "mesh_x1", ...)
    std::string mode;     ///< qosModeName() string ("pvc", "gsf", ...)
    int nodes = 0;
    int injectorsPerNode = 0;
    int flows = 0;

    // PVC bounds.
    Cycle frameLen = 0;
    bool quotaEnabled = false;
    double quotaProtect = 1.5;
    int windowLimit = 0;

    // GSF bounds.
    Cycle gsfFrameLen = 0;
    int gsfFrames = 0;

    /// Per-flow provisioned weights; empty = all equal.
    std::vector<std::uint32_t> weights;

    // Audit bounds (describeColumn/describeFabric in
    // sim/trace_record.cpp set them; frozen into the trace).
    Cycle maxAge = 0;     ///< 0 = skip the age audit
    double wrrTol = 0.5;  ///< WRR share tolerance (fraction of expected)

    // Run framing.
    Cycle measureStart = 0;
    Cycle measureEnd = 0;
    Cycle endCycle = 0;
    bool drained = false;

    std::uint64_t weightOf(FlowId flow) const
    {
        if (weights.empty())
            return 1;
        if (flow < 0 || static_cast<std::size_t>(flow) >= weights.size())
            return 1;
        return weights[static_cast<std::size_t>(flow)];
    }

    std::uint64_t sumWeights() const
    {
        if (weights.empty())
            return static_cast<std::uint64_t>(flows);
        std::uint64_t sum = 0;
        for (auto w : weights)
            sum += w;
        return sum;
    }

    bool operator==(const TraceMeta &) const = default;
};

struct FlitTrace {
    TraceMeta meta;
    std::vector<TracePortInfo> ports;
    std::vector<TraceEvent> events;

    bool operator==(const FlitTrace &) const = default;
};

/// Serialize to the versioned text format. serializeFlitTrace builds
/// the text in one pre-sized string; writeFlitTrace writes that text.
std::string serializeFlitTrace(const FlitTrace &trace);
void writeFlitTrace(std::ostream &os, const FlitTrace &trace);

/// Parse a trace in one pass over `text`, which it never copies. Returns
/// false (with a one-line, line-numbered `error`) on any malformed,
/// unknown-version or truncated input; never throws or crashes on
/// corrupt data, and allocates no more than the text can fill, whatever
/// event count it declares.
bool parseFlitTrace(std::string_view text, FlitTrace &out,
                    std::string &error);
/// Read the whole stream, then parse it as above.
bool parseFlitTrace(std::istream &is, FlitTrace &out, std::string &error);

/// File convenience wrappers.
bool saveFlitTrace(const std::string &path, const FlitTrace &trace,
                   std::string &error);
bool loadFlitTrace(const std::string &path, FlitTrace &out,
                   std::string &error);

} // namespace taqos
