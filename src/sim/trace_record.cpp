#include "sim/trace_record.h"

#include "common/assert.h"
#include "noc/packet.h"
#include "noc/ports.h"
#include "topo/fabric.h"

namespace taqos {

namespace {

/// The age bound audited under oldest-first arbitration; other policies
/// make no age promise, so their traces carry 0 and skip the age audit.
/// Oldest-first arbitration is starvation-free, so a packet older than
/// this has been bypassed pathologically. The bound is far above the
/// drain horizon of every finite workload in the suite, so a clean
/// drained run cannot false-positive, while a starved packet, which
/// holds its VC forever, is still caught.
constexpr Cycle kAgeArbMaxPacketAge = 2000000;

/// WRR weight tracking: a continuously backlogged flow's delivered share
/// below `weightShare * (1 - kWrrShareTolerance)` is a violation. Shares
/// are audited only across flows backlogged for the whole measurement
/// window with a statistically meaningful delivery count, so the
/// tolerance absorbs discretization, not starvation.
constexpr double kWrrShareTolerance = 0.5;

} // namespace

TraceMeta
describeColumn(const ColumnConfig &col)
{
    TraceMeta m;
    m.topology = topologyName(col.topology);
    m.mode = qosModeName(col.mode);
    m.nodes = col.numNodes;
    m.injectorsPerNode = col.injectorsPerNode;
    m.flows = col.numFlows();
    m.frameLen = col.pvc.frameLen;
    m.quotaEnabled = col.pvc.quotaEnabled;
    m.quotaProtect = col.pvc.quotaProtectFactor;
    m.windowLimit = col.pvc.windowLimit;
    m.gsfFrameLen = col.pvc.gsfFrameLen;
    m.gsfFrames = col.pvc.gsfFrames;
    m.weights = col.pvc.weights();
    m.maxAge = col.mode == QosMode::AgeArb ? kAgeArbMaxPacketAge : 0;
    m.wrrTol = kWrrShareTolerance;
    return m;
}

TraceMeta
describeFabric(const FabricNetwork &net)
{
    TraceMeta m;
    m.topology = std::string("fabric-") +
                 topologyName(net.spec().column.topology);
    m.mode = qosModeName(net.mode());
    m.nodes = net.numNodes();
    m.injectorsPerNode = net.slotsPerNode();
    m.flows = net.totalFlows();
    const PvcParams &pvc = net.pvcParams();
    m.frameLen = pvc.frameLen;
    m.quotaEnabled = pvc.quotaEnabled;
    m.quotaProtect = pvc.quotaProtectFactor;
    m.windowLimit = pvc.windowLimit;
    m.gsfFrameLen = pvc.gsfFrameLen;
    m.gsfFrames = pvc.gsfFrames;
    m.weights = pvc.weights();
    m.maxAge = 0; // row + link transit is policy-independent latency
    m.wrrTol = kWrrShareTolerance;
    return m;
}

namespace {

/// Events a recorder reserves room for at its first event: 32 MiB, the
/// ceiling of glibc's dynamic mmap threshold, so glibc normally gives
/// the buffer a mapping of its own. Pages are committed only as events
/// are written, events are never copied to grow the buffer, and every
/// run touches the same fresh pages, however much memory earlier runs
/// left in the malloc heap. Grown by doubling from the heap instead,
/// each 90k-event DPS trace of the audit benchmark took either 0 or
/// about 4,000 page faults to record, depending on which side of the
/// heap's trim threshold the process sat, so recording runs went 175k
/// or 240k cycles/s from one process to the next (4-vCPU Xeon KVM
/// guest).
constexpr std::size_t kReservedEvents =
    (std::size_t{32} << 20) / sizeof(TraceEvent) + 1;

} // namespace

TraceRecorder::TraceRecorder(TraceMeta meta)
{
    trace_.meta = std::move(meta);
}

void
TraceRecorder::setMeasureWindow(Cycle start, Cycle end)
{
    trace_.meta.measureStart = start;
    trace_.meta.measureEnd = end;
}

void
TraceRecorder::finish(Cycle endCycle, bool drained)
{
    trace_.meta.endCycle = endCycle;
    trace_.meta.drained = drained;
}

void
TraceRecorder::registerPort(const InputPort &port, bool terminal)
{
    if (portIds_.count(&port) != 0)
        return; // idempotent (re-attach)
    TracePortInfo info;
    info.id = static_cast<std::int32_t>(trace_.ports.size());
    info.node = port.node;
    info.terminal = terminal;
    info.name = port.name.empty() ? "port" : port.name;
    portIds_.emplace(&port, info.id);
    trace_.ports.push_back(std::move(info));
}

std::int32_t
TraceRecorder::portId(const InputPort &port) const
{
    auto it = portIds_.find(&port);
    TAQOS_ASSERT(it != portIds_.end(),
                 "trace event on unregistered port %s", port.name.c_str());
    return it->second;
}

void
TraceRecorder::append(const TraceEvent &e)
{
    if (trace_.events.capacity() == 0)
        trace_.events.reserve(kReservedEvents);
    trace_.events.push_back(e);
}

Cycle
TraceRecorder::bump(Cycle now)
{
    if (now > now_)
        now_ = now;
    return now_;
}

void
TraceRecorder::noteCycle(Cycle now)
{
    bump(now);
}

void
TraceRecorder::inject(Cycle now, NodeId node, const NetPacket &pkt)
{
    TraceEvent e;
    e.kind = TraceEventKind::Inject;
    e.cycle = bump(now);
    e.node = node;
    e.pkt = pkt.id;
    e.flow = pkt.flow;
    e.src = pkt.src;
    e.dst = pkt.dst;
    e.size = pkt.sizeFlits;
    e.attempt = pkt.attempt;
    e.gen = pkt.genCycle;
    e.frameTag = pkt.frameTag;
    e.compliant = pkt.rateCompliant;
    append(e);
}

void
TraceRecorder::vcReserved(const InputPort &port, int vc,
                          const NetPacket &pkt, Cycle headArrival,
                          Cycle tailArrival)
{
    TraceEvent e;
    e.kind = TraceEventKind::VcReserve;
    e.cycle = now_;
    e.port = portId(port);
    e.vc = vc;
    e.pkt = pkt.id;
    e.head = headArrival;
    e.tail = tailArrival;
    append(e);
}

void
TraceRecorder::vcDrained(const InputPort &port, int vc, const NetPacket &pkt)
{
    TraceEvent e;
    e.kind = TraceEventKind::VcDrain;
    e.cycle = now_;
    e.port = portId(port);
    e.vc = vc;
    e.pkt = pkt.id;
    append(e);
}

void
TraceRecorder::vcFreed(const InputPort &port, int vc, const NetPacket &pkt)
{
    TraceEvent e;
    e.kind = TraceEventKind::VcFree;
    e.cycle = now_;
    e.port = portId(port);
    e.vc = vc;
    e.pkt = pkt.id;
    append(e);
}

void
TraceRecorder::hop(Cycle now, NodeId from, const InputPort &down, int vc,
                   const NetPacket &pkt)
{
    TraceEvent e;
    e.kind = TraceEventKind::Hop;
    e.cycle = bump(now);
    e.node = from;
    e.port = portId(down);
    e.vc = vc;
    e.pkt = pkt.id;
    append(e);
}

void
TraceRecorder::kill(Cycle now, NodeId node, const NetPacket &pkt)
{
    TraceEvent e;
    e.kind = TraceEventKind::Kill;
    e.cycle = bump(now);
    e.node = node;
    e.pkt = pkt.id;
    append(e);
}

void
TraceRecorder::requeue(Cycle now, const NetPacket &pkt)
{
    TraceEvent e;
    e.kind = TraceEventKind::Requeue;
    e.cycle = bump(now);
    e.pkt = pkt.id;
    append(e);
}

void
TraceRecorder::deliver(Cycle now, const InputPort &port, int vc,
                       const NetPacket &pkt)
{
    TraceEvent e;
    e.kind = TraceEventKind::Deliver;
    e.cycle = bump(now);
    e.port = portId(port);
    e.vc = vc;
    e.pkt = pkt.id;
    append(e);
}

void
TraceRecorder::retire(Cycle now, const NetPacket &pkt)
{
    TraceEvent e;
    e.kind = TraceEventKind::Retire;
    e.cycle = bump(now);
    e.pkt = pkt.id;
    append(e);
}

void
TraceRecorder::segment(Cycle now, const InputPort &port, int vc,
                       const NetPacket &pkt, NodeId newDst)
{
    TraceEvent e;
    e.kind = TraceEventKind::Segment;
    e.cycle = bump(now);
    e.port = portId(port);
    e.vc = vc;
    e.pkt = pkt.id;
    e.dst = newDst;
    append(e);
}

} // namespace taqos
