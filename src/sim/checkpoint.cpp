#include "sim/checkpoint.h"

#include <cstring>
#include <istream>
#include <ostream>

#include "common/assert.h"
#include "common/rng.h"
#include "router/router.h"
#include "sim/engine_salt.h"
#include "sim/net_sim.h"
#include "topo/network.h"

namespace taqos {

namespace {

/// Bytes of the fixed header (magic + version + salt + fingerprint +
/// cycle + engine flag) — the reader's starting byte offset.
constexpr std::uint64_t kHeaderBytes = 8 + 4 + 8 + 8 + 8 + 1;

/// Upper bounds a corrupted length prefix is rejected against (far above
/// anything a real run produces, far below an allocation that could
/// wedge the process).
constexpr std::uint64_t kMaxPackets = 1ull << 32;
constexpr std::uint32_t kMaxWords = 1u << 24;
constexpr std::uint32_t kMaxQueueLen = 1u << 24;

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    return splitmix64(h ^ (v + kGoldenGamma));
}

/// The canonical save-order enumeration of every VC-holding buffer in
/// the fabric: each node's router inputs in port order, then its
/// terminal; then the aux (handoff) ports. Shared by the writer's map
/// and the reader's table so references resolve symmetrically.
void
enumeratePorts(Network &net, std::vector<InputPort *> &out)
{
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        for (const auto &in : net.router(n)->inputs())
            out.push_back(in.get());
        out.push_back(net.termPort(n));
    }
    for (InputPort *p : net.auxPorts())
        out.push_back(p);
}

void
writeVcArray(CheckpointWriter &w, const InputPort &port)
{
    w.u32(static_cast<std::uint32_t>(port.vcs.size()));
    for (const auto &vc : port.vcs) {
        w.u8(static_cast<std::uint8_t>(vc.state()));
        w.pkt(vc.packet());
        w.u64(vc.headArrival());
        w.u64(vc.tailArrival());
        w.u64(vc.freeVisibleAt());
    }
}

void
readVcArray(CheckpointReader &r, InputPort &port)
{
    const std::uint32_t count = r.u32();
    if (count != port.vcs.size()) {
        // Unbounded-VC ports grow with the traffic; everything else is
        // structure and must match the fingerprinted shape exactly.
        if (!port.unboundedVcs || count < port.vcs.size())
            r.fail("VC count mismatch on port " + port.name);
        if (count > kMaxQueueLen)
            r.fail("implausible VC count " + std::to_string(count) +
                   " on port " + port.name);
        port.vcs.resize(count);
        port.attachVcs();
    }
    for (std::size_t v = 0; v < count; ++v) {
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(VirtualChannel::State::Draining))
            r.fail("bad VC state on port " + port.name);
        NetPacket *pkt = r.pkt();
        const Cycle head = r.u64();
        const Cycle tail = r.u64();
        const Cycle freeVis = r.u64();
        port.vcs[v].restoreRaw(static_cast<VirtualChannel::State>(state), pkt,
                               head, tail, freeVis);
    }
}

/// Opaque packState words of `what` for a restore target that packs
/// `expected` words. The unpackState functions assert on geometry, and
/// the topology fingerprint covers neither the workload nor the PVC/GSF
/// parameters, so a length mismatch is refused here, naming its likely
/// cause `why`.
std::vector<std::uint64_t>
readStateWords(CheckpointReader &r, std::size_t expected,
               const std::string &what, const char *why)
{
    std::vector<std::uint64_t> words = r.words();
    if (words.size() != expected) {
        r.fail(what + " state size mismatch (checkpoint " +
               std::to_string(words.size()) + " words, this simulation " +
               std::to_string(expected) + "): " + why);
    }
    return words;
}

} // namespace

std::uint64_t
topologyFingerprint(const Network &net)
{
    auto &n = const_cast<Network &>(net);
    std::uint64_t h = 0x7461716f73ull; // "taqos"
    h = mix(h, static_cast<std::uint64_t>(n.numNodes()));
    h = mix(h, static_cast<std::uint64_t>(n.numFlows()));
    h = mix(h, static_cast<std::uint64_t>(n.mode()));

    const auto portShape = [&](const InputPort &p) {
        h = mix(h, static_cast<std::uint64_t>(p.kind));
        h = mix(h, p.injectors.size());
        h = mix(h, p.unboundedVcs ? 0 : p.vcs.size());
    };
    for (NodeId node = 0; node < n.numNodes(); ++node) {
        const Router *r = n.router(node);
        h = mix(h, r->inputs().size());
        for (const auto &in : r->inputs())
            portShape(*in);
        h = mix(h, r->outputs().size());
        for (const auto &out : r->outputs()) {
            h = mix(h, out->drops.size());
            h = mix(h, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(out->tableIdx)));
        }
        h = mix(h, r->groups().size());
        portShape(*n.termPort(node));
    }
    h = mix(h, n.auxPorts().size());
    for (const InputPort *p : n.auxPorts())
        portShape(*p);
    return h;
}

CheckpointInfo
readCheckpointInfo(std::istream &is)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0)
        throw CheckpointError("not a taqos checkpoint (bad magic at offset 0)");

    const auto read = [&is](void *dst, std::size_t n, const char *what) {
        is.read(static_cast<char *>(dst), static_cast<std::streamsize>(n));
        if (!is) {
            throw CheckpointError(std::string("truncated checkpoint header (") +
                                  what + ")");
        }
    };

    CheckpointInfo info;
    read(&info.version, sizeof(info.version), "format version");
    if (info.version != kCheckpointVersion) {
        throw CheckpointError(
            "checkpoint format version " + std::to_string(info.version) +
            "; this build reads version " + std::to_string(kCheckpointVersion));
    }
    read(&info.salt, sizeof(info.salt), "engine salt");
    read(&info.fingerprint, sizeof(info.fingerprint), "topology fingerprint");
    read(&info.now, sizeof(info.now), "cycle");
    std::uint8_t act = 0;
    read(&act, sizeof(act), "engine config");
    info.engine.activityDriven = act != 0;
    return info;
}

// --- CheckpointWriter ----------------------------------------------------

CheckpointWriter::CheckpointWriter(std::ostream &os, Network &net,
                                   const PacketPool &pool)
    : os_(os)
{
    for (std::size_t i = 0; i < pool.allocatedCount(); ++i)
        pktIdx_.emplace(pool.at(i), static_cast<std::uint64_t>(i));
    std::vector<InputPort *> ports;
    enumeratePorts(net, ports);
    for (std::size_t i = 0; i < ports.size(); ++i)
        portIdx_.emplace(ports[i], static_cast<std::uint32_t>(i));
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        Router *r = net.router(n);
        for (std::size_t o = 0; o < r->outputs().size(); ++o)
            outIdx_.emplace(r->outputs()[o].get(),
                            std::make_pair(n, static_cast<int>(o)));
        tableNode_.emplace(&r->flowTable(), n);
    }
}

void
CheckpointWriter::raw(const void *data, std::size_t n)
{
    os_.write(static_cast<const char *>(data),
              static_cast<std::streamsize>(n));
}

void
CheckpointWriter::u8(std::uint8_t v)
{
    raw(&v, sizeof(v));
}

void
CheckpointWriter::u32(std::uint32_t v)
{
    raw(&v, sizeof(v));
}

void
CheckpointWriter::i32(std::int32_t v)
{
    raw(&v, sizeof(v));
}

void
CheckpointWriter::u64(std::uint64_t v)
{
    raw(&v, sizeof(v));
}

void
CheckpointWriter::f64(double v)
{
    raw(&v, sizeof(v));
}

void
CheckpointWriter::words(const std::vector<std::uint64_t> &w)
{
    u32(static_cast<std::uint32_t>(w.size()));
    for (std::uint64_t v : w)
        u64(v);
}

void
CheckpointWriter::section(const char *tag)
{
    const std::size_t len = std::strlen(tag);
    u8(static_cast<std::uint8_t>(len));
    raw(tag, len);
}

std::uint64_t
CheckpointWriter::pktIndex(const NetPacket *p) const
{
    const auto it = pktIdx_.find(p);
    TAQOS_ASSERT(it != pktIdx_.end(), "packet not in the pool");
    return it->second;
}

void
CheckpointWriter::pkt(const NetPacket *p)
{
    u64(p == nullptr ? 0 : pktIndex(p) + 1);
}

void
CheckpointWriter::port(const InputPort *p)
{
    if (p == nullptr) {
        u32(0);
        return;
    }
    const auto it = portIdx_.find(p);
    TAQOS_ASSERT(it != portIdx_.end(), "port not in the fabric enumeration");
    u32(it->second + 1);
}

void
CheckpointWriter::output(const OutputPort *o)
{
    const auto it = outIdx_.find(o);
    TAQOS_ASSERT(it != outIdx_.end(), "output not in the fabric enumeration");
    i32(it->second.first);
    i32(it->second.second);
}

void
CheckpointWriter::table(const void *t)
{
    const auto it = tableNode_.find(t);
    TAQOS_ASSERT(it != tableNode_.end(), "flow table not owned by a router");
    i32(it->second);
}

// --- CheckpointReader ----------------------------------------------------

CheckpointReader::CheckpointReader(std::istream &is, Network &net,
                                   PacketPool &pool,
                                   std::uint64_t startOffset)
    : is_(is), net_(net), pool_(pool), offset_(startOffset)
{
    enumeratePorts(net, ports_);
}

void
CheckpointReader::fail(const std::string &what) const
{
    throw CheckpointError(what + " (section \"" + section_ + "\", offset " +
                          std::to_string(offset_) + ")");
}

void
CheckpointReader::bytes(void *data, std::size_t n)
{
    is_.read(static_cast<char *>(data), static_cast<std::streamsize>(n));
    if (!is_)
        fail("unexpected end of checkpoint");
    offset_ += n;
}

std::uint8_t
CheckpointReader::u8()
{
    std::uint8_t v;
    bytes(&v, sizeof(v));
    return v;
}

std::uint32_t
CheckpointReader::u32()
{
    std::uint32_t v;
    bytes(&v, sizeof(v));
    return v;
}

std::int32_t
CheckpointReader::i32()
{
    std::int32_t v;
    bytes(&v, sizeof(v));
    return v;
}

std::uint64_t
CheckpointReader::u64()
{
    std::uint64_t v;
    bytes(&v, sizeof(v));
    return v;
}

double
CheckpointReader::f64()
{
    double v;
    bytes(&v, sizeof(v));
    return v;
}

std::vector<std::uint64_t>
CheckpointReader::words()
{
    const std::uint32_t n = u32();
    if (n > kMaxWords)
        fail("implausible word-vector length " + std::to_string(n));
    std::vector<std::uint64_t> w(n);
    for (std::uint32_t i = 0; i < n; ++i)
        w[i] = u64();
    return w;
}

void
CheckpointReader::expectSection(const char *tag)
{
    const std::uint8_t len = u8();
    char buf[256];
    bytes(buf, len);
    buf[len] = '\0';
    if (std::strlen(tag) != len || std::memcmp(buf, tag, len) != 0) {
        fail(std::string("expected section \"") + tag + "\", found \"" + buf +
             "\"");
    }
    section_ = tag;
}

NetPacket *
CheckpointReader::pkt()
{
    const std::uint64_t i = u64();
    if (i == 0)
        return nullptr;
    if (i > pool_.allocatedCount())
        fail("packet reference " + std::to_string(i - 1) + " out of range");
    return pool_.at(i - 1);
}

InputPort *
CheckpointReader::port()
{
    const std::uint32_t i = u32();
    if (i == 0)
        return nullptr;
    if (i > ports_.size())
        fail("port reference " + std::to_string(i - 1) + " out of range");
    return ports_[i - 1];
}

OutputPort *
CheckpointReader::output()
{
    const std::int32_t node = i32();
    const std::int32_t out = i32();
    if (node < 0 || node >= net_.numNodes())
        fail("output node " + std::to_string(node) + " out of range");
    Router *r = net_.router(node);
    if (out < 0 || out >= static_cast<std::int32_t>(r->outputs().size()))
        fail("output index " + std::to_string(out) + " out of range");
    return r->output(out);
}

void *
CheckpointReader::table()
{
    const std::int32_t node = i32();
    if (node < 0 || node >= net_.numNodes())
        fail("flow-table node " + std::to_string(node) + " out of range");
    return &net_.router(node)->flowTable();
}

void
saveInjectorQueues(CheckpointWriter &w,
                   const std::vector<InjectorQueue> &queues)
{
    w.u32(static_cast<std::uint32_t>(queues.size()));
    for (const InjectorQueue &q : queues) {
        w.u32(static_cast<std::uint32_t>(q.queue().size()));
        for (const NetPacket *p : q.queue())
            w.pkt(p);
        w.i32(q.outstanding);
    }
}

void
restoreInjectorQueues(CheckpointReader &r,
                      std::vector<InjectorQueue> &queues)
{
    if (r.u32() != queues.size())
        r.fail("external injector-queue count mismatch");
    for (InjectorQueue &q : queues) {
        const std::uint32_t len = r.u32();
        if (len > kMaxQueueLen)
            r.fail("implausible external queue length");
        std::deque<NetPacket *> dq;
        for (std::uint32_t i = 0; i < len; ++i) {
            NetPacket *p = r.pkt();
            if (p == nullptr)
                r.fail("null packet in an external injector queue");
            dq.push_back(p);
        }
        const int outstanding = r.i32();
        if (outstanding < 0 || outstanding > q.windowLimit)
            r.fail("external window counter out of bounds");
        q.restoreRaw(std::move(dq), outstanding);
    }
}

// --- NetSim save ---------------------------------------------------------

void
NetSim::saveCheckpoint(std::ostream &os) const
{
    auto &net = const_cast<Network &>(*net_);
    CheckpointWriter w(os, net, pool_);

    w.raw(kCheckpointMagic, sizeof(kCheckpointMagic));
    w.u32(kCheckpointVersion);
    w.u64(kEngineSalt);
    w.u64(topologyFingerprint(net));
    w.u64(now_);
    w.u8(engineCfg_.activityDriven ? 1 : 0);

    w.section("metrics");
    w.u64(metrics_.measureStart);
    w.u64(metrics_.measureEnd);
    w.u64(metrics_.generatedPackets);
    w.u64(metrics_.generatedFlits);
    w.u64(metrics_.measuredGenerated);
    w.u64(metrics_.injectedAttempts);
    w.u64(metrics_.deliveredPackets);
    w.u64(metrics_.deliveredFlits);
    const RunningStat::Raw lat = metrics_.latency.raw();
    w.u64(lat.n);
    w.f64(lat.mean);
    w.f64(lat.m2);
    w.f64(lat.min);
    w.f64(lat.max);
    w.f64(lat.sum);
    w.u32(static_cast<std::uint32_t>(metrics_.latencyHist.numBuckets()));
    for (std::size_t i = 0; i < metrics_.latencyHist.numBuckets(); ++i)
        w.u64(metrics_.latencyHist.bucket(i));
    w.u64(metrics_.latencyHist.overflow());
    w.u64(metrics_.latencyHist.count());
    w.u32(static_cast<std::uint32_t>(metrics_.flowFlits.size()));
    for (std::uint64_t f : metrics_.flowFlits)
        w.u64(f);
    w.u64(metrics_.preemptionEvents);
    w.f64(metrics_.usefulHops);
    w.f64(metrics_.wastedHops);

    w.section("packets");
    w.u64(pool_.allocatedCount());
    for (std::size_t i = 0; i < pool_.allocatedCount(); ++i) {
        const NetPacket *p = pool_.at(i);
        w.u64(p->id);
        w.i32(p->flow);
        w.i32(p->src);
        w.i32(p->dst);
        w.i32(p->finalDst);
        w.i32(p->sizeFlits);
        w.u64(p->genCycle);
        w.u64(p->queuedCycle);
        w.u64(p->deliverCycle);
        w.u8(static_cast<std::uint8_t>(p->state));
        w.u8(p->measured ? 1 : 0);
        w.u8(p->rateCompliant ? 1 : 0);
        w.i32(p->attempt);
        w.u64(p->carriedPrio);
        w.u64(p->frameTag);
        w.u64(p->blockedSince);
        w.f64(p->hopsThisAttempt);
        w.i32(p->numLocs);
        for (int l = 0; l < p->numLocs; ++l) {
            w.port(p->locs[static_cast<std::size_t>(l)].port);
            w.i32(p->locs[static_cast<std::size_t>(l)].vc);
        }
        w.i32(p->numXfers);
        for (int x = 0; x < p->numXfers; ++x)
            w.output(p->xfers[static_cast<std::size_t>(x)]);
        w.u8(p->inWindow ? 1 : 0);
        w.i32(p->numCharges);
        for (int c = 0; c < p->numCharges; ++c) {
            w.table(p->charges[static_cast<std::size_t>(c)].table);
            w.i32(p->charges[static_cast<std::size_t>(c)].tableIdx);
        }
    }
    w.u64(pool_.freeList().size());
    for (const NetPacket *p : pool_.freeList())
        w.u64(w.pktIndex(p));
    w.u64(pool_.nextId());

    w.section("ports");
    for (NodeId n = 0; n < net.numNodes(); ++n)
        writeVcArray(w, *net.termPort(n));
    for (const InputPort *p : net.auxPorts())
        writeVcArray(w, *p);

    w.section("routers");
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        Router *r = net.router(n);
        w.u32(static_cast<std::uint32_t>(r->inputs().size()));
        for (const auto &in : r->inputs())
            writeVcArray(w, *in);
        w.u32(static_cast<std::uint32_t>(r->outputs().size()));
        for (const auto &out : r->outputs()) {
            w.u64(out->nextStart());
            const OutputPort::Transfer &x = out->transfer();
            w.u8(x.active ? 1 : 0);
            w.pkt(x.pkt);
            w.i32(x.dropIdx);
            w.u64(x.firstFlit);
            w.u64(x.tailDepart);
            w.port(x.srcVc.port);
            w.i32(x.srcVc.vc);
        }
        w.u32(static_cast<std::uint32_t>(r->groups().size()));
        for (const auto &g : r->groups())
            w.u64(g->busyUntil());
        w.u8(r->flowTable().enabled() ? 1 : 0);
        if (r->flowTable().enabled())
            w.words(r->flowTable().counts());
        w.words(r->policy().packState());
    }

    w.section("injectors");
    w.u32(static_cast<std::uint32_t>(net.numFlows()));
    for (FlowId f = 0; f < net.numFlows(); ++f) {
        const InjectorQueue &inj = net.injector(f);
        w.u32(static_cast<std::uint32_t>(inj.queue().size()));
        for (const NetPacket *p : inj.queue())
            w.pkt(p);
        w.i32(inj.outstanding);
    }

    w.section("acks");
    w.u32(static_cast<std::uint32_t>(ack_.rawEvents().size()));
    for (const AckEvent &ev : ack_.rawEvents()) {
        w.u64(ev.deliverAt);
        w.pkt(ev.pkt);
        w.u8(ev.isNack ? 1 : 0);
    }

    w.section("engine");
    w.u8(quota_ != nullptr ? 1 : 0);
    if (quota_ != nullptr)
        w.words(quota_->injected());
    w.u8(gate_ != nullptr ? 1 : 0);
    if (gate_ != nullptr)
        w.words(gate_->packState());
    w.u8(source_ != nullptr ? 1 : 0);
    if (source_ != nullptr)
        w.words(source_->packState());

    w.section("extra");
    saveExtra(w);
    w.section("end");
}

// --- NetSim restore ------------------------------------------------------

bool
NetSim::restoreCheckpoint(std::istream &is, std::string *err)
{
    try {
        if (now_ != 0 || pool_.allocatedCount() != 0) {
            throw CheckpointError(
                "restore target must be a freshly built simulation");
        }

        const CheckpointInfo info = readCheckpointInfo(is);
        if (info.salt != kEngineSalt) {
            throw CheckpointError(
                "engine salt mismatch (checkpoint " +
                std::to_string(info.salt) + ", this build " +
                std::to_string(kEngineSalt) +
                "): simulation dynamics changed since the save");
        }
        if (info.fingerprint != topologyFingerprint(*net_)) {
            throw CheckpointError(
                "topology fingerprint mismatch: checkpoint was saved from a "
                "differently-shaped fabric or spec");
        }

        CheckpointReader r(is, *net_, pool_, kHeaderBytes);

        r.expectSection("metrics");
        metrics_.measureStart = r.u64();
        metrics_.measureEnd = r.u64();
        metrics_.generatedPackets = r.u64();
        metrics_.generatedFlits = r.u64();
        metrics_.measuredGenerated = r.u64();
        metrics_.injectedAttempts = r.u64();
        metrics_.deliveredPackets = r.u64();
        metrics_.deliveredFlits = r.u64();
        RunningStat::Raw lat;
        lat.n = r.u64();
        lat.mean = r.f64();
        lat.m2 = r.f64();
        lat.min = r.f64();
        lat.max = r.f64();
        lat.sum = r.f64();
        metrics_.latency.setRaw(lat);
        const std::uint32_t nBuckets = r.u32();
        if (nBuckets != metrics_.latencyHist.numBuckets())
            r.fail("latency histogram geometry mismatch");
        std::vector<std::uint64_t> buckets(nBuckets);
        for (std::uint32_t i = 0; i < nBuckets; ++i)
            buckets[i] = r.u64();
        const std::uint64_t overflow = r.u64();
        const std::uint64_t histCount = r.u64();
        metrics_.latencyHist.setCounts(buckets, overflow, histCount);
        const std::uint32_t nFlows = r.u32();
        if (nFlows != metrics_.flowFlits.size())
            r.fail("per-flow throughput vector size mismatch");
        for (std::uint32_t i = 0; i < nFlows; ++i)
            metrics_.flowFlits[i] = r.u64();
        metrics_.preemptionEvents = r.u64();
        metrics_.usefulHops = r.f64();
        metrics_.wastedHops = r.f64();

        r.expectSection("packets");
        const std::uint64_t pktCount = r.u64();
        if (pktCount > kMaxPackets)
            r.fail("implausible packet count " + std::to_string(pktCount));
        pool_.restoreShape(static_cast<std::size_t>(pktCount));
        for (std::size_t i = 0; i < pktCount; ++i) {
            NetPacket *p = pool_.at(i);
            p->id = r.u64();
            p->flow = r.i32();
            p->src = r.i32();
            p->dst = r.i32();
            p->finalDst = r.i32();
            p->sizeFlits = r.i32();
            p->genCycle = r.u64();
            p->queuedCycle = r.u64();
            p->deliverCycle = r.u64();
            const std::uint8_t state = r.u8();
            if (state > static_cast<std::uint8_t>(PacketState::Dropped))
                r.fail("bad packet state");
            p->state = static_cast<PacketState>(state);
            p->measured = r.u8() != 0;
            p->rateCompliant = r.u8() != 0;
            p->attempt = r.i32();
            p->carriedPrio = r.u64();
            p->frameTag = r.u64();
            p->blockedSince = r.u64();
            p->hopsThisAttempt = r.f64();
            p->numLocs = r.i32();
            if (p->numLocs < 0 ||
                p->numLocs > static_cast<int>(p->locs.size()))
                r.fail("bad packet location count");
            for (int l = 0; l < p->numLocs; ++l) {
                p->locs[static_cast<std::size_t>(l)].port = r.port();
                p->locs[static_cast<std::size_t>(l)].vc = r.i32();
            }
            p->numXfers = r.i32();
            if (p->numXfers < 0 ||
                p->numXfers > static_cast<int>(p->xfers.size()))
                r.fail("bad packet transfer count");
            for (int x = 0; x < p->numXfers; ++x)
                p->xfers[static_cast<std::size_t>(x)] = r.output();
            p->inWindow = r.u8() != 0;
            p->numCharges = r.i32();
            if (p->numCharges < 0 ||
                p->numCharges > static_cast<int>(p->charges.size()))
                r.fail("bad packet charge count");
            for (int c = 0; c < p->numCharges; ++c) {
                p->charges[static_cast<std::size_t>(c)].table = r.table();
                p->charges[static_cast<std::size_t>(c)].tableIdx = r.i32();
            }
        }
        const std::uint64_t freeCount = r.u64();
        if (freeCount > pktCount)
            r.fail("free list longer than the pool");
        std::vector<std::size_t> freeIdx(
            static_cast<std::size_t>(freeCount));
        for (std::size_t i = 0; i < freeCount; ++i) {
            const std::uint64_t idx = r.u64();
            if (idx >= pktCount)
                r.fail("free-list index out of range");
            freeIdx[i] = static_cast<std::size_t>(idx);
        }
        const PacketId nextId = r.u64();
        pool_.restoreFreeList(freeIdx, nextId);

        r.expectSection("ports");
        for (NodeId n = 0; n < net_->numNodes(); ++n)
            readVcArray(r, *net_->termPort(n));
        for (InputPort *p : net_->auxPorts())
            readVcArray(r, *p);

        r.expectSection("routers");
        for (NodeId n = 0; n < net_->numNodes(); ++n) {
            Router *rt = net_->router(n);
            if (r.u32() != rt->inputs().size())
                r.fail("input-port count mismatch at node " +
                       std::to_string(n));
            for (const auto &in : rt->inputs())
                readVcArray(r, *in);
            if (r.u32() != rt->outputs().size())
                r.fail("output-port count mismatch at node " +
                       std::to_string(n));
            for (const auto &out : rt->outputs()) {
                const Cycle nextStart = r.u64();
                OutputPort::Transfer x;
                x.active = r.u8() != 0;
                x.pkt = r.pkt();
                x.dropIdx = r.i32();
                x.firstFlit = r.u64();
                x.tailDepart = r.u64();
                x.srcVc.port = r.port();
                x.srcVc.vc = r.i32();
                if (x.active &&
                    (x.pkt == nullptr || x.dropIdx < 0 ||
                     x.dropIdx >= static_cast<int>(out->drops.size())))
                    r.fail("bad transfer record at node " + std::to_string(n));
                out->restoreRaw(nextStart, x);
            }
            if (r.u32() != rt->groups().size())
                r.fail("crossbar-group count mismatch at node " +
                       std::to_string(n));
            for (const auto &g : rt->groups())
                g->restoreBusyUntil(r.u64());
            const bool tableEnabled = r.u8() != 0;
            if (tableEnabled != rt->flowTable().enabled())
                r.fail("flow-table presence mismatch at node " +
                       std::to_string(n));
            if (tableEnabled) {
                const std::vector<std::uint64_t> counts = r.words();
                if (counts.size() != rt->flowTable().counts().size())
                    r.fail("flow-table size mismatch at node " +
                           std::to_string(n));
                rt->flowTable().restoreCounts(counts);
            }
            rt->policyState().unpackState(readStateWords(
                r, rt->policy().packState().size(),
                "node " + std::to_string(n) + " arbitration-policy",
                "saved under different QoS parameters"));
        }

        r.expectSection("injectors");
        if (r.u32() != static_cast<std::uint32_t>(net_->numFlows()))
            r.fail("flow count mismatch");
        for (FlowId f = 0; f < net_->numFlows(); ++f) {
            InjectorQueue &inj = net_->injector(f);
            const std::uint32_t qLen = r.u32();
            if (qLen > kMaxQueueLen)
                r.fail("implausible injector queue length");
            std::deque<NetPacket *> q;
            for (std::uint32_t i = 0; i < qLen; ++i) {
                NetPacket *p = r.pkt();
                if (p == nullptr)
                    r.fail("null packet in injector queue");
                q.push_back(p);
            }
            const int outstanding = r.i32();
            if (outstanding < 0 || outstanding > inj.windowLimit)
                r.fail("window counter out of bounds for flow " +
                       std::to_string(f));
            inj.restoreRaw(std::move(q), outstanding);
        }

        r.expectSection("acks");
        const std::uint32_t ackCount = r.u32();
        if (ackCount > kMaxQueueLen)
            r.fail("implausible ACK event count");
        std::vector<AckEvent> acks(ackCount);
        for (std::uint32_t i = 0; i < ackCount; ++i) {
            acks[i].deliverAt = r.u64();
            acks[i].pkt = r.pkt();
            acks[i].isNack = r.u8() != 0;
            if (acks[i].pkt == nullptr)
                r.fail("null packet in ACK event");
        }
        ack_.restoreRaw(std::move(acks));

        r.expectSection("engine");
        const bool hasQuota = r.u8() != 0;
        if (hasQuota != (quota_ != nullptr))
            r.fail("quota-tracker presence mismatch");
        if (hasQuota) {
            const std::vector<std::uint64_t> injected = r.words();
            if (injected.size() != quota_->injected().size())
                r.fail("quota-tracker size mismatch");
            quota_->restoreInjected(injected);
        }
        const bool hasGate = r.u8() != 0;
        if (hasGate != (gate_ != nullptr))
            r.fail("source-gate presence mismatch");
        if (hasGate) {
            gate_->unpackState(readStateWords(
                r, gate_->packState().size(), "source-gate",
                "saved under different GSF frame parameters"));
        }
        const bool hasSource = r.u8() != 0;
        if (hasSource != (source_ != nullptr))
            r.fail("traffic-source presence mismatch");
        if (hasSource) {
            source_->unpackState(readStateWords(
                r, source_->packState().size(), "traffic-source",
                "saved under a different workload"));
        }

        r.expectSection("extra");
        restoreExtra(r);
        r.expectSection("end");

        // The raw overwrites above bypassed every incremental hook:
        // rebuild all derived activity state from the restored structural
        // state. This mirrors a frame-boundary invalidation (full rescan
        // on the next tick), which the engines are proven bit-identical
        // under.
        for (NodeId n = 0; n < net_->numNodes(); ++n)
            net_->router(n)->rebuildFromRestore();

        now_ = info.now;

        // Re-arm the ejection due list with every Reserved terminal and
        // handoff VC. The uninterrupted run's list may also hold stale
        // entries of killed packets, which deliver nothing.
        rearmEjections();

        // Re-arm the worklist with exactly the routers that have work.
        // The uninterrupted run's worklist may hold extra (just-drained)
        // routers, but ticking a work-less router is a provable no-op,
        // so the restored run stays bit-identical.
        net_->worklist().clear();
        for (NodeId n = 0; n < net_->numNodes(); ++n) {
            Router *rt = net_->router(n);
            if (rt->hasWork())
                rt->setWorklist(&net_->worklist());
        }
        return true;
    } catch (const CheckpointError &e) {
        if (err != nullptr)
            *err = e.what();
        return false;
    }
}

} // namespace taqos
