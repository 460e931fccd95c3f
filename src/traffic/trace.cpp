#include "traffic/trace.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/assert.h"
#include "common/strings.h"
#include "traffic/dynamic.h"

namespace taqos {

TrafficTrace::TrafficTrace(std::vector<TraceEntry> entries)
    : entries_(std::move(entries))
{
    for (std::size_t i = 1; i < entries_.size(); ++i) {
        TAQOS_ASSERT(entries_[i - 1].cycle <= entries_[i].cycle,
                     "trace entries out of order at %zu", i);
    }
}

void
TrafficTrace::append(TraceEntry entry)
{
    TAQOS_ASSERT(entries_.empty() || entries_.back().cycle <= entry.cycle,
                 "trace entries must be appended in cycle order");
    entries_.push_back(entry);
}

Cycle
TrafficTrace::lastCycle() const
{
    return entries_.empty() ? 0 : entries_.back().cycle;
}

std::uint64_t
TrafficTrace::totalFlits() const
{
    std::uint64_t flits = 0;
    for (const auto &e : entries_)
        flits += static_cast<std::uint64_t>(e.sizeFlits);
    return flits;
}

TrafficTrace
TrafficTrace::record(const ColumnConfig &col, const TrafficConfig &traffic,
                     Cycle cycles)
{
    ColumnConfig canon = col;
    canon.canonicalize();
    TrafficGenerator gen(canon, traffic);

    PacketPool pool;
    SimMetrics metrics(canon.numFlows());
    std::vector<InjectorQueue> injectors(
        static_cast<std::size_t>(canon.numFlows()));
    for (FlowId f = 0; f < canon.numFlows(); ++f)
        injectors[static_cast<std::size_t>(f)].flow = f;

    TrafficTrace trace;
    for (Cycle c = 0; c < cycles; ++c) {
        gen.tick(c, pool, injectors, metrics);
        // Drain what this cycle produced, in flow order (stable).
        for (auto &inj : injectors) {
            while (!inj.queue().empty()) {
                NetPacket *pkt = inj.dequeue();
                trace.append(TraceEntry{c, pkt->flow, pkt->dst,
                                        pkt->sizeFlits});
                pkt->state = PacketState::Queued;
                pool.release(pkt);
            }
        }
    }
    return trace;
}

std::string
TrafficTrace::toCsv() const
{
    std::string out = "cycle,flow,dst,size\n";
    for (const auto &e : entries_) {
        out += strFormat("%llu,%d,%d,%d\n",
                         static_cast<unsigned long long>(e.cycle), e.flow,
                         e.dst, e.sizeFlits);
    }
    return out;
}

std::optional<TrafficTrace>
TrafficTrace::fromCsv(const std::string &csv, std::string *err,
                      const ColumnConfig *column)
{
    const auto fail = [err](std::string msg) -> std::optional<TrafficTrace> {
        if (err != nullptr)
            *err = std::move(msg);
        return std::nullopt;
    };

    std::vector<TraceEntry> entries;
    bool first = true;
    std::size_t lineNo = 0;
    for (const auto &line : strSplit(csv, '\n')) {
        ++lineNo;
        const std::string trimmed = strTrim(line);
        if (trimmed.empty())
            continue;
        // A diagnosis echoes the line, so it may hold no control
        // character (a NUL, a lone CR); a CRLF ending is trimmed above.
        const auto ctl =
            std::find_if(trimmed.begin(), trimmed.end(), [](unsigned char c) {
                return std::iscntrl(c) != 0;
            });
        if (ctl != trimmed.end()) {
            return fail(strFormat(
                "trace csv line %zu: control character 0x%02x at byte %zu",
                lineNo, static_cast<unsigned char>(*ctl),
                static_cast<std::size_t>(ctl - trimmed.begin())));
        }
        if (first) {
            first = false;
            if (trimmed.rfind("cycle", 0) == 0)
                continue; // header
        }
        const auto fields = strSplit(trimmed, ',');
        if (fields.size() != 4) {
            return fail(strFormat(
                "trace csv line %zu: want 'cycle,flow,dst,size', got '%s'",
                lineNo, trimmed.c_str()));
        }
        static const char *kFieldNames[4] = {"cycle", "flow", "dst", "size"};
        std::uint64_t v[4];
        for (std::size_t i = 0; i < 4; ++i) {
            const std::string tok = strTrim(fields[i]);
            // Strict: the CSV carries nothing signed, an empty or
            // trailing-garbage field is an error, not a zero, and flow,
            // dst and size must fit the int they are stored in.
            if (!parseU64Tok(tok, v[i]) ||
                (i > 0 && !std::in_range<int>(v[i]))) {
                return fail(strFormat("trace csv line %zu: bad %s '%s'",
                                      lineNo, kFieldNames[i], tok.c_str()));
            }
        }
        TraceEntry e;
        e.cycle = v[0];
        e.flow = static_cast<FlowId>(v[1]);
        e.dst = static_cast<NodeId>(v[2]);
        e.sizeFlits = static_cast<int>(v[3]);
        if (e.sizeFlits < 1) {
            return fail(strFormat("trace csv line %zu: bad size '%d'",
                                  lineNo, e.sizeFlits));
        }
        if (column != nullptr && e.flow >= column->numFlows()) {
            return fail(strFormat(
                "trace csv line %zu: flow %d outside the column's %d flows",
                lineNo, e.flow, column->numFlows()));
        }
        if (column != nullptr && e.dst >= column->numNodes) {
            return fail(strFormat(
                "trace csv line %zu: dst %d outside the column's %d nodes",
                lineNo, e.dst, column->numNodes));
        }
        if (!entries.empty() && entries.back().cycle > e.cycle) {
            return fail(strFormat(
                "trace csv line %zu: cycle %llu out of order (after %llu)",
                lineNo, static_cast<unsigned long long>(e.cycle),
                static_cast<unsigned long long>(entries.back().cycle)));
        }
        entries.push_back(e);
    }
    return TrafficTrace(std::move(entries));
}

TraceReplayer::TraceReplayer(const ColumnConfig &col, TrafficTrace trace)
    : col_(col), trace_(std::move(trace))
{
    col_.canonicalize();
}

TraceReplayer::TraceReplayer(const ColumnConfig &col, TrafficTrace trace,
                             const WorkloadSpec &spec)
    : TraceReplayer(col, applyReplayWindow(trace, spec))
{
    TAQOS_ASSERT(spec.kind == WorkloadKind::Trace,
                 "trace replayer needs a trace workload, got %s",
                 workloadKindName(spec.kind));
    loop_ = spec.traceLoop;
    loopLen_ = spec.windowEnd != kNoCycle
        ? spec.windowEnd - spec.windowBegin
        : trace_.lastCycle() + 1;
}

void
TraceReplayer::tick(Cycle now, PacketPool &pool,
                    std::vector<InjectorQueue> &injectors,
                    SimMetrics &metrics)
{
    const auto &entries = trace_.entries();
    if (entries.empty())
        return;
    // Entries replay at their recorded cycle, offset by a full window
    // length per completed lap when looping. Stale earlier-cycle entries
    // (replay started mid-trace) are skipped by the same walk.
    while (next_ < entries.size()) {
        const Cycle at = entries[next_].cycle + lap_ * loopLen_;
        if (at > now)
            break;
        if (at == now) {
            const TraceEntry &e = entries[next_];
            TAQOS_ASSERT(e.flow >= 0 && e.flow < col_.numFlows(),
                         "trace flow %d out of range", e.flow);
            TAQOS_ASSERT(e.dst >= 0 && e.dst < col_.numNodes,
                         "trace dst %d out of range", e.dst);

            NetPacket *pkt = pool.alloc();
            pkt->flow = e.flow;
            pkt->src = col_.nodeOfFlow(e.flow);
            pkt->dst = e.dst;
            pkt->sizeFlits = e.sizeFlits;
            pkt->genCycle = now;
            pkt->queuedCycle = now;
            pkt->state = PacketState::Queued;
            pkt->measured = metrics.inWindow(now);
            injectors[static_cast<std::size_t>(e.flow)].enqueue(pkt);

            ++metrics.generatedPackets;
            metrics.generatedFlits += static_cast<std::uint64_t>(e.sizeFlits);
            if (pkt->measured)
                ++metrics.measuredGenerated;
        }
        ++next_;
        if (next_ == entries.size() && loop_) {
            next_ = 0;
            ++lap_;
        }
    }
}

} // namespace taqos
