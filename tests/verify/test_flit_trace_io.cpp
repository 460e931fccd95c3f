/// Pins on the flit-trace text I/O: the writer's exact bytes for two
/// recorded traces, and the parser's verdict on a deterministic corpus
/// of mutated traces. Any drift in the emitted bytes, the accepted
/// inputs, a diagnostic or a parsed field shows here. The mutant corpus
/// is the in-repo mutation harness for this reader: seeded byte flips,
/// truncations and line deletes, duplicates and swaps over a short
/// recorded trace, plus hand-written inputs the writer never emits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/experiments.h"
#include "mutants.h"
#include "sim/column_sim.h"
#include "sim/fabric_sim.h"
#include "sim/trace_record.h"
#include "traffic/workloads.h"
#include "verify/flit_trace.h"

namespace taqos {
namespace {

using mutants::Fnv;
using mutants::joinLines;
using mutants::mutate;
using mutants::splitLines;

/// Every field of a parsed trace, read from the struct (not through the
/// writer), so a parser pin does not depend on the writer.
std::uint64_t
traceDigest(const FlitTrace &t)
{
    Fnv f;
    const TraceMeta &m = t.meta;
    f.str(m.topology);
    f.str(m.mode);
    f.i32(m.nodes);
    f.i32(m.injectorsPerNode);
    f.i32(m.flows);
    f.u64(m.frameLen);
    f.u64(m.quotaEnabled);
    f.f64(m.quotaProtect);
    f.i32(m.windowLimit);
    f.u64(m.gsfFrameLen);
    f.i32(m.gsfFrames);
    f.u64(m.weights.size());
    for (std::uint32_t w : m.weights)
        f.u64(w);
    f.u64(m.maxAge);
    f.f64(m.wrrTol);
    f.u64(m.measureStart);
    f.u64(m.measureEnd);
    f.u64(m.endCycle);
    f.u64(m.drained);
    f.u64(t.ports.size());
    for (const TracePortInfo &p : t.ports) {
        f.i32(p.id);
        f.i32(p.node);
        f.u64(p.terminal);
        f.str(p.name);
    }
    f.u64(t.events.size());
    for (const TraceEvent &e : t.events) {
        f.u64(static_cast<unsigned char>(e.kind));
        f.u64(e.cycle);
        f.u64(e.pkt);
        f.i32(e.node);
        f.i32(e.port);
        f.i32(e.vc);
        f.i32(e.flow);
        f.i32(e.src);
        f.i32(e.dst);
        f.i32(e.size);
        f.i32(e.attempt);
        f.u64(e.gen);
        f.u64(e.frameTag);
        f.u64(e.compliant);
        f.u64(e.head);
        f.u64(e.tail);
    }
    return f.h;
}

bool
hasKinds(const FlitTrace &t, std::string_view kinds)
{
    return std::all_of(kinds.begin(), kinds.end(), [&t](char k) {
        return std::any_of(t.events.begin(), t.events.end(),
                           [k](const TraceEvent &e) {
                               return static_cast<char>(e.kind) == k;
                           });
    });
}

/// The preemption-heavy workload-1 DPS column, run to drain.
FlitTrace
recordWorkload1(Cycle genUntil)
{
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    col.canonicalize();
    TrafficConfig t = makeWorkload1(col);
    t.genUntil = genUntil;
    ColumnSim sim(col, t);
    TraceRecorder rec(describeColumn(sim.cfg()));
    sim.attachTraceSink(&rec);
    EXPECT_NE(sim.runUntilDrained(400000, genUntil), kNoCycle);
    rec.finish(sim.now(), sim.drained());
    return rec.trace();
}

TEST(FlitTraceText, SerializedBytesArePinned)
{
    const FlitTrace column = recordWorkload1(20000);
    ASSERT_TRUE(hasKinds(column, "JRNFHKQDA"));
    const std::string columnText = serializeFlitTrace(column);
    Fnv columnHash;
    columnHash.bytes(columnText);
    EXPECT_EQ(columnText.size(), 3622288u);
    EXPECT_EQ(columnHash.h, 4727311416281196970ull);

    FabricSpec spec;
    spec.chips = 2;
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    spec.column.pvc.frameLen = 2000;
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.05;
    t.genUntil = 1000;
    FabricSim sim(spec, t);
    sim.setMeasureWindow(0, 1000);
    TraceRecorder rec(describeFabric(sim.network()));
    rec.setMeasureWindow(0, 1000);
    sim.attachTraceSink(&rec);
    ASSERT_NE(sim.runUntilDrained(120000, 1000), kNoCycle);
    rec.finish(sim.now(), sim.drained());
    ASSERT_TRUE(hasKinds(rec.trace(), "S"));
    const std::string fabricText = serializeFlitTrace(rec.trace());
    Fnv fabricHash;
    fabricHash.bytes(fabricText);
    EXPECT_EQ(fabricText.size(), 1647632u);
    EXPECT_EQ(fabricHash.h, 16204176294804447919ull);
}

// --------------------------------------------------------- mutant corpus

/// `base` with line `idx` (0-based, without its '\n') replaced by `with`.
std::string
withLine(const std::string &base, std::size_t idx, std::string_view with)
{
    std::vector<std::string> lines = splitLines(base);
    lines[idx] = std::string(with) + "\n";
    return joinLines(lines);
}

/// `base` with `line` inserted before line `idx`.
std::string
insertLine(const std::string &base, std::size_t idx, std::string_view line)
{
    std::vector<std::string> lines = splitLines(base);
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(idx),
                 std::string(line) + "\n");
    return joinLines(lines);
}

std::string
replaceAll(std::string s, std::string_view from, std::string_view to)
{
    for (std::size_t at = s.find(from); at != std::string::npos;
         at = s.find(from, at + to.size())) {
        s.replace(at, from.size(), to);
    }
    return s;
}

/// Inputs the writer never emits: signs, overflow, other line endings and
/// separators, comments, blank lines, trailing tokens and NULs, placed in
/// the header, the meta block, the port table and the event stream.
std::vector<std::string>
handWritten(const std::string &base)
{
    const std::vector<std::string> lines = splitLines(base);
    std::size_t eventsIdx = 0;
    while (lines[eventsIdx].rfind("events ", 0) != 0)
        ++eventsIdx;
    const std::size_t ev = eventsIdx + 1; // first event line
    const std::size_t metaIdx = 1;        // first meta line
    std::size_t portIdx = metaIdx;
    while (lines[portIdx].rfind("port ", 0) != 0)
        ++portIdx;

    std::vector<std::string> out;
    const auto event = [&](std::string_view line) {
        out.push_back(withLine(base, ev, line));
    };
    const auto meta = [&](std::string_view line) {
        out.push_back(insertLine(base, metaIdx, line));
    };
    using namespace std::string_literals;

    // Signs and overflow on unsigned (cycle, pkt) and signed (node)
    // fields, every event arity, NUL inside and after a token.
    for (const char *line :
         {"Q +5 7", "Q -5 7", "Q 5 -7", "Q 5 +7", "Q 5 +-7", "Q 5 -+7",
          "Q 5 --7", "Q 5 -", "Q 5 +", "Q - 5", "Q 5 -0", "Q 5 +0",
          "Q 5 18446744073709551615", "Q 5 18446744073709551616",
          "Q 5 99999999999999999999", "Q 5 -18446744073709551615",
          "Q 5 -18446744073709551616", "Q 5 000000000000000000000000042",
          "Q 5 0x10", "Q 5 1e3", "Q 5 12abc", "Q 5 7 8", "Q 5", "Q",
          "K 5 -3 7", "K 5 +3 7", "K 5 -2147483648 7", "K 5 -2147483649 7",
          "K 5 2147483647 7", "K 5 2147483648 7", "K 5 +2147483648 7",
          "K 5 99999999999999999999 7", "K 5 -9223372036854775808 7",
          "K 5 -9223372036854775809 7", "K 5 3", "A 5 9", "A 5 9 x",
          "A 5 9 #note", "S 5 3 0 9 7", "S 5 3 0 9", "S 5 3 0 9 7 1",
          "S 5 3 0 9 -1", "H 5 0 7 0 1", "H 5 0 7 0", "D 5 7 0 1",
          "F 5 7 0 1", "N 5 7 0 1", "N 5 7 0 1 2", "R 5 7 0 1 8 11",
          "R 5 7 0 1 8", "J 3 0 1 17 2 5 4 1 3 18446744073709551615 1",
          "J 3 0 1 17 2 5 4 1 3 5 -1", "J 3 0 1 17 2 5 4 1 3 5",
          "J 3 0 1 17 2 5 4 1 3 5 1 0", "X 5 9", "AA 5 9", "a 5 9", "",
          " ", "  \t", "\r", "#", "# A 5 9", " A 5 9 ", "\tA\t5\t9\t",
          "A\v5\f9\r"}) {
        event(line);
    }
    event("Q 5 7\0"s);
    event("Q 5\0 7"s);
    event("Q 5 \0"s);
    event("Q 5 7\0x"s);
    event("Q\0 5 7"s);
    event("K 5 3\0 7"s);

    // Whole-text transforms.
    out.push_back(replaceAll(base, "\n", "\r\n"));
    out.push_back(replaceAll(base, " ", "\t"));
    out.push_back(replaceAll(base, " ", "  \v"));
    out.push_back(replaceAll(base, " ", "\f "));
    out.push_back(replaceAll(base, "\n", " \t\n  "));
    out.push_back(replaceAll(base, "\n", "\n\n"));
    out.push_back(replaceAll(base, "\n", "\n# comment\n"));
    out.push_back(base.substr(0, base.size() - 1)); // no final '\n'
    out.push_back(base + "trailing garbage\n");
    out.push_back(base + "A 5 9\n");
    out.push_back(insertLine(base, ev, "# a comment among the events"));
    out.push_back(insertLine(base, ev + 3, ""));
    out.push_back(insertLine(base, portIdx, "#"));
    out.push_back(insertLine(base, portIdx, ""));
    out.push_back(insertLine(base, portIdx, " \t "));
    out.push_back(insertLine(base, portIdx, " # not a comment"));
    out.push_back(insertLine(base, eventsIdx, "events 3"));

    // Header.
    for (const char *line :
         {"taqos-flit-trace 1", "taqos-flit-trace 3",
          "taqos-flit-trace 0", "taqos-flit-trace -2",
          "taqos-flit-trace +2", "taqos-flit-trace 2 extra",
          "taqos-flit-trace", "taqos-flit-trace x", " taqos-flit-trace 2",
          "taqos-flit-trace\t2\r", "taqos-flit-trace 4294967298",
          "taqos-flit-trace2", "TAQOS-FLIT-TRACE 2", "", "#"}) {
        out.push_back(withLine(base, 0, line));
    }
    out.push_back(insertLine(base, 0, "# comment before the header"));
    out.push_back("taqos-flit-trace\0 2\n"s +
                  base.substr(base.find('\n') + 1));

    // Meta block and port table.
    for (const char *line :
         {"topology dps extra", "topology", "mode", "nodes 8 9", "nodes +8",
          "nodes -8", "nodes 2147483648", "nodes 8x", "flows 1e2",
          "frame_len -1", "frame_len 99999999999999999999",
          "quota_enabled 7", "quota_enabled -1", "quota_enabled",
          "drained -1", "weights 1 2 x", "weights 1 x 3", "weights",
          "weights 4294967297 -1", "weights 1 2 3", "quota_protect 1e400",
          "quota_protect 1e-400", "quota_protect nan", "quota_protect inf",
          "quota_protect 0x1p-1", "quota_protect -2.5",
          "quota_protect 1.5x", "quota_protect 1,5", "wrr_tol .5",
          "wrr_tol 5.", "wrr_tol +.5e1", "wrr_tol", "max_age 12 13",
          "unknown_key 5", "port 1 2 3", "port 1 2 0 name extra",
          "port -1 -2 -3 n", "events", "events 99999999999999999999",
          "events x"}) {
        meta(line);
    }
    meta("port 1 2 0 na\0me"s);
    meta("nodes 8\0"s);
    meta("wrr_tol 0.25\0junk"s);
    for (const char *line :
         {"events 0", "events -0", "events +126", "events 125", "events 127",
          "events 126 trailing", "events 1", "events 00126"}) {
        out.push_back(withLine(base, eventsIdx, line));
    }
    {
        std::vector<std::string> noEvents = lines;
        noEvents.resize(eventsIdx);
        out.push_back(joinLines(noEvents));
    }
    out.push_back("");
    out.push_back("\n");
    out.push_back(lines[0]);
    return out;
}

TEST(FlitTraceParse, MutantVerdictsArePinned)
{
    const FlitTrace recorded = recordWorkload1(20);
    const std::string base = serializeFlitTrace(recorded);
    ASSERT_EQ(recorded.events.size(), 126u);

    std::vector<std::string> corpus = handWritten(base);
    Rng rng(0x5eed7ace);
    for (int i = 0; i < 3000; ++i)
        corpus.push_back(mutate(base, rng));

    Fnv verdicts;
    std::size_t accepted = 0;
    for (const std::string &text : corpus) {
        FlitTrace parsed;
        std::string error;
        const bool ok = parseFlitTrace(text, parsed, error);
        verdicts.u64(ok);
        verdicts.str(error);
        if (ok) {
            ++accepted;
            verdicts.u64(traceDigest(parsed));
        } else {
            // Every rejection is one line naming the line at fault.
            EXPECT_EQ(error.rfind("line ", 0), 0u) << error;
            EXPECT_EQ(error.find('\n'), std::string::npos) << error;
        }
    }
    EXPECT_EQ(corpus.size(), 3161u);
    EXPECT_EQ(accepted, 872u);
    EXPECT_EQ(verdicts.h, 11799522637282907940ull);
}

TEST(FlitTraceParse, HugeEventCountIsTruncationNotCrash)
{
    // The declared count is outside input: it must neither size an
    // allocation past what the text can hold nor abort the parse.
    const std::pair<const char *, const char *> counts[] = {
        {"100000000", "100000000"},
        {"1000000000000", "1000000000000"},
        {"18446744073709551615", "18446744073709551615"},
        {"-1", "18446744073709551615"},
    };
    for (const auto &[declared, printed] : counts) {
        const std::string text = std::string("taqos-flit-trace 2\n"
                                             "topology dps\n"
                                             "mode pvc\n"
                                             "nodes 8\n"
                                             "events ") +
                                 declared + "\nA 5 9\n";
        const std::string want = std::string("line 7: truncated trace: "
                                             "expected ") +
                                 printed + " events, got 1";
        FlitTrace out;
        std::string error;
        EXPECT_FALSE(parseFlitTrace(text, out, error));
        EXPECT_EQ(error, want);
        EXPECT_LE(out.events.capacity(), text.size());

        std::istringstream is(text);
        EXPECT_FALSE(parseFlitTrace(is, out, error));
        EXPECT_EQ(error, want);
    }
}

} // namespace
} // namespace taqos
