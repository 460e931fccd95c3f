#include "verify/flit_trace.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <type_traits>

#include "common/strings.h"

namespace taqos {

namespace {

const char kMagic[] = "taqos-flit-trace";

// ------------------------------------------------------------- writer

/// A separator and the longest decimal field (20 digits of a uint64).
constexpr std::size_t kMaxField = 21;

/// Longest event line: the kind, at most eleven fields and the newline.
constexpr std::size_t kMaxEventLine = 1 + 11 * kMaxField + 1;

/// Bytes reserved per event before the first write; the traces the
/// benchmark audits average 20-22 (a longer trace grows the string).
constexpr std::size_t kEventBytesHint = 24;

/// Write each of `v` after a ' ' at `p`, which has kMaxField bytes of
/// room per value; returns the end of what was written. A double prints
/// as ostream's default does: %g with six significant digits.
template <typename... T>
char *
putFields(char *p, T... v)
{
    const auto put = [&p](auto x) {
        *p++ = ' ';
        if constexpr (std::is_floating_point_v<decltype(x)>) {
            p = std::to_chars(p, p + kMaxField - 1, x,
                              std::chars_format::general, 6)
                    .ptr;
        } else {
            p = std::to_chars(p, p + kMaxField - 1, x).ptr;
        }
    };
    (put(v), ...);
    return p;
}

void
appendEvent(std::string &out, const TraceEvent &e)
{
    char line[kMaxEventLine];
    char *p = line;
    *p++ = static_cast<char>(e.kind);
    p = putFields(p, e.cycle);
    switch (e.kind) {
      case TraceEventKind::Inject:
        p = putFields(p, e.node, e.pkt, e.flow, e.src, e.dst, e.size,
                      e.attempt, e.gen, e.frameTag, e.compliant ? 1 : 0);
        break;
      case TraceEventKind::VcReserve:
        p = putFields(p, e.port, e.vc, e.pkt, e.head, e.tail);
        break;
      case TraceEventKind::VcDrain:
      case TraceEventKind::VcFree:
      case TraceEventKind::Deliver:
        p = putFields(p, e.port, e.vc, e.pkt);
        break;
      case TraceEventKind::Hop:
        p = putFields(p, e.node, e.port, e.vc, e.pkt);
        break;
      case TraceEventKind::Kill:
        p = putFields(p, e.node, e.pkt);
        break;
      case TraceEventKind::Requeue:
      case TraceEventKind::Retire:
        p = putFields(p, e.pkt);
        break;
      case TraceEventKind::Segment:
        p = putFields(p, e.port, e.vc, e.pkt, e.dst);
        break;
    }
    *p++ = '\n';
    out.append(line, static_cast<std::size_t>(p - line));
}

/// One "<key> <value>" meta line.
template <typename T>
void
appendMeta(std::string &out, std::string_view key, T v)
{
    char value[kMaxField + 1];
    char *p = putFields(value, v);
    *p++ = '\n';
    out += key;
    out.append(value, static_cast<std::size_t>(p - value));
}

// ------------------------------------------------------------- parser

/// The shortest event line and its separator ("A 0 0\n"): no text can
/// hold more events than its length over this (plus one, for a last
/// line without '\n').
constexpr std::size_t kMinEventLine = 6;

bool
parseEvent(std::string_view line, TraceEvent &e)
{
    Tokens r(line);
    std::string_view kind;
    if (!r.next(kind) || kind.size() != 1)
        return false;
    std::int32_t i = 0;
    switch (kind[0]) {
      case 'J': e.kind = TraceEventKind::Inject; break;
      case 'R': e.kind = TraceEventKind::VcReserve; break;
      case 'N': e.kind = TraceEventKind::VcDrain; break;
      case 'F': e.kind = TraceEventKind::VcFree; break;
      case 'H': e.kind = TraceEventKind::Hop; break;
      case 'K': e.kind = TraceEventKind::Kill; break;
      case 'Q': e.kind = TraceEventKind::Requeue; break;
      case 'D': e.kind = TraceEventKind::Deliver; break;
      case 'A': e.kind = TraceEventKind::Retire; break;
      case 'S': e.kind = TraceEventKind::Segment; break;
      default: return false;
    }
    if (!r.nextU64(e.cycle))
        return false;
    switch (e.kind) {
      case TraceEventKind::Inject:
        if (!r.nextI32(e.node) || !r.nextU64(e.pkt) || !r.nextI32(e.flow) ||
            !r.nextI32(e.src) || !r.nextI32(e.dst) || !r.nextI32(e.size) ||
            !r.nextI32(e.attempt) || !r.nextU64(e.gen) ||
            !r.nextU64(e.frameTag) || !r.nextI32(i)) {
            return false;
        }
        e.compliant = i != 0;
        break;
      case TraceEventKind::VcReserve:
        if (!r.nextI32(e.port) || !r.nextI32(e.vc) || !r.nextU64(e.pkt) ||
            !r.nextU64(e.head) || !r.nextU64(e.tail)) {
            return false;
        }
        break;
      case TraceEventKind::VcDrain:
      case TraceEventKind::VcFree:
      case TraceEventKind::Deliver:
        if (!r.nextI32(e.port) || !r.nextI32(e.vc) || !r.nextU64(e.pkt))
            return false;
        break;
      case TraceEventKind::Hop:
        if (!r.nextI32(e.node) || !r.nextI32(e.port) || !r.nextI32(e.vc) ||
            !r.nextU64(e.pkt)) {
            return false;
        }
        break;
      case TraceEventKind::Kill:
        if (!r.nextI32(e.node) || !r.nextU64(e.pkt))
            return false;
        break;
      case TraceEventKind::Requeue:
      case TraceEventKind::Retire:
        if (!r.nextU64(e.pkt))
            return false;
        break;
      case TraceEventKind::Segment:
        if (!r.nextI32(e.port) || !r.nextI32(e.vc) || !r.nextU64(e.pkt) ||
            !r.nextI32(e.dst)) {
            return false;
        }
        break;
    }
    return r.atEnd();
}

bool
fail(std::string &error, std::size_t lineNo, const std::string &what)
{
    error = "line " + std::to_string(lineNo) + ": " + what;
    return false;
}

} // namespace

std::string
serializeFlitTrace(const FlitTrace &trace)
{
    const TraceMeta &m = trace.meta;
    std::string out;
    std::size_t header = 512 + m.topology.size() + m.mode.size() +
                         11 * m.weights.size();
    for (const TracePortInfo &p : trace.ports)
        header += 32 + p.name.size();
    out.reserve(header + kEventBytesHint * trace.events.size());

    appendMeta(out, kMagic, kFlitTraceVersion);
    out += "topology ";
    out += m.topology;
    out += "\nmode ";
    out += m.mode;
    out += '\n';
    appendMeta(out, "nodes", m.nodes);
    appendMeta(out, "injectors_per_node", m.injectorsPerNode);
    appendMeta(out, "flows", m.flows);
    appendMeta(out, "frame_len", m.frameLen);
    appendMeta(out, "quota_enabled", m.quotaEnabled ? 1 : 0);
    appendMeta(out, "quota_protect", m.quotaProtect);
    appendMeta(out, "window_limit", m.windowLimit);
    appendMeta(out, "gsf_frame_len", m.gsfFrameLen);
    appendMeta(out, "gsf_frames", m.gsfFrames);
    if (!m.weights.empty()) {
        out += "weights";
        char w[kMaxField];
        for (std::uint32_t v : m.weights)
            out.append(w, static_cast<std::size_t>(putFields(w, v) - w));
        out += '\n';
    }
    appendMeta(out, "max_age", m.maxAge);
    appendMeta(out, "wrr_tol", m.wrrTol);
    appendMeta(out, "measure_start", m.measureStart);
    appendMeta(out, "measure_end", m.measureEnd);
    appendMeta(out, "end_cycle", m.endCycle);
    appendMeta(out, "drained", m.drained ? 1 : 0);
    for (const TracePortInfo &p : trace.ports) {
        char nums[3 * kMaxField + 1];
        char *q = putFields(nums, p.id, p.node, p.terminal ? 1 : 0);
        *q++ = ' ';
        out += "port";
        out.append(nums, static_cast<std::size_t>(q - nums));
        out += p.name;
        out += '\n';
    }
    appendMeta(out, "events", trace.events.size());
    for (const TraceEvent &e : trace.events)
        appendEvent(out, e);
    return out;
}

void
writeFlitTrace(std::ostream &os, const FlitTrace &trace)
{
    const std::string text = serializeFlitTrace(trace);
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

bool
parseFlitTrace(std::string_view text, FlitTrace &out, std::string &error)
{
    out = FlitTrace{};
    error.clear();
    std::string_view rest = text;
    std::string_view line;
    std::size_t lineNo = 0;

    if (!nextLine(rest, line))
        return fail(error, 1, "empty trace (missing header)");
    ++lineNo;
    {
        Tokens r(line);
        std::string_view magic;
        std::int32_t version = 0;
        if (!r.next(magic) || magic != kMagic || !r.nextI32(version))
            return fail(error, lineNo, "not a taqos flit trace");
        if (version < kMinFlitTraceVersion || version > kFlitTraceVersion) {
            return fail(error, lineNo,
                        "unsupported trace version " +
                            std::to_string(version));
        }
    }

    TraceMeta &m = out.meta;
    std::uint64_t declaredEvents = 0;
    bool sawEvents = false;
    while (nextLine(rest, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        Tokens r(line);
        std::string_view key;
        if (!r.next(key))
            continue;
        bool ok = true;
        std::uint64_t u = 0;
        std::int32_t i = 0;
        if (key == "topology") {
            ok = r.next(m.topology);
        } else if (key == "mode") {
            ok = r.next(m.mode);
        } else if (key == "nodes") {
            ok = r.nextI32(m.nodes);
        } else if (key == "injectors_per_node") {
            ok = r.nextI32(m.injectorsPerNode);
        } else if (key == "flows") {
            ok = r.nextI32(m.flows);
        } else if (key == "frame_len") {
            ok = r.nextU64(m.frameLen);
        } else if (key == "quota_enabled") {
            ok = r.nextI32(i);
            m.quotaEnabled = i != 0;
        } else if (key == "quota_protect") {
            ok = r.nextDouble(m.quotaProtect);
        } else if (key == "window_limit") {
            ok = r.nextI32(m.windowLimit);
        } else if (key == "gsf_frame_len") {
            ok = r.nextU64(m.gsfFrameLen);
        } else if (key == "gsf_frames") {
            ok = r.nextI32(m.gsfFrames);
        } else if (key == "weights") {
            m.weights.clear();
            while (r.nextU64(u))
                m.weights.push_back(static_cast<std::uint32_t>(u));
            ok = r.atEnd() && !m.weights.empty();
        } else if (key == "max_age") {
            ok = r.nextU64(m.maxAge);
        } else if (key == "wrr_tol") {
            ok = r.nextDouble(m.wrrTol);
        } else if (key == "measure_start") {
            ok = r.nextU64(m.measureStart);
        } else if (key == "measure_end") {
            ok = r.nextU64(m.measureEnd);
        } else if (key == "end_cycle") {
            ok = r.nextU64(m.endCycle);
        } else if (key == "drained") {
            ok = r.nextI32(i);
            m.drained = i != 0;
        } else if (key == "port") {
            TracePortInfo p;
            ok = r.nextI32(p.id) && r.nextI32(p.node) && r.nextI32(i) &&
                 r.next(p.name);
            p.terminal = i != 0;
            if (ok)
                out.ports.push_back(std::move(p));
        } else if (key == "events") {
            ok = r.nextU64(declaredEvents);
            sawEvents = ok;
            if (ok)
                break; // event lines follow
        } else {
            return fail(error, lineNo,
                        "unknown meta key '" + std::string(key) + "'");
        }
        if (!ok) {
            return fail(error, lineNo,
                        "malformed '" + std::string(key) + "' line");
        }
    }

    if (!sawEvents)
        return fail(error, lineNo, "truncated trace: no 'events' record");

    // The declared count is outside input: reserve no more than the rest
    // of the text can hold, so a hostile count is a truncation below.
    out.events.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        declaredEvents, (rest.size() + 1) / kMinEventLine)));
    while (out.events.size() < declaredEvents) {
        if (!nextLine(rest, line)) {
            return fail(error, lineNo + 1,
                        "truncated trace: expected " +
                            std::to_string(declaredEvents) +
                            " events, got " +
                            std::to_string(out.events.size()));
        }
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        TraceEvent e;
        if (!parseEvent(line, e)) {
            return fail(error, lineNo,
                        "malformed event '" + std::string(line) + "'");
        }
        out.events.push_back(e);
    }
    return true;
}

bool
parseFlitTrace(std::istream &is, FlitTrace &out, std::string &error)
{
    std::string text;
    char chunk[1 << 16];
    while (is.read(chunk, sizeof chunk) || is.gcount() > 0)
        text.append(chunk, static_cast<std::size_t>(is.gcount()));
    return parseFlitTrace(std::string_view(text), out, error);
}

bool
saveFlitTrace(const std::string &path, const FlitTrace &trace,
              std::string &error)
{
    std::ofstream os(path);
    if (!os) {
        error = "cannot open '" + path + "' for writing";
        return false;
    }
    writeFlitTrace(os, trace);
    os.flush();
    if (!os) {
        error = "write error on '" + path + "'";
        return false;
    }
    return true;
}

bool
loadFlitTrace(const std::string &path, FlitTrace &out, std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot open '" + path + "'";
        return false;
    }
    return parseFlitTrace(is, out, error);
}

} // namespace taqos
