#include "traffic/workload_spec.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdlib>

#include "common/options.h"
#include "traffic/dynamic.h"
#include "traffic/trace.h"

namespace taqos {
namespace {

/// Canonical double formatting for name(): 12 significant digits, or 17
/// where 12 do not give back the same double, so parse(name()) returns
/// the very spec, raw bits included (the seed mix and the cache key fold
/// them in).
std::string
fmtDouble(double v)
{
    std::string s = strFormat("%.12g", v);
    if (std::strtod(s.c_str(), nullptr) != v)
        s = strFormat("%.17g", v);
    return s;
}

void
setErr(std::string *err, std::string msg)
{
    if (err != nullptr)
        *err = std::move(msg);
}

std::string
validKinds()
{
    return "steady bursty ramp trace churn";
}

} // namespace

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Steady: return "steady";
      case WorkloadKind::Bursty: return "bursty";
      case WorkloadKind::Ramp: return "ramp";
      case WorkloadKind::Trace: return "trace";
      case WorkloadKind::Churn: return "churn";
    }
    return "?";
}

std::optional<WorkloadKind>
parseWorkloadKind(const std::string &name)
{
    const std::string n = strLower(strTrim(name));
    if (n == "steady")
        return WorkloadKind::Steady;
    if (n == "bursty" || n == "burst" || n == "onoff")
        return WorkloadKind::Bursty;
    if (n == "ramp" || n == "diurnal")
        return WorkloadKind::Ramp;
    if (n == "trace" || n == "replay")
        return WorkloadKind::Trace;
    if (n == "churn")
        return WorkloadKind::Churn;
    return std::nullopt;
}

std::string
WorkloadSpec::name() const
{
    switch (kind) {
      case WorkloadKind::Steady:
        return "steady";
      case WorkloadKind::Bursty:
        return strFormat("bursty:on=%s,off=%s,gain=%s",
                         fmtDouble(burstOn).c_str(),
                         fmtDouble(burstOff).c_str(),
                         fmtDouble(burstGain).c_str());
      case WorkloadKind::Ramp:
        return strFormat("ramp:low=%s,high=%s,period=%llu",
                         fmtDouble(rampLow).c_str(),
                         fmtDouble(rampHigh).c_str(),
                         static_cast<unsigned long long>(rampPeriod));
      case WorkloadKind::Trace: {
        std::string s = "trace:path=" + tracePath;
        s += ",inflate=" + fmtDouble(inflate);
        if (windowBegin != 0)
            s += strFormat(",begin=%llu",
                           static_cast<unsigned long long>(windowBegin));
        if (windowEnd != kNoCycle)
            s += strFormat(",end=%llu",
                           static_cast<unsigned long long>(windowEnd));
        if (traceLoop)
            s += ",loop=1";
        return s;
      }
      case WorkloadKind::Churn:
        return strFormat("churn:frames=%d,maxvms=%d,attack=%d", churnFrames,
                         churnMaxVms, churnAttack ? 1 : 0);
    }
    return "?";
}

std::optional<WorkloadSpec>
WorkloadSpec::parse(const std::string &s, std::string *err)
{
    const std::string whole = strTrim(s);
    // A spec is one line of text: diagnoses, the sweep record and the
    // cell cache's spec echo line all carry it.
    const auto ctl =
        std::find_if(whole.begin(), whole.end(),
                     [](unsigned char c) { return std::iscntrl(c) != 0; });
    if (ctl != whole.end()) {
        setErr(err, strFormat("bad workload: control character 0x%02x at "
                              "byte %zu",
                              static_cast<unsigned char>(*ctl),
                              static_cast<std::size_t>(ctl - whole.begin())));
        return std::nullopt;
    }
    if (whole.empty()) {
        setErr(err, "bad workload '': want kind or kind:k=v[,k=v...]");
        return std::nullopt;
    }

    const std::size_t colon = whole.find(':');
    const std::string kindTok =
        colon == std::string::npos ? whole : whole.substr(0, colon);
    const auto kind = parseWorkloadKind(kindTok);
    if (!kind.has_value()) {
        setErr(err, strFormat("unknown workload kind '%s'; valid: %s",
                              kindTok.c_str(), validKinds().c_str()));
        return std::nullopt;
    }

    WorkloadSpec spec;
    spec.kind = *kind;

    const std::string rest =
        colon == std::string::npos ? "" : whole.substr(colon + 1);
    for (const auto &part : strSplit(rest, ',')) {
        const std::string kv = strTrim(part);
        if (kv.empty())
            continue;
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
            setErr(err,
                   strFormat("bad workload '%s': want kind or "
                             "kind:k=v[,k=v...]",
                             whole.c_str()));
            return std::nullopt;
        }
        const std::string key = strLower(strTrim(kv.substr(0, eq)));
        const std::string val = strTrim(kv.substr(eq + 1));
        bool known = true;
        bool ok = true;
        switch (spec.kind) {
          case WorkloadKind::Bursty:
            if (key == "on")
                ok = parseDoubleTok(val, spec.burstOn);
            else if (key == "off")
                ok = parseDoubleTok(val, spec.burstOff);
            else if (key == "gain")
                ok = parseDoubleTok(val, spec.burstGain);
            else
                known = false;
            break;
          case WorkloadKind::Ramp:
            if (key == "low")
                ok = parseDoubleTok(val, spec.rampLow);
            else if (key == "high")
                ok = parseDoubleTok(val, spec.rampHigh);
            else if (key == "period")
                ok = parseU64Tok(val, spec.rampPeriod);
            else
                known = false;
            break;
          case WorkloadKind::Trace:
            if (key == "path")
                spec.tracePath = val;
            else if (key == "inflate")
                ok = parseDoubleTok(val, spec.inflate);
            else if (key == "begin")
                ok = parseU64Tok(val, spec.windowBegin);
            else if (key == "end")
                ok = parseU64Tok(val, spec.windowEnd);
            else if (key == "loop")
                ok = parseBoolTok(val, spec.traceLoop);
            else
                known = false;
            break;
          case WorkloadKind::Churn:
            if (key == "frames")
                ok = parseIntTok(val, spec.churnFrames) &&
                     spec.churnFrames >= 1;
            else if (key == "maxvms")
                ok = parseIntTok(val, spec.churnMaxVms) &&
                     spec.churnMaxVms >= 1;
            else if (key == "attack")
                ok = parseBoolTok(val, spec.churnAttack);
            else
                known = false;
            break;
          case WorkloadKind::Steady:
            known = false;
            break;
        }
        if (!known) {
            setErr(err,
                   strFormat("unknown workload parameter '%s' for kind '%s'",
                             key.c_str(), workloadKindName(spec.kind)));
            return std::nullopt;
        }
        if (!ok) {
            setErr(err, strFormat("bad workload parameter '%s=%s'",
                                  key.c_str(), val.c_str()));
            return std::nullopt;
        }
    }

    // Semantic bounds, so every reachable WorkloadSpec is runnable.
    std::string bad;
    switch (spec.kind) {
      case WorkloadKind::Bursty:
        if (spec.burstOn <= 0.0 || spec.burstOn > 1.0)
            bad = "on must be in (0, 1]";
        else if (spec.burstOff <= 0.0 || spec.burstOff > 1.0)
            bad = "off must be in (0, 1]";
        else if (spec.burstGain <= 0.0)
            bad = "gain must be > 0";
        break;
      case WorkloadKind::Ramp:
        if (spec.rampLow < 0.0)
            bad = "low must be >= 0";
        else if (spec.rampHigh < spec.rampLow)
            bad = "high must be >= low";
        else if (spec.rampPeriod < 2)
            bad = "period must be >= 2";
        break;
      case WorkloadKind::Trace:
        if (spec.tracePath.empty())
            bad = "path is required";
        else if (!(spec.inflate > 0.0) || spec.inflate > 1.0)
            bad = "inflate must be in (0, 1]";
        else if (spec.windowEnd <= spec.windowBegin)
            bad = "end must be > begin";
        else if (spec.traceLoop && spec.windowEnd == kNoCycle)
            bad = "loop=1 needs a finite end=";
        break;
      case WorkloadKind::Churn:
      case WorkloadKind::Steady:
        break;
    }
    if (!bad.empty()) {
        setErr(err, strFormat("bad workload '%s': %s", whole.c_str(),
                              bad.c_str()));
        return std::nullopt;
    }
    return spec;
}

void
WorkloadSpec::appendKeyWords(std::vector<std::uint64_t> &words) const
{
    words.push_back(static_cast<std::uint64_t>(kind));
    switch (kind) {
      case WorkloadKind::Steady:
        break;
      case WorkloadKind::Bursty:
        words.push_back(std::bit_cast<std::uint64_t>(burstOn));
        words.push_back(std::bit_cast<std::uint64_t>(burstOff));
        words.push_back(std::bit_cast<std::uint64_t>(burstGain));
        break;
      case WorkloadKind::Ramp:
        words.push_back(std::bit_cast<std::uint64_t>(rampLow));
        words.push_back(std::bit_cast<std::uint64_t>(rampHigh));
        words.push_back(rampPeriod);
        break;
      case WorkloadKind::Trace: {
        // The path contributes content, not identity: hash its bytes so
        // two specs replaying different files never share a key.
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (unsigned char ch : tracePath)
            h = (h ^ ch) * 0x100000001b3ull;
        words.push_back(h);
        words.push_back(std::bit_cast<std::uint64_t>(inflate));
        words.push_back(windowBegin);
        words.push_back(windowEnd);
        words.push_back(traceLoop ? 1 : 0);
        break;
      }
      case WorkloadKind::Churn:
        words.push_back(static_cast<std::uint64_t>(churnFrames));
        words.push_back(static_cast<std::uint64_t>(churnMaxVms));
        words.push_back(churnAttack ? 1 : 0);
        break;
    }
}

std::vector<WorkloadSpec>
workloadAxisFromOpts(const OptionMap &opts)
{
    std::vector<WorkloadSpec> out;
    for (const auto &part : strSplit(opts.get("workload", ""), ';')) {
        const std::string tok = strTrim(part);
        if (tok.empty())
            continue;
        std::string err;
        const auto spec = WorkloadSpec::parse(tok, &err);
        if (!spec.has_value())
            optionError(err);
        // Load every trace now, so a missing or malformed file, or one
        // naming a flow or node outside the column, fails with one line
        // before any work instead of aborting inside a cell.
        if (spec->kind == WorkloadKind::Trace &&
            loadTraceFile(spec->tracePath, &err) == nullptr) {
            optionError(err);
        }
        out.push_back(*spec);
    }
    return out;
}

} // namespace taqos
