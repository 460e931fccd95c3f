#include "traffic/dynamic.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "common/rng.h"
#include "common/strings.h"
#include "traffic/generator.h"
#include "traffic/trace.h"

namespace taqos {
namespace {

/// Salt separating the modulator master stream from the per-flow packet
/// streams (both derive from the same traffic seed).
constexpr std::uint64_t kModulatorSalt = 0x7a05'0b57'0000'0001ull;

/// Salt behind the deterministic trace-thinning hash. A fixed constant —
/// not a user seed — so a (trace, window, inflate) triple selects the
/// same entry subset on every machine and in every run.
constexpr std::uint64_t kThinningSalt = 0x7a05'1f1a'7e00'0001ull;

} // namespace

OnOffModulator::OnOffModulator(const WorkloadSpec &spec, int numFlows,
                               std::uint64_t seed, int blocks)
    : spec_(spec)
{
    TAQOS_ASSERT(spec_.kind == WorkloadKind::Bursty,
                 "ON/OFF modulator needs a bursty workload, got %s",
                 workloadKindName(spec_.kind));
    TAQOS_ASSERT(blocks > 0 && numFlows % blocks == 0,
                 "%d flows do not split into %d blocks", numFlows, blocks);
    const int perBlock = numFlows / blocks;
    chains_.resize(static_cast<std::size_t>(numFlows));
    on_.reserve(static_cast<std::size_t>(numFlows));
    for (int g = 0; g < blocks; ++g) {
        Rng master(splitmix64(blockSeed(seed, g) ^ kModulatorSalt));
        for (int f = 0; f < perBlock; ++f) {
            LookaheadStream &chain =
                chains_[static_cast<std::size_t>(g * perBlock + f)];
            chain.at = master.split();
            // Start each chain in its stationary distribution so the
            // burst phases are decorrelated from cycle 0 (no
            // synchronized onset).
            const double pOn =
                spec_.burstOn / (spec_.burstOn + spec_.burstOff);
            on_.push_back(chain.at.nextDouble() < pOn);
        }
    }
}

void
OnOffModulator::rebase(Cycle stand, Cycle from)
{
    for (std::size_t f = 0; f < chains_.size(); ++f) {
        LookaheadStream &chain = chains_[f];
        if (stand != kNoCycle) {
            // The flips before `stand` are all taken (a chain is visited
            // at every flip), so the replay to it only fails.
            const Event e =
                scanTrial(chain.at, flipTrial(f), chain.from, stand);
            TAQOS_ASSERT(!e.hit, "chain flip skipped before cycle %llu",
                         static_cast<unsigned long long>(stand));
        }
        chain.restartAt(from);
    }
}

void
OnOffModulator::advance(FlowId flow, Cycle now)
{
    const auto f = static_cast<std::size_t>(flow);
    LookaheadStream &chain = chains_[f];
    // Only a chain due at `now` moves: it flips at a success, and at a
    // stop it searches on from there (and may flip at `now` itself).
    while (chain.due <= now) {
        chain.commit();
        if (chain.hit)
            on_[f] = !on_[f];
        chain.search(flipTrial(f), kNoCycle);
    }
}

Event
OnOffModulator::scan(FlowId flow, double genProb, Rng &rng, Cycle from,
                     Cycle limit) const
{
    const Trial t = Trial::packet(std::min(1.0, genProb * scaleOf(flow)));
    return scanTrial(rng, t, from,
                     std::min(limit,
                              chains_[static_cast<std::size_t>(flow)].due));
}

std::vector<std::uint64_t>
OnOffModulator::packState(Cycle stand) const
{
    std::vector<std::uint64_t> w;
    const std::size_t flows = chains_.size();
    const std::size_t stateWords = (flows + 63) / 64;
    w.reserve(flows * 4 + stateWords);
    for (std::size_t f = 0; f < flows; ++f) {
        Rng rng = chains_[f].at;
        if (stand != kNoCycle)
            scanTrial(rng, flipTrial(f), chains_[f].from, stand);
        const auto s = rng.state();
        w.insert(w.end(), s.begin(), s.end());
    }
    for (std::size_t word = 0; word < stateWords; ++word) {
        std::uint64_t bits = 0;
        for (std::size_t b = 0; b < 64 && word * 64 + b < flows; ++b) {
            if (on_[word * 64 + b])
                bits |= 1ull << b;
        }
        w.push_back(bits);
    }
    return w;
}

void
OnOffModulator::unpackState(const std::vector<std::uint64_t> &words)
{
    const std::size_t flows = chains_.size();
    const std::size_t stateWords = (flows + 63) / 64;
    TAQOS_ASSERT(words.size() == flows * 4 + stateWords,
                 "ON/OFF modulator restore geometry mismatch");
    std::size_t i = 0;
    for (LookaheadStream &chain : chains_) {
        chain.at.setState(
            {words[i], words[i + 1], words[i + 2], words[i + 3]});
        i += 4;
    }
    for (std::size_t f = 0; f < flows; ++f)
        on_[f] = (words[i + f / 64] >> (f % 64)) & 1;
}

RampModulator::RampModulator(const WorkloadSpec &spec) : spec_(spec)
{
    TAQOS_ASSERT(spec_.kind == WorkloadKind::Ramp,
                 "ramp modulator needs a ramp workload, got %s",
                 workloadKindName(spec_.kind));
}

double
RampModulator::scaleAtPhase(const WorkloadSpec &spec, Cycle phase)
{
    const Cycle period = spec.rampPeriod;
    const Cycle half = period / 2;
    const double frac = phase <= half
        ? static_cast<double>(phase) / static_cast<double>(half)
        : static_cast<double>(period - phase) /
              static_cast<double>(period - half);
    return spec.rampLow + (spec.rampHigh - spec.rampLow) * frac;
}

double
RampModulator::scaleAt(const WorkloadSpec &spec, Cycle now)
{
    return scaleAtPhase(spec, now % spec.rampPeriod);
}

Event
RampModulator::scan(FlowId flow, double genProb, Rng &rng, Cycle from,
                    Cycle limit) const
{
    (void)flow;
    if (from >= limit)
        return {limit, false};
    // Each cycle's probability comes from the wave, compared as the
    // generator's trial would: a draw while 0 < p < 1, none otherwise.
    const Cycle stop = cappedLimit(from, limit);
    Rng r = rng;
    Cycle phase = from % spec_.rampPeriod;
    for (Cycle c = from; c < stop; ++c) {
        const double p = std::min(1.0, genProb * scaleAtPhase(spec_, phase));
        if (p > 0.0 && p < 1.0
                ? Rng::doubleFromBits(r.nextU64()) < p
                : !(p <= 0.0)) {
            rng = r;
            return {c, true};
        }
        if (++phase == spec_.rampPeriod)
            phase = 0;
    }
    rng = r;
    return {stop, false};
}

std::unique_ptr<RateModulator>
makeRateModulator(const WorkloadSpec &spec, int numFlows, std::uint64_t seed,
                  int blocks)
{
    switch (spec.kind) {
      case WorkloadKind::Bursty:
        return std::make_unique<OnOffModulator>(spec, numFlows, seed,
                                                blocks);
      case WorkloadKind::Ramp:
        return std::make_unique<RampModulator>(spec);
      case WorkloadKind::Steady:
      case WorkloadKind::Trace:
      case WorkloadKind::Churn:
        return nullptr;
    }
    TAQOS_UNREACHABLE("bad workload kind");
}

TrafficTrace
applyReplayWindow(const TrafficTrace &trace, const WorkloadSpec &spec)
{
    TAQOS_ASSERT(spec.kind == WorkloadKind::Trace,
                 "replay window needs a trace workload, got %s",
                 workloadKindName(spec.kind));
    std::vector<TraceEntry> kept;
    std::uint64_t idx = 0; ///< index within the windowed sequence
    for (const TraceEntry &e : trace.entries()) {
        if (e.cycle < spec.windowBegin)
            continue;
        if (e.cycle >= spec.windowEnd)
            break;
        const std::uint64_t i = idx++;
        if (spec.inflate < 1.0 &&
            Rng::doubleFromBits(splitmix64(kThinningSalt ^ i)) >=
                spec.inflate) {
            continue;
        }
        TraceEntry w = e;
        w.cycle -= spec.windowBegin;
        kept.push_back(w);
    }
    return TrafficTrace(std::move(kept));
}

std::unique_ptr<TrafficTrace>
loadTraceFile(const std::string &path, std::string *err,
              const ColumnConfig &column)
{
    std::ifstream is(path);
    if (!is) {
        if (err != nullptr)
            *err = path + ": cannot open trace file";
        return nullptr;
    }
    std::ostringstream os;
    os << is.rdbuf();
    std::string parseErr;
    auto trace = TrafficTrace::fromCsv(os.str(), &parseErr, &column);
    if (!trace.has_value()) {
        if (err != nullptr)
            *err = path + ": " + parseErr;
        return nullptr;
    }
    return std::make_unique<TrafficTrace>(std::move(*trace));
}

} // namespace taqos
