/// \file dynamic.h
/// Dynamic-load machinery behind WorkloadSpec: per-cycle rate modulators
/// that wrap the Bernoulli generator (ON/OFF Markov bursts, diurnal
/// triangle ramps), the deterministic trace-inflation transform, and the
/// makeTrafficSource factory that turns a (WorkloadSpec, TrafficConfig)
/// pair into a ready TrafficSource.
///
/// Modulators plug *into* TrafficGenerator (see its workload constructor)
/// rather than wrapping it from outside, so every embedding of the
/// generator — plain columns and FabricTrafficSource —
/// inherits bursty/ramp workloads unchanged, and the generator's
/// packState/unpackState covers the modulator words so checkpoint/restore
/// stays bit-identical.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "traffic/source.h"
#include "traffic/workload_spec.h"

namespace taqos {

struct ColumnConfig;
struct TrafficConfig;
class TrafficTrace;

/// Per-cycle injection-rate scaling. advance() is called exactly once per
/// generated cycle, in cycle order; scaleOf() reads the scale the current
/// cycle applies to one flow (0 silences the flow and freezes its
/// Bernoulli stream, keeping the draw sequence deterministic).
class RateModulator {
  public:
    virtual ~RateModulator() = default;

    virtual void advance(Cycle now) = 0;
    virtual double scaleOf(FlowId flow) const = 0;

    /// Checkpointing, same contract as TrafficSource::packState: the
    /// modulator's mutable words, restored onto a freshly built modulator
    /// of the same configuration.
    virtual std::vector<std::uint64_t> packState() const { return {}; }
    virtual void unpackState(const std::vector<std::uint64_t> &words)
    {
        TAQOS_ASSERT(words.empty(), "stateless modulator got state words");
    }
};

/// Two-state Markov chain per flow: OFF -> ON with probability `on` per
/// cycle, ON -> OFF with `off`; a flow injects at gain x its configured
/// rate while ON and is silent while OFF. Streams are split from the
/// traffic seed, independent of the per-flow packet streams.
class OnOffModulator : public RateModulator {
  public:
    OnOffModulator(const WorkloadSpec &spec, int numFlows,
                   std::uint64_t seed);

    void advance(Cycle now) override;
    double scaleOf(FlowId flow) const override;

    std::vector<std::uint64_t> packState() const override;
    void unpackState(const std::vector<std::uint64_t> &words) override;

    bool onState(FlowId flow) const
    {
        return on_[static_cast<std::size_t>(flow)];
    }

  private:
    WorkloadSpec spec_;
    std::vector<Rng> rng_;  ///< one chain stream per flow
    std::vector<bool> on_;  ///< current Markov state per flow
};

/// Deterministic triangle wave: every flow's rate scales between `low`
/// (at phase 0) and `high` (at phase period/2), a pure function of the
/// cycle counter — no mutable state, nothing to checkpoint.
class RampModulator : public RateModulator {
  public:
    explicit RampModulator(const WorkloadSpec &spec);

    void advance(Cycle now) override;
    double scaleOf(FlowId flow) const override;

    /// The wave itself, exposed for tests.
    static double scaleAt(const WorkloadSpec &spec, Cycle now);

  private:
    WorkloadSpec spec_;
    double scale_;
};

/// Modulator for a spec's kind (nullptr for non-modulated kinds). `seed`
/// should be the traffic seed; the modulator derives its own independent
/// streams from it.
std::unique_ptr<RateModulator> makeRateModulator(const WorkloadSpec &spec,
                                                 int numFlows,
                                                 std::uint64_t seed);

/// The ximulator-style load-inflation + window transform for trace
/// replay: clip entries to [windowBegin, windowEnd), rebase them to
/// cycle 0, then keep each entry independently with probability
/// `inflate` using a deterministic per-entry hash — so the kept set at
/// x0.5 is a strict subset of the kept set at x1 of the same window,
/// and the result is identical on every machine.
TrafficTrace applyReplayWindow(const TrafficTrace &trace,
                               const WorkloadSpec &spec);

/// Build the TrafficSource a workload calls for on one column:
/// steady/churn -> TrafficGenerator (churn dynamics live in the driver),
/// bursty/ramp -> TrafficGenerator with the matching modulator,
/// trace -> TraceReplayer over the inflated window (loading `tracePath`).
/// Returns nullptr and sets `*err` when the trace cannot be loaded.
std::unique_ptr<TrafficSource>
makeTrafficSource(const WorkloadSpec &spec, const ColumnConfig &col,
                  const TrafficConfig &traffic, std::string *err = nullptr);

/// Load + parse a CSV trace file with a diagnosed error ("<path>: <why>").
std::unique_ptr<TrafficTrace> loadTraceFile(const std::string &path,
                                            std::string *err = nullptr);

} // namespace taqos
