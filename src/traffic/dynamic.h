/// \file dynamic.h
/// Dynamic-load machinery behind WorkloadSpec: rate modulators that
/// scale the Bernoulli generator (ON/OFF Markov bursts, diurnal
/// triangle ramps), the deterministic trace-inflation transform, and the
/// trace-file loader behind trace replay.
///
/// Modulators plug *into* TrafficGenerator (see its constructor) rather
/// than wrapping it from outside, so the one generator that drives a
/// column or every flow of a fabric inherits bursty/ramp workloads
/// unchanged, and the generator's packState/unpackState covers the
/// modulator words so checkpoint/restore stays bit-identical.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "common/types.h"
#include "topo/topology.h"
#include "traffic/lookahead.h"
#include "traffic/workload_spec.h"

namespace taqos {

class TrafficTrace;

/// Injection-rate scaling over time, run as look-ahead streams. A flow's
/// scale holds from one of its modulator events to the next: an ON/OFF
/// chain's scale holds until the chain flips, and a ramp's changes every
/// cycle, so the ramp hands each cycle's probability to the packet
/// stream's search instead. The generator drives a modulator per flow:
/// advance() brings a flow to the cycle the generator visits it at, and
/// scan() steps the flow's packet stream ahead under the scale, stopping
/// where the scale may change. A zero scale draws nothing: the flow's
/// Bernoulli stream freezes, keeping the draw sequence deterministic.
class RateModulator {
  public:
    virtual ~RateModulator() = default;

    /// Start every flow's look-ahead at cycle `from`. `stand` is the
    /// first cycle whose transition the modulator's streams have not
    /// taken (kNoCycle: none has been looked ahead since construction or
    /// unpackState, so they stand where they are).
    virtual void rebase(Cycle stand, Cycle from)
    {
        (void)stand;
        (void)from;
    }

    /// Apply `flow`'s transitions up to and including cycle `now`. The
    /// generator calls it at every cycle it visits the flow, in cycle
    /// order, and visits a flow no later than the cycle its scale may
    /// next change (scan() stops there).
    virtual void advance(FlowId flow, Cycle now)
    {
        (void)flow;
        (void)now;
    }

    /// Step `rng`, `flow`'s packet stream, through the generator's trials
    /// of cycles [from, limit) at probability min(1, genProb x scale),
    /// and stop at the first success, at the first cycle the scale may
    /// change, or at kLookaheadCap. `flow` stands at `from`.
    virtual Event scan(FlowId flow, double genProb, Rng &rng, Cycle from,
                       Cycle limit) const = 0;

    /// Checkpointing, same contract as TrafficSource::packState: the
    /// modulator's mutable words as they stand before cycle `stand`'s
    /// transitions (kNoCycle: as they stand), restored onto a freshly
    /// built modulator of the same configuration.
    virtual std::vector<std::uint64_t> packState(Cycle stand) const
    {
        (void)stand;
        return {};
    }
    virtual void unpackState(const std::vector<std::uint64_t> &words)
    {
        TAQOS_ASSERT(words.empty(), "stateless modulator got state words");
    }
};

/// Two-state Markov chain per flow: OFF -> ON with probability `on` per
/// cycle, ON -> OFF with `off`; a flow injects at gain x its configured
/// rate while ON and is silent while OFF. Streams are split from the
/// traffic seed, independent of the per-flow packet streams. Each chain
/// is a look-ahead stream whose successes are its flips, so a flow's
/// scale holds until its chain's next flip.
class OnOffModulator : public RateModulator {
  public:
    /// `numFlows` flows in `blocks` equal blocks (a fabric's); block g's
    /// chains split from blockSeed(seed, g) (traffic/generator.h).
    OnOffModulator(const WorkloadSpec &spec, int numFlows,
                   std::uint64_t seed, int blocks = 1);

    void rebase(Cycle stand, Cycle from) override;
    void advance(FlowId flow, Cycle now) override;
    Event scan(FlowId flow, double genProb, Rng &rng, Cycle from,
               Cycle limit) const override;

    std::vector<std::uint64_t> packState(Cycle stand) const override;
    void unpackState(const std::vector<std::uint64_t> &words) override;

    /// Whether `flow` is ON at the cycle it was last advanced to.
    bool onState(FlowId flow) const
    {
        return on_[static_cast<std::size_t>(flow)];
    }
    /// The scale `flow` applies while its state holds: gain ON, 0 OFF.
    double scaleOf(FlowId flow) const
    {
        return onState(flow) ? spec_.burstGain : 0.0;
    }

  private:
    /// The flip trial of flow f's chain in its current state.
    Trial flipTrial(std::size_t f) const
    {
        return Trial::bernoulli(on_[f] ? spec_.burstOff : spec_.burstOn);
    }

    WorkloadSpec spec_;
    std::vector<LookaheadStream> chains_; ///< one flip stream per flow
    std::vector<bool> on_;                ///< current Markov state per flow
};

/// Deterministic triangle wave: every flow's rate scales between `low`
/// (at phase 0) and `high` (at phase period/2), a pure function of the
/// cycle counter — no mutable state, nothing to checkpoint. Its scan
/// takes each cycle's probability from the wave.
class RampModulator : public RateModulator {
  public:
    explicit RampModulator(const WorkloadSpec &spec);

    Event scan(FlowId flow, double genProb, Rng &rng, Cycle from,
               Cycle limit) const override;

    /// The wave itself, exposed for tests.
    static double scaleAt(const WorkloadSpec &spec, Cycle now);

  private:
    /// The wave at phase `phase` (< rampPeriod) of its period.
    static double scaleAtPhase(const WorkloadSpec &spec, Cycle phase);

    WorkloadSpec spec_;
};

/// Modulator for a spec's kind (nullptr for non-modulated kinds). `seed`
/// should be the traffic seed; the modulator derives its own independent
/// streams from it, per block of `numFlows / blocks` flows.
std::unique_ptr<RateModulator> makeRateModulator(const WorkloadSpec &spec,
                                                 int numFlows,
                                                 std::uint64_t seed,
                                                 int blocks = 1);

/// The ximulator-style load-inflation + window transform for trace
/// replay: clip entries to [windowBegin, windowEnd), rebase them to
/// cycle 0, then keep each entry independently with probability
/// `inflate` using a deterministic per-entry hash — so the kept set at
/// x0.5 is a strict subset of the kept set at x1 of the same window,
/// and the result is identical on every machine.
TrafficTrace applyReplayWindow(const TrafficTrace &trace,
                               const WorkloadSpec &spec);

/// Load + parse a CSV trace file with a diagnosed error ("<path>: <why>"),
/// checking its flows and destinations against `column` (every trace
/// workload runs on a column of the default geometry).
std::unique_ptr<TrafficTrace> loadTraceFile(const std::string &path,
                                            std::string *err = nullptr,
                                            const ColumnConfig &column = {});

} // namespace taqos
