/// \file workload_spec.h
/// Declarative datacenter-style workload selection. A WorkloadSpec names
/// how offered load evolves over a run — steady Bernoulli injection, a
/// two-state ON/OFF Markov burst process, a diurnal triangle ramp, trace
/// replay with load inflation and a cycle window, or tenant churn (VMs
/// arriving and departing mid-run through the hypervisor) — as one value
/// with a canonical string form:
///
///   steady
///   bursty:on=0.002,off=0.01,gain=4
///   ramp:low=0.25,high=1.75,period=20000
///   trace:path=w.csv,inflate=0.5,begin=0,end=50000,loop=1
///   churn:frames=1,maxvms=5,attack=0
///
/// parse(name()) round-trips, so the same grammar serves the CLIs, the
/// taqos-sweep/v1 JSON record, and the cell-cache spec echo. The spec is
/// an experiment *axis*: SweepSpec carries a list of them, each cell one,
/// and the seed-mixing chain and cell-cache key fold in appendKeyWords()
/// so distinct workloads never collide.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/types.h"

namespace taqos {

class OptionMap;

enum class WorkloadKind {
    Steady, ///< plain fixed-rate Bernoulli injection (the default)
    Bursty, ///< per-flow ON/OFF Markov modulation of the Bernoulli rates
    Ramp,   ///< global triangle-wave (diurnal) rate modulation
    Trace,  ///< trace replay with inflation / window / loop
    Churn,  ///< tenant arrival/departure through OsScheduler (chip only)
};

const char *workloadKindName(WorkloadKind kind);
std::optional<WorkloadKind> parseWorkloadKind(const std::string &name);

struct WorkloadSpec {
    WorkloadKind kind = WorkloadKind::Steady;

    // --- Bursty: two-state Markov chain per flow, stepped once per
    // cycle. While ON a flow injects at gain x its configured rate;
    // while OFF it is silent (its Bernoulli stream is frozen).
    double burstOn = 0.002; ///< P(OFF -> ON) per cycle
    double burstOff = 0.01; ///< P(ON -> OFF) per cycle
    double burstGain = 4.0; ///< rate multiplier while ON

    // --- Ramp: deterministic triangle wave over `rampPeriod` cycles,
    // scaling every flow's rate between `rampLow` and `rampHigh`
    // (stateless: a pure function of the cycle counter).
    double rampLow = 0.25;
    double rampHigh = 1.75;
    Cycle rampPeriod = 20000;

    // --- Trace: replay `tracePath` thinned to `inflate` of its entries
    // (deterministic per-entry hash, so x0.5 is a strict subset of x1),
    // clipped to [windowBegin, windowEnd) and rebased to cycle 0,
    // optionally looping the window forever.
    std::string tracePath;
    double inflate = 1.0;
    Cycle windowBegin = 0;
    Cycle windowEnd = kNoCycle; ///< kNoCycle = to the end of the trace
    bool traceLoop = false;

    // --- Churn: every `churnFrames` QOS frames the tenant mix changes
    // (one VM arrives or departs, capped at `churnMaxVms` live VMs) and
    // the column flow registers are reprogrammed at the frame boundary.
    // `churnAttack` layers the fig5/fig6 adversarial terminal rates on
    // top of the tenant traffic.
    int churnFrames = 1;
    int churnMaxVms = 5;
    bool churnAttack = false;

    /// Kinds implemented as rate modulation inside TrafficGenerator
    /// (and therefore available on columns, chips and fabrics alike).
    bool modulated() const
    {
        return kind == WorkloadKind::Bursty || kind == WorkloadKind::Ramp;
    }

    bool isSteady() const { return kind == WorkloadKind::Steady; }

    /// Canonical single-token string form (grammar in the file comment).
    /// parse(name()) round-trips exactly for every reachable value.
    std::string name() const;

    /// Parse the canonical grammar. Returns nullopt and sets `*err` (when
    /// non-null) to a one-line diagnosis on malformed input, a control
    /// character or an integer outside its field's type included; never
    /// exits.
    static std::optional<WorkloadSpec> parse(const std::string &s,
                                            std::string *err = nullptr);

    /// Append the canonical content words of this spec (kind tag plus the
    /// parameters of that kind only) for the sweep seed-mix chain and the
    /// cell-cache key. Steady appends a single tag word.
    void appendKeyWords(std::vector<std::uint64_t> &words) const;
};

inline bool
operator==(const WorkloadSpec &a, const WorkloadSpec &b)
{
    return a.name() == b.name();
}

/// The CLI workload axis: the ';'-separated specs of `workload=` (';'
/// because specs contain ','), in order. Empty when the option is absent
/// (callers keep their steady default). Exits with the spec's one-line
/// diagnosis on malformed input, including a trace file that cannot be
/// loaded.
std::vector<WorkloadSpec> workloadAxisFromOpts(const OptionMap &opts);

} // namespace taqos
