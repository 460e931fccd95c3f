/// \file sim_config.h
/// Run-phase parameters shared by the experiment runners: open-loop
/// measurements warm the network up, measure, then drain.
#pragma once

#include "common/types.h"

namespace taqos {

struct RunPhases {
    Cycle warmup = 20000;
    Cycle measure = 50000;
    Cycle drain = 30000;

    Cycle total() const { return warmup + measure + drain; }
    Cycle measureEnd() const { return warmup + measure; }
};

/// Shorter phases for unit/integration tests.
inline RunPhases
testPhases()
{
    return RunPhases{2000, 6000, 4000};
}

/// Engine selection for a NetSim, applied in one NetSim::configure call
/// before the first step.
struct EngineConfig {
    /// Activity-driven router phase (default) vs. the always-tick
    /// reference that visits every router every cycle. Bit-identical;
    /// the reference exists for equivalence tests and ablations.
    bool activityDriven = true;

    /// Accepted and ignored: the engine is serial at every value. The
    /// field exists only for the benchmark's shard twin (which now times
    /// two serial runs); configure() still rejects values below 1.
    int shards = 1;
};

} // namespace taqos
