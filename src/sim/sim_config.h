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

    /// Threads sharding the router phase (1 = serial). Bit-identical to
    /// the serial engines; only the activity-driven engine shards (the
    /// always-tick reference stays serial, as the oracle).
    int shards = 1;

    /// Minimum live routers per shard before a cycle is dispatched to
    /// the thread pool rather than run inline (0 forces the parallel
    /// path every cycle — equivalence tests use it to exercise the pool
    /// on workloads of any size).
    int shardMinActive = 2;
};

} // namespace taqos
