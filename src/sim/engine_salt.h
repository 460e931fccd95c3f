/// \file engine_salt.h
/// The engine-version salt stamped into every checkpoint and every
/// content-addressed sweep-cache key.
///
/// Contract: bump kEngineSalt whenever a change can alter the observable
/// dynamics of a simulation for an unchanged spec — arbitration order,
/// policy arithmetic, RNG consumption, packet sizing, metric definitions.
/// Cached sweep cells and saved checkpoints from the previous salt then
/// miss / fail validation instead of silently serving stale results.
/// Pure refactors, new features that leave existing specs byte-identical,
/// and build-system changes do NOT bump it (the golden-digest tests are
/// the arbiter: if they still pass unchanged, the salt stays). Neither
/// does a change to the checkpoint wire format: that bumps
/// kCheckpointVersion (sim/checkpoint.h) instead, so cached cells keep
/// their keys while old checkpoints fail the version check.
///
/// This constant lives alone in this header so CI can key cache artifacts
/// on a hash of the one file.
#pragma once

#include <cstdint>

namespace taqos {

inline constexpr std::uint64_t kEngineSalt = 0x7a51'0001'0000'0001ull;

} // namespace taqos
