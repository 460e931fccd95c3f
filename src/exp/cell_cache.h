/// \file cell_cache.h
/// Content-addressed result cache for sweep cells.
///
/// Every cell of an expanded SweepSpec is keyed by a canonical hash of
/// the coordinates that determine its dynamics — scenario, topology,
/// pattern, mode, rate, workload, placement, dynamic-workload spec
/// (when non-steady), replicate, seed, phases and generation horizon —
/// mixed with the build's kEngineSalt. The runner's thread count is
/// deliberately excluded: it is bit-identical by contract, so a cached
/// result is valid under any of them. Bumping kEngineSalt (the contract in sim/engine_salt.h)
/// therefore invalidates every cached cell at once.
///
/// The cache is a flat directory of one small text fragment per cell,
/// named by the 16-hex-digit key. Fragments carry the metric values as
/// C hexfloats (%a), which round-trip doubles exactly, so a sweep that
/// merges cached and fresh cells emits byte-identical JSON to a cold
/// run. A fragment that fails any validation (header, key echo, spec
/// echo, truncation) is treated as a miss, never an error.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "exp/sweep.h"

namespace taqos {

/// Fragment schema identifier (first line of every fragment).
inline constexpr const char *kCellCacheSchema = "taqos-cell/v1";

class CellCache {
  public:
    /// Opens (and creates, if needed) the cache directory.
    explicit CellCache(std::string dir);

    const std::string &dir() const { return dir_; }

    /// Canonical content hash of a cell (see file comment for what is
    /// and is not part of the key).
    static std::uint64_t cellKey(const CellSpec &cell);

    /// The fragment filename for a key: 16 lowercase hex digits + ".cell".
    static std::string fragmentName(std::uint64_t key);

    /// Load the cached result for `cell`. On a hit, `out` carries
    /// `cell` as its spec and the cached metrics in their original
    /// emission order. Any malformed or mismatching fragment is a miss.
    bool load(const CellSpec &cell, CellResult &out) const;

    /// Store one finished cell (atomic write-then-rename). Returns
    /// false when the fragment could not be written.
    bool store(const CellSpec &cell, const CellResult &res) const;

    /// The fragment text `store` writes for `res`.
    static std::string fragmentText(const CellSpec &cell,
                                    const CellResult &res);

    /// `load` without the file: parse fragment `text` as `cell`'s, with
    /// the same hit or miss and the same result on a hit.
    static bool parseFragment(std::string_view text, const CellSpec &cell,
                              CellResult &out);

  private:
    std::string path(std::uint64_t key) const;

    std::string dir_;
};

} // namespace taqos
