/// \file lookahead.h
/// Look-ahead Bernoulli streams. A per-cycle Bernoulli process (a flow's
/// packet trials, an ON/OFF chain's flip trials) draws from its own
/// xoshiro stream once per cycle while 0 < p < 1. Instead of drawing
/// cycle by cycle, a look-ahead stream steps its generator straight to
/// the next success, so the cycles whose trial fails cost nothing at the
/// cycle they belong to. It consumes exactly the draws the per-cycle
/// process would, in the same order, so every packet, checkpoint word
/// and digest stays as it was.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"

namespace taqos {

/// Longest window one search covers, in cycles. It bounds the draws a
/// single search makes (at p = 2^-1074 a search for the next success
/// would otherwise step for ever), the draws a run wastes past its last
/// cycle, and the replay that re-derives a stream's state at a cycle
/// boundary (packState). At the loads of a latency-load sweep a flow's
/// next packet lies a few hundred cycles ahead, well inside it.
inline constexpr Cycle kLookaheadCap = 4096;

/// One cycle's Bernoulli trial in integers. A trial that draws succeeds
/// when the raw draw is below `threshold` (Rng::threshold); one that does
/// not draw always succeeds when `threshold` is nonzero and never
/// otherwise.
struct Trial {
    bool draws = false;
    std::uint64_t threshold = 0;

    /// The traffic generator's trial at packet probability p: one draw
    /// while 0 < p < 1, no draw and no packet at p <= 0, and a packet
    /// without a draw otherwise (p >= 1, and NaN, which fails `p < 1`).
    static Trial packet(double p)
    {
        if (p > 0.0 && p < 1.0)
            return {true, Rng::threshold(p)};
        return {false, p <= 0.0 ? 0u : 1u};
    }

    /// Rng::bernoulli(p)'s trial: as packet(), except that NaN draws and
    /// never succeeds.
    static Trial bernoulli(double p)
    {
        if (p <= 0.0 || p >= 1.0)
            return {false, p >= 1.0 ? 1u : 0u};
        return {true, p < 1.0 ? Rng::threshold(p) : 0u};
    }
};

/// Where a search stopped: at the cycle of its first success (`hit`), or
/// at the first cycle it did not try.
struct Event {
    Cycle at = kNoCycle;
    bool hit = false;
};

/// The last cycle a search from `from` may try before `limit`, plus one:
/// `limit`, or `from + kLookaheadCap` when that comes first.
inline Cycle
cappedLimit(Cycle from, Cycle limit)
{
    return limit - from > kLookaheadCap ? from + kLookaheadCap : limit;
}

/// Step `rng` through the trials of cycles [from, limit), all `t`, and
/// stop at the first success. A trial that draws stops at the cap too
/// (cappedLimit); one that does not draw jumps. `rng` ends past the last
/// trial made.
inline Event
scanTrial(Rng &rng, const Trial &t, Cycle from, Cycle limit)
{
    if (from >= limit)
        return {limit, false};
    if (!t.draws)
        return t.threshold != 0 ? Event{from, true} : Event{limit, false};
    const Cycle stop = cappedLimit(from, limit);
    Rng r = rng; // in registers while it steps
    for (Cycle c = from; c < stop; ++c) {
        if (r.nextU64() < t.threshold) {
            rng = r;
            return {c, true};
        }
    }
    rng = r;
    return {stop, false};
}

/// One Bernoulli process run ahead to its next event. `at` stands before
/// the trial of cycle `from`: the state every trial before it, and any
/// draws made at its events, left behind. `ahead` stands past the trial
/// of cycle `due` when that trial succeeds (`hit`), or before it when the
/// search stopped there without a success (a stop: the probability may
/// change at `due`, or the search reached genUntil or the cap).
struct LookaheadStream {
    Rng at;
    Rng ahead;
    Cycle from = 0;
    Cycle due = kNoCycle;
    bool hit = false;

    /// Restart the look-ahead at cycle `c` from where `at` stands: a stop
    /// due at `c`, so the process's owner searches on from there.
    void restartAt(Cycle c)
    {
        ahead = at;
        from = c;
        due = c;
        hit = false;
    }

    /// Step past the event at `due`: `at` takes its state, and the next
    /// search starts after a success, or at the stop.
    void commit()
    {
        at = ahead;
        from = hit ? due + 1 : due;
    }

    /// Search from `from` under one trial for every cycle before `limit`.
    void search(const Trial &t, Cycle limit)
    {
        ahead = at;
        const Event e = scanTrial(ahead, t, from, limit);
        due = e.at;
        hit = e.hit;
    }
};

} // namespace taqos
