/// \file rng.h
/// Deterministic pseudo-random number generation (xoshiro256**).
///
/// Every stochastic component of the simulator (traffic generators, packet
/// sizing, arbitration tie-breaks) draws from an explicitly seeded Rng so
/// that experiments are exactly reproducible run-to-run.
///
/// Thread safety: there is deliberately no global generator. Each Rng
/// instance is owned by exactly one simulation, so concurrent sims (the
/// exp/ sweep workers) never share a stream — keep it that way.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace taqos {

/// splitmix64's state increment (2^64 / golden ratio, odd).
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

/// splitmix64 (Steele, Lea & Flood): one step of the generator from
/// state `x`, i.e. the increment followed by the avalanche finalizer.
/// Seeds Rng and derives every salted stream (burst modulators, tenant
/// churn, trace thinning) and the checkpoint topology fingerprint.
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += kGoldenGamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Order-sensitive hash combine: boost's hash_combine spread of `v` into
/// `h`, avalanched by the splitmix64 finalizer (subtracting the gamma
/// cancels splitmix64's increment). Derives the sweep cell seeds, the
/// cell-cache keys and metricsDigest: a change here changes all three.
constexpr std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    return splitmix64((h ^ (v + kGoldenGamma + (h << 6) + (h >> 2))) -
                      kGoldenGamma);
}

/// xoshiro256** by Blackman & Vigna, seeded through splitmix64.
/// Small, fast, and statistically strong enough for traffic generation.
class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /// Re-initialize the state from a 64-bit seed.
    void reseed(std::uint64_t seed);

    /// Uniform 64-bit value. Inline: the traffic generators' look-ahead
    /// searches (traffic/lookahead.h) step it in a tight loop, one draw
    /// per cycle a flow's trial is drawn.
    std::uint64_t nextU64()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// The canonical u64-to-[0,1) conversion behind nextDouble: the top
    /// 53 bits, scaled exactly. Also the trace thinning hash's draw.
    static double doubleFromBits(std::uint64_t bits)
    {
        return static_cast<double>(bits >> 11) * 0x1.0p-53;
    }

    /// The integer form of `doubleFromBits(draw) < p` for 0 < p < 1:
    /// `draw < threshold(p)` holds for exactly the same draws. Both
    /// sides of `(draw >> 11) * 2^-53 < p` are exact, so it is
    /// `(draw >> 11) < p * 2^53`, which for an integer left side is
    /// `(draw >> 11) < ceil(p * 2^53)`; that ceiling is at most 2^53 - 1,
    /// so shifting it back by 11 bits cannot overflow.
    static std::uint64_t threshold(double p)
    {
        TAQOS_ASSERT(p > 0.0 && p < 1.0, "threshold(%g) outside (0, 1)", p);
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53)) << 11;
    }

    /// Uniform double in [0, 1).
    double nextDouble() { return doubleFromBits(nextU64()); }

    /// Uniform integer in [0, bound).
    std::uint64_t nextBelow(std::uint64_t bound);

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /// True with probability p.
    bool bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /// Pick a uniformly random element of a non-empty vector.
    template <typename T>
    const T &pick(const std::vector<T> &v)
    {
        TAQOS_ASSERT(!v.empty(), "pick() from empty vector");
        return v[nextBelow(v.size())];
    }

    /// Derive an independent stream (for per-injector generators).
    Rng split();

    /// Raw generator state, for checkpointing. Restoring the four words
    /// reproduces the stream exactly from where it left off.
    std::array<std::uint64_t, 4> state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    void setState(const std::array<std::uint64_t, 4> &s)
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = s[static_cast<std::size_t>(i)];
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace taqos
