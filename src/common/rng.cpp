#include "common/rng.h"

namespace taqos {

void
Rng::reseed(std::uint64_t seed)
{
    // Four consecutive outputs of a splitmix64 generator started at seed.
    for (auto &s : s_) {
        s = splitmix64(seed);
        seed += kGoldenGamma;
    }
    // A zero state would be absorbing; splitmix64 output of four words is
    // never all-zero in practice, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    TAQOS_ASSERT(bound > 0, "nextBelow(0)");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = ~0ull - (~0ull % bound) - 1;
    std::uint64_t v = nextU64();
    while (v > limit)
        v = nextU64();
    return v % bound;
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    TAQOS_ASSERT(lo <= hi, "nextRange: lo > hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

Rng
Rng::split()
{
    return Rng(nextU64());
}

} // namespace taqos
