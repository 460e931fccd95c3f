#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"

namespace taqos {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        equal += a.nextU64() == b.nextU64();
    EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(99);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(a.nextU64());
    a.reseed(99);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.nextU64(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextDoubleMeanNearHalf)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000007ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(5);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.125);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.125, 0.01);
}

TEST(Rng, IntegerThresholdMatchesTheDoubleTrial)
{
    // The smallest subnormal, the smallest step of a draw, the largest
    // double below 1, and k * 2^-53 with its neighbours one ulp away.
    std::vector<double> ps = {std::ldexp(1.0, -1074), std::ldexp(1.0, -53),
                              1.0 - std::ldexp(1.0, -53)};
    for (const std::uint64_t k :
         {1ull, 2ull, 3ull, 5ull, (1ull << 20) + 1, 1ull << 52,
          (1ull << 52) + 1, (1ull << 53) - 2, (1ull << 53) - 1}) {
        const double p = std::ldexp(static_cast<double>(k), -53);
        for (const double q :
             {p, std::nextafter(p, 0.0), std::nextafter(p, 1.0)}) {
            if (q > 0.0 && q < 1.0)
                ps.push_back(q);
        }
    }
    Rng rng(99);
    for (const double p : ps) {
        const std::uint64_t t = Rng::threshold(p);
        // The draws at the boundary: top 53 bits one below the threshold,
        // at it and one above, each with its low 11 bits clear and set.
        const std::uint64_t top = t >> 11;
        for (const std::uint64_t hi : {top - 1, top, top + 1}) {
            if (hi >= (1ull << 53))
                continue;
            for (const std::uint64_t lo : {0ull, 0x7ffull}) {
                const std::uint64_t draw = hi << 11 | lo;
                EXPECT_EQ(draw < t, Rng::doubleFromBits(draw) < p)
                    << "p = " << p << ", draw = " << draw;
            }
        }
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t draw = rng.nextU64();
            ASSERT_EQ(draw < t, Rng::doubleFromBits(draw) < p)
                << "p = " << p << ", draw = " << draw;
        }
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(21);
    Rng b = a.split();
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        equal += a.nextU64() == b.nextU64();
    EXPECT_LT(equal, 3);
}

TEST(Rng, PickUniform)
{
    Rng rng(17);
    const std::vector<int> v{1, 2, 3, 4};
    std::vector<int> counts(5, 0);
    for (int i = 0; i < 40000; ++i)
        ++counts[static_cast<std::size_t>(rng.pick(v))];
    for (int x = 1; x <= 4; ++x)
        EXPECT_NEAR(counts[static_cast<std::size_t>(x)], 10000, 500);
}

} // namespace
} // namespace taqos
