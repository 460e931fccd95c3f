/// The content-addressed sweep cache: key sensitivity (dynamics
/// coordinates in, execution knobs out), exact store/load round-trips,
/// corrupt fragments degrading to misses, cached re-runs emitting
/// byte-identical JSON with every cell a hit, and the shared-warmup
/// replicate fork staying bit-identical to per-cell cold runs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "exp/cell_cache.h"
#include "exp/sweep.h"

namespace taqos {
namespace {

std::string
cacheDir(const char *name)
{
    // Wipe any fragments a previous run of the same binary left behind:
    // every test here starts from a provably cold cache.
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "cache_test";
    spec.scenario = Scenario::LatencyLoad;
    spec.topologies = {TopologyKind::Dps, TopologyKind::Mecs};
    spec.rates = {0.02, 0.05};
    spec.replicates = 2;
    spec.phases.warmup = 500;
    spec.phases.measure = 1000;
    spec.phases.drain = 500;
    return spec;
}

void
expectCellsEqual(const CellResult &a, const CellResult &b)
{
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (std::size_t i = 0; i < a.metrics.size(); ++i) {
        EXPECT_EQ(a.metrics[i].first, b.metrics[i].first);
        // Bitwise equality, not tolerance: cached cells must reproduce
        // the cold run's doubles exactly or the JSON bytes drift.
        EXPECT_EQ(a.metrics[i].second, b.metrics[i].second)
            << a.metrics[i].first;
    }
}

TEST(CellKey, SensitiveToDynamicsCoordinatesOnly)
{
    CellSpec cell;
    cell.scenario = Scenario::LatencyLoad;
    cell.topology = TopologyKind::Dps;
    cell.rate = 0.05;
    cell.seed = 42;
    const std::uint64_t base = CellCache::cellKey(cell);
    EXPECT_EQ(CellCache::cellKey(cell), base);

    CellSpec c1 = cell;
    c1.rate = 0.06;
    EXPECT_NE(CellCache::cellKey(c1), base);
    CellSpec c2 = cell;
    c2.mode = QosMode::Gsf;
    EXPECT_NE(CellCache::cellKey(c2), base);
    CellSpec c3 = cell;
    c3.seed = 43;
    EXPECT_NE(CellCache::cellKey(c3), base);
    CellSpec c4 = cell;
    c4.replicate = 1;
    EXPECT_NE(CellCache::cellKey(c4), base);
    CellSpec c5 = cell;
    c5.phases.warmup += 1;
    EXPECT_NE(CellCache::cellKey(c5), base);
}

TEST(CellCacheIO, StoreLoadRoundTripsExactly)
{
    const CellCache cache(cacheDir("cellcache_roundtrip"));

    CellSpec cell = tinySpec().expand()[0];
    const CellResult cold = SweepRunner::runCell(cell);

    CellResult loaded;
    EXPECT_FALSE(cache.load(cell, loaded)); // cold cache
    ASSERT_TRUE(cache.store(cell, cold));
    ASSERT_TRUE(cache.load(cell, loaded));
    expectCellsEqual(loaded, cold);
    EXPECT_EQ(loaded.spec.seed, cell.seed);
}

TEST(CellCacheIO, CorruptFragmentIsAMissNotAnError)
{
    const std::string dir = cacheDir("cellcache_corrupt");
    const CellCache cache(dir);

    CellSpec cell = tinySpec().expand()[0];
    ASSERT_TRUE(cache.store(cell, SweepRunner::runCell(cell)));

    const std::string frag =
        dir + "/" + CellCache::fragmentName(CellCache::cellKey(cell));
    {
        // Truncate mid-metrics: the "end" sentinel never arrives.
        std::ifstream is(frag);
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        ASSERT_GT(text.size(), 40u);
        std::ofstream os(frag, std::ios::trunc);
        os << text.substr(0, text.size() / 2);
    }
    CellResult loaded;
    EXPECT_FALSE(cache.load(cell, loaded));

    {
        // A different schema line is an equally quiet miss.
        std::ofstream os(frag, std::ios::trunc);
        os << "taqos-cell/v999\nnonsense\n";
    }
    EXPECT_FALSE(cache.load(cell, loaded));
}

TEST(CellCacheSweep, CachedRerunIsAllHitsAndByteIdentical)
{
    const CellCache cacheStore(cacheDir("cellcache_sweep"));
    CellCache cache = cacheStore;
    const SweepSpec spec = tinySpec();
    const SweepRunner runner(2);

    const SweepResult cold = runner.run(spec);
    ASSERT_FALSE(cold.cells.empty());

    SweepResult first = runner.run(spec, &cache);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.cacheMisses, cold.cells.size());
    EXPECT_EQ(first.toJson(), cold.toJson());

    SweepResult second = runner.run(spec, &cache);
    EXPECT_EQ(second.cacheHits, cold.cells.size());
    EXPECT_EQ(second.cacheMisses, 0u);
    EXPECT_EQ(second.toJson(), cold.toJson());
}

TEST(CellCacheSweep, PartialCacheMergesCachedAndFreshCells)
{
    const CellCache cache(cacheDir("cellcache_partial"));
    const SweepSpec spec = tinySpec();
    const SweepRunner runner(1);

    const SweepResult cold = runner.run(spec);

    // Pre-store every other cell, then sweep against the half-warm
    // cache: the merged record must still match the cold bytes.
    const std::vector<CellSpec> cells = spec.expand();
    std::size_t stored = 0;
    for (std::size_t i = 0; i < cells.size(); i += 2) {
        ASSERT_TRUE(cache.store(cells[i], cold.cells[i]));
        ++stored;
    }
    CellCache mutableCache = cache;
    const SweepResult merged = runner.run(spec, &mutableCache);
    EXPECT_EQ(merged.cacheHits, stored);
    EXPECT_EQ(merged.cacheMisses, cells.size() - stored);
    EXPECT_EQ(merged.toJson(), cold.toJson());
}

TEST(CellCacheSweep, SharedWarmupForkMatchesPerCellColdRuns)
{
    // mixSeeds = false makes every replicate share its seed, so the
    // runner warms each grid point once and forks the replicates from
    // the checkpoint; the result must be bit-identical to running every
    // cell cold from cycle zero.
    SweepSpec spec = tinySpec();
    spec.replicates = 3;
    spec.mixSeeds = false;

    const SweepRunner runner(2);
    const SweepResult forked = runner.run(spec);

    const std::vector<CellSpec> cells = spec.expand();
    ASSERT_EQ(forked.cells.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult cold = SweepRunner::runCell(cells[i]);
        expectCellsEqual(forked.cells[i], cold);
    }
}

} // namespace
} // namespace taqos
