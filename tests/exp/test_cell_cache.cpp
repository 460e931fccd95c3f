/// The content-addressed sweep cache: key sensitivity (dynamics
/// coordinates in, execution knobs out), pinned keys, exact store/load
/// round-trips, corrupt fragments degrading to misses, cached re-runs
/// emitting byte-identical JSON with every cell a hit, and replicates
/// that share their seed (mixSeeds = false) running one identical
/// simulation each, so the cache alone covers their reuse, and seeded
/// mutants of a stored fragment each loading as a hit or a miss.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exp/cell_cache.h"
#include "exp/sweep.h"
#include "mutants.h"

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

/// A fixed result, so a pin on its fragment depends on the cache alone.
CellResult
fixedResult()
{
    CellResult res;
    res.put("avg_latency", 23.4375);
    res.put("p95_latency", 41.0);
    res.put("preemption_packet_rate", 0.0123);
    res.put("window_flits", 1536.0);
    res.put("saturated", 0.0);
    return res;
}

/// The iostream reader CellCache::load used before it parsed fragments
/// with the shared line and token reader, reading `text` instead of a
/// file and given the key and spec echo lines it expects: the reference
/// parseFragment is held to.
bool
iostreamParse(const std::string &text, const std::string &keyLine,
              const std::string &specLine, const CellSpec &cell,
              CellResult &out)
{
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line) || line != kCellCacheSchema)
        return false;
    if (!std::getline(is, line) || line != keyLine)
        return false;
    if (!std::getline(is, line) || line != specLine)
        return false;

    std::size_t count = 0;
    {
        if (!std::getline(is, line))
            return false;
        std::istringstream hs(line);
        std::string word;
        if (!(hs >> word >> count) || word != "metrics")
            return false;
    }

    CellResult res;
    res.spec = cell;
    for (std::size_t i = 0; i < count; ++i) {
        if (!std::getline(is, line))
            return false;
        std::istringstream ls(line);
        std::string name, tok;
        if (!(ls >> name >> tok))
            return false;
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (*end != '\0')
            return false;
        res.put(std::move(name), v);
    }
    if (!std::getline(is, line) || line != "end")
        return false;

    out = std::move(res);
    return true;
}

/// A string literal with the NULs inside it.
template <std::size_t N>
std::string
withNuls(const char (&s)[N])
{
    return std::string(s, N - 1);
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

TEST(CellKey, IsPinned)
{
    // Fragments are named by their key: a changed key turns every
    // stored fragment into a miss.
    CellSpec cell;
    cell.scenario = Scenario::LatencyLoad;
    cell.topology = TopologyKind::Dps;
    cell.rate = 0.05;
    cell.seed = 42;
    EXPECT_EQ(CellCache::cellKey(cell), 0x3439d86d12598b38ull);

    SweepSpec bursty;
    bursty.topologies = {TopologyKind::Dps};
    bursty.rates = {0.02};
    WorkloadSpec w;
    w.kind = WorkloadKind::Bursty;
    bursty.workloadSpecs = {w};
    EXPECT_EQ(CellCache::cellKey(bursty.expand()[0]), 0xa175fc8f45ab5480ull);
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

TEST(CellCacheIO, MutantFragmentsLoadOrMiss)
{
    const std::string dir = cacheDir("cellcache_mutants");
    const CellCache cache(dir);

    // A fixed result, so the pin depends on the reader alone.
    const CellSpec cell = tinySpec().expand()[0];
    ASSERT_TRUE(cache.store(cell, fixedResult()));
    const std::string frag =
        dir + "/" + CellCache::fragmentName(CellCache::cellKey(cell));
    std::string base;
    {
        std::ifstream is(frag, std::ios::binary);
        base.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
    }
    // Schema, key echo, spec echo, count, five metrics, end.
    const std::vector<std::string> baseLines = mutants::splitLines(base);
    ASSERT_EQ(baseLines.size(), 10u);

    mutants::Fnv verdicts;
    Rng rng(0xce11cace);
    std::size_t hits = 0;
    std::size_t echoMutants = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string text = mutants::mutate(base, rng);
        {
            std::ofstream os(frag, std::ios::binary | std::ios::trunc);
            os << text;
        }
        CellResult loaded;
        const bool hit = cache.load(cell, loaded);
        verdicts.u64(hit);
        if (hit) {
            ++hits;
            EXPECT_EQ(loaded.spec.seed, cell.seed);
            verdicts.u64(loaded.metrics.size());
            for (const auto &[name, v] : loaded.metrics) {
                verdicts.str(name);
                verdicts.f64(v);
            }
        }
        // A fragment whose key or spec echo is not the cell's own is
        // another cell's result, or none: never served.
        const std::vector<std::string> lines = mutants::splitLines(text);
        if (lines.size() < 3 || lines[1] != baseLines[1] ||
            lines[2] != baseLines[2]) {
            ++echoMutants;
            EXPECT_FALSE(hit) << text;
        }
    }
    EXPECT_EQ(echoMutants, 1699u);
    EXPECT_EQ(hits, 196u);
    EXPECT_EQ(verdicts.h, 10074141753090629108ull);
}

TEST(CellCacheIO, StoredFragmentBytesArePinned)
{
    // Caches filled by earlier builds stay hits only while the format
    // holds to the byte.
    const std::string dir = cacheDir("cellcache_bytes");
    const CellCache cache(dir);
    const CellSpec cell = tinySpec().expand()[0];
    ASSERT_TRUE(cache.store(cell, fixedResult()));
    std::ifstream is(dir + "/" +
                         CellCache::fragmentName(CellCache::cellKey(cell)),
                     std::ios::binary);
    const std::string stored((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
    EXPECT_EQ(stored,
              "taqos-cell/v1\n"
              "key e12a96ac5e58e7a5\n"
              "spec latency_load dps uniform pvc 0x1.47ae147ae147bp-6 0 0 0 "
              "4626745117281619370 500 1000 500 100000\n"
              "metrics 5\n"
              "avg_latency 0x1.77p+4\n"
              "p95_latency 0x1.48p+5\n"
              "preemption_packet_rate 0x1.930be0ded288dp-7\n"
              "window_flits 0x1.8p+10\n"
              "saturated 0x0p+0\n"
              "end\n");
    EXPECT_EQ(stored, CellCache::fragmentText(cell, fixedResult()));
}

TEST(CellCacheIO, ParseFragmentAgreesWithTheIostreamReader)
{
    const CellSpec cell = tinySpec().expand()[0];
    const std::string base = CellCache::fragmentText(cell, fixedResult());
    const std::vector<std::string> lines = mutants::splitLines(base);
    ASSERT_EQ(lines.size(), 10u);
    const std::string keyLine = lines[1].substr(0, lines[1].size() - 1);
    const std::string specLine = lines[2].substr(0, lines[2].size() - 1);
    const std::string head = lines[0] + lines[1] + lines[2];

    // The edges of operator>>, getline and strtod, then seeded mutants
    // at ten times MutantFragmentsLoadOrMiss's count.
    std::vector<std::string> texts = {
        base,
        base.substr(0, base.size() - 1),
        base + "trailing\n",
        head + "metrics 0\nend\n",
        head + "metrics -0\nend",
        head + "metrics +1 more\nm 0x1p+0\nend\n",
        head + "metrics 1x\n\t m\v0x1p+0 \f extra\nend\n",
        head + "metrics 18446744073709551616\nm 0\nend\n",
        head + "metrics 1\nm 0x1p+9999\nend\n",
        head + "metrics 1\nm 1e-400\nend\n",
        head + "metrics 1\nm nan\nend\n",
        head + "metrics 1\nm 0x1p+0\r\nend\n",
        head + "metrics 1\nm 0x1p+0\nend\r\n",
        head + "metrics 1\nm\n0x1p+0\nend\n",
        head + "metrics 1\n\n\nend\n",
        head + withNuls("metrics 1\nm 0x1p+0\0junk\nend\n"),
        head + withNuls("metrics 1\nm \0\nend\n"),
        head + withNuls("metrics\0 1\nm 0\nend\n"),
    };
    Rng rng(0xd1ff5eed);
    for (int i = 0; i < 30000; ++i)
        texts.push_back(mutants::mutate(base, rng));

    std::size_t hits = 0;
    for (const std::string &text : texts) {
        CellResult got, want;
        const bool hit = CellCache::parseFragment(text, cell, got);
        ASSERT_EQ(hit, iostreamParse(text, keyLine, specLine, cell, want))
            << text;
        if (!hit)
            continue;
        ++hits;
        EXPECT_EQ(got.spec.seed, cell.seed);
        ASSERT_EQ(got.metrics.size(), want.metrics.size()) << text;
        for (std::size_t m = 0; m < got.metrics.size(); ++m) {
            EXPECT_EQ(got.metrics[m].first, want.metrics[m].first) << text;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.metrics[m].second),
                      std::bit_cast<std::uint64_t>(want.metrics[m].second))
                << text;
        }
    }
    EXPECT_GE(hits, 1000u);
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
    // mixSeeds = false gives every replicate of a grid point the same
    // seed, so all of them run the same simulation: each swept cell
    // equals its own cold run and every other replicate of its point.
    // Nothing is gained by forking the replicates from one warm-up.
    SweepSpec spec = tinySpec();
    spec.replicates = 3;
    spec.mixSeeds = false;

    const SweepRunner runner(2);
    const SweepResult swept = runner.run(spec);

    const std::vector<CellSpec> cells = spec.expand();
    ASSERT_EQ(swept.cells.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expectCellsEqual(swept.cells[i], SweepRunner::runCell(cells[i]));
        // Replicates are adjacent in expansion order.
        if (cells[i].replicate > 0)
            expectCellsEqual(swept.cells[i], swept.cells[i - 1]);
    }
}

} // namespace
} // namespace taqos
