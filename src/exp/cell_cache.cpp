#include "exp/cell_cache.h"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/strings.h"
#include "exp/json_writer.h"
#include "sim/engine_salt.h"

namespace taqos {
namespace {

/// Exact double round-trip: C hexfloat in, strtod out.
std::string
hexFloat(double v)
{
    return strFormat("%a", v);
}

bool
parseHexFloat(const std::string &tok, double &out)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return end != nullptr && *end == '\0';
}

} // namespace

CellCache::CellCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
}

std::uint64_t
CellCache::cellKey(const CellSpec &cell)
{
    std::uint64_t h = kEngineSalt;
    h = hashCombine(h, static_cast<std::uint64_t>(cell.scenario));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.topology));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.pattern));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.mode));
    h = hashCombine(h, std::bit_cast<std::uint64_t>(cell.rate));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.workload));
    h = hashCombine(h, static_cast<std::uint64_t>(cell.placement));
    // Mirror of the sweep's seed policy: only a non-steady workload spec
    // joins the key, so every fragment stored before the dynamic-workload
    // axis existed keeps its key (and stays a hit).
    if (!cell.workloadSpec.isSteady()) {
        std::vector<std::uint64_t> words;
        cell.workloadSpec.appendKeyWords(words);
        for (std::uint64_t w : words)
            h = hashCombine(h, w);
    }
    h = hashCombine(h, static_cast<std::uint64_t>(cell.replicate));
    h = hashCombine(h, cell.seed);
    h = hashCombine(h, cell.phases.warmup);
    h = hashCombine(h, cell.phases.measure);
    h = hashCombine(h, cell.phases.drain);
    h = hashCombine(h, cell.genCycles);
    return h;
}

std::string
CellCache::fragmentName(std::uint64_t key)
{
    return strFormat("%016llx.cell", static_cast<unsigned long long>(key));
}

std::string
CellCache::path(std::uint64_t key) const
{
    return dir_ + "/" + fragmentName(key);
}

/// The spec echo line: a human-auditable (and collision-proof) record
/// of the coordinates the key was derived from.
static std::string
specLine(const CellSpec &c)
{
    std::string line = strFormat(
        "spec %s %s %s %s %s %d %d %d %llu %llu %llu %llu %llu",
        scenarioName(c.scenario), topologyName(c.topology),
        patternName(c.pattern), qosModeName(c.mode), hexFloat(c.rate).c_str(),
        c.workload, c.placement, c.replicate,
        static_cast<unsigned long long>(c.seed),
        static_cast<unsigned long long>(c.phases.warmup),
        static_cast<unsigned long long>(c.phases.measure),
        static_cast<unsigned long long>(c.phases.drain),
        static_cast<unsigned long long>(c.genCycles));
    // Appended only for non-steady cells, so pre-existing steady
    // fragments still match their echo line byte for byte.
    if (!c.workloadSpec.isSteady())
        line += " w=" + c.workloadSpec.name();
    return line;
}

bool
CellCache::load(const CellSpec &cell, CellResult &out) const
{
    const std::uint64_t key = cellKey(cell);
    std::ifstream is(path(key));
    if (!is)
        return false;

    std::string line;
    if (!std::getline(is, line) || line != kCellCacheSchema)
        return false;
    if (!std::getline(is, line) ||
        line != "key " + strFormat("%016llx",
                                   static_cast<unsigned long long>(key)))
        return false;
    if (!std::getline(is, line) || line != specLine(cell))
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
        double v = 0.0;
        if (!parseHexFloat(tok, v))
            return false;
        res.put(std::move(name), v);
    }
    if (!std::getline(is, line) || line != "end")
        return false;

    out = std::move(res);
    return true;
}

bool
CellCache::store(const CellSpec &cell, const CellResult &res) const
{
    const std::uint64_t key = cellKey(cell);
    std::string body = std::string(kCellCacheSchema) + "\n";
    body += "key " +
            strFormat("%016llx", static_cast<unsigned long long>(key)) + "\n";
    body += specLine(cell) + "\n";
    body += strFormat("metrics %zu", res.metrics.size()) + "\n";
    for (const auto &[name, v] : res.metrics)
        body += name + " " + hexFloat(v) + "\n";
    body += "end\n";

    // Write-then-rename: a concurrent reader sees either the old
    // fragment or the complete new one, never a torn write.
    const std::string final = path(key);
    const std::string tmp = final + ".tmp";
    if (!writeTextFile(tmp, body))
        return false;
    std::error_code ec;
    std::filesystem::rename(tmp, final, ec);
    return !ec;
}

} // namespace taqos
