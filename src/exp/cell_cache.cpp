#include "exp/cell_cache.h"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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

/// strtod on a terminated copy of `tok`, which must read up to its end
/// or to a NUL inside it (where the C string ends).
bool
parseHexFloat(std::string_view tok, double &out)
{
    if (tok.empty())
        return false;
    const std::string s(tok);
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
}

std::string
keyLine(std::uint64_t key)
{
    return strFormat("key %016llx", static_cast<unsigned long long>(key));
}

/// The shortest metric line and its separator ("m 0\n").
constexpr std::size_t kMinMetricLine = 4;

/// The whole of the regular file at `path`, in one read.
bool
readFile(const std::string &path, std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    struct stat st {};
    bool ok = ::fstat(::fileno(f), &st) == 0 && S_ISREG(st.st_mode);
    if (ok) {
        text.resize(static_cast<std::size_t>(st.st_size));
        ok = std::fread(text.data(), 1, text.size(), f) == text.size();
    }
    std::fclose(f);
    return ok;
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
    std::string text;
    return readFile(path(cellKey(cell)), text) &&
           parseFragment(text, cell, out);
}

bool
CellCache::parseFragment(std::string_view text, const CellSpec &cell,
                         CellResult &out)
{
    // Lines split as std::getline splits them and tokens as the C
    // locale's operator>> does: which damaged fragments still hit is
    // pinned (CellCacheIO.MutantFragmentsLoadOrMiss), so these rules are
    // part of the format.
    std::string_view rest = text;
    std::string_view line;
    if (!nextLine(rest, line) || line != kCellCacheSchema)
        return false;
    if (!nextLine(rest, line) || line != keyLine(cellKey(cell)))
        return false;
    if (!nextLine(rest, line) || line != specLine(cell))
        return false;

    // `>> count` reads a numeric prefix after an optional sign and
    // ignores the rest of the line; a stream reads this one line so.
    std::size_t count = 0;
    {
        if (!nextLine(rest, line))
            return false;
        std::istringstream hs{std::string(line)};
        std::string word;
        if (!(hs >> word >> count) || word != "metrics")
            return false;
    }

    CellResult res;
    res.spec = cell;
    // The count is outside input: reserve no more than the rest of the
    // text can hold.
    res.metrics.reserve(std::min(count, (rest.size() + 1) / kMinMetricLine));
    for (std::size_t i = 0; i < count; ++i) {
        if (!nextLine(rest, line))
            return false;
        Tokens r(line);
        std::string_view name, tok;
        double v = 0.0;
        if (!r.next(name) || !r.next(tok) || !parseHexFloat(tok, v))
            return false;
        res.put(std::string(name), v);
    }
    if (!nextLine(rest, line) || line != "end")
        return false;

    out = std::move(res);
    return true;
}

std::string
CellCache::fragmentText(const CellSpec &cell, const CellResult &res)
{
    std::string body = std::string(kCellCacheSchema) + "\n";
    body += keyLine(cellKey(cell)) + "\n";
    body += specLine(cell) + "\n";
    body += strFormat("metrics %zu", res.metrics.size()) + "\n";
    for (const auto &[name, v] : res.metrics)
        body += name + " " + hexFloat(v) + "\n";
    body += "end\n";
    return body;
}

bool
CellCache::store(const CellSpec &cell, const CellResult &res) const
{
    // Write-then-rename: a concurrent reader sees either the old
    // fragment or the complete new one, never a torn write.
    const std::string final = path(cellKey(cell));
    const std::string tmp = final + ".tmp";
    if (!writeTextFile(tmp, fragmentText(cell, res)))
        return false;
    std::error_code ec;
    std::filesystem::rename(tmp, final, ec);
    return !ec;
}

} // namespace taqos
