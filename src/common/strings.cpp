#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/options.h"

namespace taqos {

std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int need = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (need > 0) {
        out.resize(static_cast<std::size_t>(need));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    }
    va_end(args);
    return out;
}

std::vector<std::string>
strSplit(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string
strTrim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
strLower(const std::string &s)
{
    std::string out = s;
    for (auto &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
parseI64Tok(const std::string &tok, std::int64_t &out)
{
    // An optional '-' and then digits only: strtoll alone would also take
    // leading blanks and a '+', which parseU64Tok refuses.
    const std::size_t sign = !tok.empty() && tok[0] == '-' ? 1 : 0;
    if (tok.size() == sign ||
        !std::isdigit(static_cast<unsigned char>(tok[sign]))) {
        return false;
    }
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(tok.c_str(), &end, 10);
    return *end == '\0' && errno == 0;
}

bool
parseU64Tok(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(tok.c_str(), &end, 10);
    return *end == '\0' && errno == 0;
}

bool
parseDoubleTok(const std::string &tok, double &out)
{
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return !tok.empty() && *end == '\0' && std::isfinite(out);
}

bool
parseBoolTok(const std::string &tok, bool &out)
{
    const std::string v = strLower(tok);
    out = v == "1" || v == "true" || v == "yes" || v == "on";
    return out || v == "0" || v == "false" || v == "no" || v == "off";
}

OptionMap::OptionMap(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos)
            kv_[strTrim(arg)] = "1";
        else
            kv_[strTrim(arg.substr(0, eq))] = strTrim(arg.substr(eq + 1));
    }
}

bool
OptionMap::has(const std::string &key) const
{
    return kv_.count(key) > 0;
}

std::string
OptionMap::get(const std::string &key, const std::string &dflt) const
{
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
}

void
OptionMap::badValue(const std::pair<const std::string, std::string> &kv,
                    const std::string &want)
{
    optionError(strFormat("bad option '%s=%s': want %s", kv.first.c_str(),
                          kv.second.c_str(), want.c_str()));
}

Cycle
OptionMap::getCycles(const std::string &key, Cycle dflt) const
{
    return getParsed(key, dflt, parseU64Tok,
                     "a cycle count (a whole number >= 0)");
}

double
OptionMap::getDouble(const std::string &key, double dflt) const
{
    return getParsed(key, dflt, parseDoubleTok, "a number");
}

double
OptionMap::getNonNegative(const std::string &key, double dflt) const
{
    return getParsed(
        key, dflt,
        [](const std::string &tok, double &v) {
            return parseDoubleTok(tok, v) && v >= 0.0;
        },
        "a number >= 0");
}

bool
OptionMap::getBool(const std::string &key, bool dflt) const
{
    return getParsed(key, dflt, parseBoolTok,
                     "0/1/true/false/yes/no/on/off");
}

void
OptionMap::rejectUnknown(std::initializer_list<const char *> known) const
{
    for (const auto &kv : kv_) {
        if (std::none_of(known.begin(), known.end(),
                         [&kv](const char *k) { return kv.first == k; })) {
            unknownValue("option", kv.first,
                         joinNames(known, [](const char *k) { return k; }));
        }
    }
}

} // namespace taqos
