/// \file options.h
/// Typed command-line option parsing shared by the example and bench
/// binaries. Every CLI validates its options up front through these
/// helpers and OptionMap's getters, and fails with one canonical message
/// per error shape:
///
///   bad rates '<s>': want a,b,c or lo:hi:step (rates >= 0, step > 0)
///   bad rates '<s>': want a grid of at most 1000 rates
///   bad integer list '<s>': want a,b,c of int
///   bad option '<key>=<value>': want <what>
///   unknown <what> '<token>'[; valid: <names>]
///
/// The enum helpers take the canonical `parseX` round-trip functions
/// (parseTopology, parseQosMode, parsePattern, parseLinkTopology, ...)
/// so a CLI never re-implements name matching.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"

namespace taqos {

/// Report a malformed option and exit(1) — the CLI contract is that
/// options are validated before any work starts, never silently
/// defaulted.
[[noreturn]] inline void
optionError(const std::string &msg)
{
    std::fprintf(stderr, "%s\n", msg.c_str());
    std::exit(1);
}

[[noreturn]] inline void
unknownValue(const char *what, const std::string &token,
             const std::string &valid = "")
{
    if (valid.empty())
        optionError(strFormat("unknown %s '%s'", what, token.c_str()));
    optionError(strFormat("unknown %s '%s'; valid: %s", what, token.c_str(),
                          valid.c_str()));
}

/// Space-joined names of an enum range, for unknownValue's `valid` hint:
/// joinNames(kAllQosModes, qosModeName).
template <typename Range, typename Name>
std::string
joinNames(const Range &range, Name name)
{
    std::string out;
    for (const auto &v : range) {
        if (!out.empty())
            out += ' ';
        out += name(v);
    }
    return out;
}

namespace detail {

[[noreturn]] inline void
badRates(const std::string &s)
{
    optionError(strFormat("bad rates '%s': want a,b,c or lo:hi:step "
                          "(rates >= 0, step > 0)",
                          s.c_str()));
}

inline double
parseRateToken(const std::string &token, const std::string &whole)
{
    double v = 0.0;
    if (!parseDoubleTok(token, v) || v < 0.0)
        badRates(whole);
    return v;
}

} // namespace detail

/// Most rates one lo:hi:step grid may hold.
inline constexpr std::size_t kMaxGridRates = 1000;

/// lo, lo + step, lo + step + step, ... up to hi (inclusive up to
/// rounding slack): summed step by step, so every grid keeps the doubles
/// (and with them the cell seeds and cache keys) it always had. `step`
/// must be > 0. Exits with one `bad rates '<text>'` line at rate
/// kMaxGridRates + 1, so a tiny step cannot grow the list without bound,
/// nor loop forever where adding it no longer changes the sum.
inline std::vector<double>
rateRange(double lo, double hi, double step, const std::string &text)
{
    std::vector<double> rates;
    for (double r = lo; r <= hi + 1e-9; r += step) {
        if (rates.size() == kMaxGridRates) {
            optionError(strFormat("bad rates '%s': want a grid of at most "
                                  "%zu rates",
                                  text.c_str(), kMaxGridRates));
        }
        rates.push_back(r);
    }
    return rates;
}

/// `a,b,c` or `lo:hi:step` (rateRange) -> the list of rates. Exits on
/// malformed, negative or empty input and on an oversized grid.
inline std::vector<double>
parseRateList(const std::string &s)
{
    std::vector<double> rates;
    if (s.find(':') != std::string::npos) {
        const auto parts = strSplit(s, ':');
        if (parts.size() != 3)
            detail::badRates(s);
        const double lo = detail::parseRateToken(strTrim(parts[0]), s);
        const double hi = detail::parseRateToken(strTrim(parts[1]), s);
        const double step = detail::parseRateToken(strTrim(parts[2]), s);
        if (step <= 0.0)
            detail::badRates(s);
        rates = rateRange(lo, hi, step, s);
    } else {
        for (const auto &part : strSplit(s, ',')) {
            const std::string token = strTrim(part);
            if (!token.empty())
                rates.push_back(detail::parseRateToken(token, s));
        }
    }
    if (rates.empty())
        detail::badRates(s);
    return rates;
}

/// Comma-separated ints; rejects non-numeric tokens (unlike atoi) and
/// values outside int (instead of wrapping them).
inline std::vector<int>
parseIntList(const std::string &s)
{
    std::vector<int> out;
    for (const auto &part : strSplit(s, ',')) {
        const std::string token = strTrim(part);
        if (token.empty())
            continue;
        int v = 0;
        if (!parseIntTok(token, v)) {
            optionError(strFormat("bad integer list '%s': want a,b,c of int",
                                  s.c_str()));
        }
        out.push_back(v);
    }
    return out;
}

/// Comma-separated enum names through a canonical `parseX` round-trip.
template <typename Parse>
auto
parseEnumList(const std::string &s, Parse parse, const char *what,
              const std::string &valid = "")
    -> std::vector<typename decltype(parse(std::string{}))::value_type>
{
    std::vector<typename decltype(parse(std::string{}))::value_type> out;
    for (const auto &part : strSplit(s, ',')) {
        const std::string token = strTrim(part);
        if (token.empty())
            continue;
        const auto v = parse(token);
        if (!v.has_value())
            unknownValue(what, token, valid);
        out.push_back(*v);
    }
    return out;
}

/// Single enum-valued option (`key=<name>`); absent -> `dflt`.
template <typename T, typename Parse>
T
enumOption(const OptionMap &opts, const char *key, T dflt, Parse parse,
           const char *what, const std::string &valid = "")
{
    const std::string s = opts.get(key, "");
    if (s.empty())
        return dflt;
    const auto v = parse(s);
    if (!v.has_value())
        unknownValue(what, s, valid);
    return *v;
}

} // namespace taqos
