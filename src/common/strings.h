/// \file strings.h
/// Small string utilities: printf-style formatting, splitting, trimming,
/// strict number parsing, the line and token reader the text-file
/// parsers share, and a `key=value` command-line option parser used by
/// examples/benches.
#pragma once

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <concepts>
#include <cstdarg>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace taqos {

/// printf-style formatting into a std::string.
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Split on a single character; empty fields preserved.
std::vector<std::string> strSplit(const std::string &s, char sep);

/// Strip leading/trailing ASCII whitespace.
std::string strTrim(const std::string &s);

/// Lower-case ASCII copy.
std::string strLower(const std::string &s);

/// Strict parsing of one option value or spec field: the whole of `tok`
/// must be one value of the type, in range, or the call returns false
/// ("2k", "0.05x", "" and overflow all fail). Integers are decimal
/// digits, after a '-' for parseI64Tok only (no '+', no blanks), so
/// parseU64Tok fails on a minus sign instead of wrapping; doubles must
/// be finite; booleans are 0/1/true/false/yes/no/on/off in any case.
bool parseI64Tok(const std::string &tok, std::int64_t &out);
bool parseU64Tok(const std::string &tok, std::uint64_t &out);
bool parseDoubleTok(const std::string &tok, double &out);
bool parseBoolTok(const std::string &tok, bool &out);

/// parseI64Tok/parseU64Tok into the integer type the caller stores:
/// also fails when the value does not fit `T` ("4294967297" is no int).
template <std::integral T>
bool
parseIntTok(const std::string &tok, T &out)
{
    std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>
        v = 0;
    bool ok = false;
    if constexpr (std::is_signed_v<T>)
        ok = parseI64Tok(tok, v);
    else
        ok = parseU64Tok(tok, v);
    if (!ok || !std::in_range<T>(v))
        return false;
    out = static_cast<T>(v);
    return true;
}

/// The six characters the C locale's `operator>>` skips between tokens.
inline constexpr bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/// The whitespace-separated tokens of one line, split as the C locale's
/// `operator>>` splits them and read in order. Every numeric read is
/// checked and consumes its token even when the token does not parse.
class Tokens {
  public:
    explicit Tokens(std::string_view line) : rest_(line) {}

    /// False, consuming nothing, at the end of the line.
    bool next(std::string_view &tok)
    {
        const char *p = rest_.data();
        const char *const end = p + rest_.size();
        while (p != end && isSpace(*p))
            ++p;
        if (p == end)
            return false;
        const char *q = p;
        while (q != end && !isSpace(*q))
            ++q;
        tok = std::string_view(p, static_cast<std::size_t>(q - p));
        rest_ = std::string_view(q, static_cast<std::size_t>(end - q));
        return true;
    }

    bool next(std::string &out)
    {
        std::string_view tok;
        if (!next(tok))
            return false;
        out.assign(tok);
        return true;
    }

    /// As strtoull: a '-' negates in the unsigned type.
    bool nextU64(std::uint64_t &out)
    {
        bool neg = false;
        std::uint64_t mag = 0;
        if (!nextMagnitude(neg, mag))
            return false;
        out = neg ? 0 - mag : mag;
        return true;
    }

    /// As strtoll, then a check that the value fits 32 bits.
    bool nextI32(std::int32_t &out)
    {
        bool neg = false;
        std::uint64_t mag = 0;
        if (!nextMagnitude(neg, mag) ||
            mag > (neg ? 0x80000000u : 0x7fffffffu)) {
            return false;
        }
        const auto v = static_cast<std::int64_t>(mag);
        out = static_cast<std::int32_t>(neg ? -v : v);
        return true;
    }

    /// strtod on a terminated copy of the token, which must be read
    /// whole and in range.
    bool nextDouble(double &out)
    {
        std::string_view tok;
        if (!next(tok))
            return false;
        const std::string s(tok);
        errno = 0;
        char *end = nullptr;
        out = std::strtod(s.c_str(), &end);
        return errno == 0 && end != s.c_str() && *end == '\0';
    }

    bool atEnd()
    {
        std::string_view tok;
        return !next(tok);
    }

  private:
    /// strtoull's reading of a token: an optional sign, then decimal
    /// digits up to the token's end or a NUL (strtoull reads the token as
    /// a C string). The magnitude must fit 64 bits.
    bool nextMagnitude(bool &neg, std::uint64_t &mag)
    {
        std::string_view tok;
        if (!next(tok))
            return false;
        const char *p = tok.data();
        const char *const end = p + tok.size();
        neg = p != end && *p == '-';
        if (p != end && (*p == '-' || *p == '+'))
            ++p;
        const auto [q, ec] = std::from_chars(p, end, mag);
        return ec == std::errc{} && (q == end || *q == '\0');
    }

    std::string_view rest_;
};

/// Pop the next line off `rest` as std::getline reads it: split at '\n',
/// with no empty line after a final '\n'.
inline bool
nextLine(std::string_view &rest, std::string_view &line)
{
    if (rest.empty())
        return false;
    const std::size_t nl = std::min(rest.find('\n'), rest.size());
    line = rest.substr(0, nl);
    rest.remove_prefix(std::min(nl + 1, rest.size()));
    return true;
}

/// Parses argv of the form `key=value ...` (plus bare flags, stored with
/// value "1"). The typed getters parse strictly (parse*Tok) and exit(1)
/// with one line naming the key and the value when it does not parse.
class OptionMap {
  public:
    OptionMap() = default;
    OptionMap(int argc, char **argv);

    bool has(const std::string &key) const;
    std::string get(const std::string &key, const std::string &dflt) const;
    /// A whole number that fits `T`, the type of the default, so the
    /// caller stores it without a cast (`chips=4294967297` fails instead
    /// of wrapping to 1).
    template <std::integral T>
    T getInt(const std::string &key, T dflt) const
    {
        return getParsed(key, dflt, parseIntTok<T>,
                         "a whole number in [" +
                             std::to_string(std::numeric_limits<T>::min()) +
                             ", " +
                             std::to_string(std::numeric_limits<T>::max()) +
                             "]");
    }
    /// A cycle count: a whole number >= 0.
    Cycle getCycles(const std::string &key, Cycle dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    /// A load or share (`rate=`, `remote=`): a number >= 0.
    double getNonNegative(const std::string &key, double dflt) const;
    bool getBool(const std::string &key, bool dflt) const;

    /// Exit(1) with "unknown option '<key>'; valid: ..." on the first key
    /// outside `known` — so a misspelt key fails instead of being ignored.
    void rejectUnknown(std::initializer_list<const char *> known) const;

    const std::map<std::string, std::string> &raw() const { return kv_; }

  private:
    /// The typed getters' shared shape: absent -> `dflt`, otherwise
    /// `parse` or exit with the key, the value and what was wanted.
    template <typename T, typename Parse>
    T getParsed(const std::string &key, T dflt, Parse parse,
                const std::string &want) const
    {
        const auto it = kv_.find(key);
        if (it == kv_.end())
            return dflt;
        T v{};
        if (!parse(it->second, v))
            badValue(*it, want);
        return v;
    }
    [[noreturn]] static void
    badValue(const std::pair<const std::string, std::string> &kv,
             const std::string &want);

    std::map<std::string, std::string> kv_;
};

} // namespace taqos
