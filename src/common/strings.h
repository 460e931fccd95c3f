/// \file strings.h
/// Small string utilities: printf-style formatting, splitting, trimming,
/// strict number parsing, and a `key=value` command-line option parser
/// used by examples/benches.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
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
/// ("2k", "0.05x", "" and overflow all fail). Integers are decimal, and
/// parseU64Tok fails on a minus sign instead of wrapping; doubles must
/// be finite; booleans are 0/1/true/false/yes/no/on/off in any case.
bool parseI64Tok(const std::string &tok, std::int64_t &out);
bool parseU64Tok(const std::string &tok, std::uint64_t &out);
bool parseDoubleTok(const std::string &tok, double &out);
bool parseBoolTok(const std::string &tok, bool &out);

/// Parses argv of the form `key=value ...` (plus bare flags, stored with
/// value "1"). The typed getters parse strictly (parse*Tok) and exit(1)
/// with one line naming the key and the value when it does not parse.
class OptionMap {
  public:
    OptionMap() = default;
    OptionMap(int argc, char **argv);

    bool has(const std::string &key) const;
    std::string get(const std::string &key, const std::string &dflt) const;
    std::int64_t getInt(const std::string &key, std::int64_t dflt) const;
    /// A cycle count: a whole number >= 0.
    Cycle getCycles(const std::string &key, Cycle dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    bool getBool(const std::string &key, bool dflt) const;

    /// Exit(1) with "unknown option '<key>'; valid: ..." on the first key
    /// outside `known` — so a misspelt key fails instead of being ignored.
    void rejectUnknown(std::initializer_list<const char *> known) const;

    const std::map<std::string, std::string> &raw() const { return kv_; }

  private:
    std::map<std::string, std::string> kv_;
};

} // namespace taqos
