/// \file mutants.h
/// The in-repo mutation harness shared by the reader tests: seeded byte
/// flips, boundary-byte overwrites, truncations and line deletes,
/// duplicates and swaps over a text a test generates. Deterministic for
/// a given seed, so each reader's verdicts over a corpus can be pinned:
/// fold every verdict into an Fnv and pin its value.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace taqos::mutants {

/// 64-bit FNV-1a, fed byte by byte or field by field.
struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void byte(unsigned char c) { h = (h ^ c) * 0x100000001b3ull; }
    void bytes(std::string_view s)
    {
        for (unsigned char c : s)
            byte(c);
    }
    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    void i32(std::int32_t v) { u64(static_cast<std::uint32_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(std::string_view s)
    {
        u64(s.size());
        bytes(s);
    }
};

/// `text` split after every '\n'; the last piece may lack one.
inline std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t at = 0;
    while (at < text.size()) {
        const std::size_t nl = text.find('\n', at);
        const std::size_t end =
            nl == std::string::npos ? text.size() : nl + 1;
        lines.push_back(text.substr(at, end - at));
        at = end;
    }
    return lines;
}

inline std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string text;
    for (const std::string &l : lines)
        text += l;
    return text;
}

/// One to three seeded mutations of `base`.
inline std::string
mutate(const std::string &base, Rng &rng)
{
    // Token and line boundaries, signs, comment starts and NUL: the
    // bytes the tokenizers and number readers branch on.
    static constexpr char kBoundary[] = {'0', '9', ' ', '\t', '\n', '\r',
                                         '-', '+', '#', '\0', 'x', '\v'};
    std::string s = base;
    const std::uint64_t ops = 1 + rng.nextBelow(3);
    for (std::uint64_t k = 0; k < ops && !s.empty(); ++k) {
        const std::uint64_t op = rng.nextBelow(6);
        if (op == 0) {
            s[rng.nextBelow(s.size())] ^=
                static_cast<char>(1 + rng.nextBelow(255));
        } else if (op == 1) {
            s[rng.nextBelow(s.size())] =
                kBoundary[rng.nextBelow(sizeof kBoundary)];
        } else if (op == 2) {
            s.resize(rng.nextBelow(s.size() + 1));
        } else {
            std::vector<std::string> lines = splitLines(s);
            const std::size_t i = rng.nextBelow(lines.size());
            if (op == 3) {
                lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
            } else if (op == 4) {
                const std::string dup = lines[i];
                lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                             dup);
            } else {
                std::swap(lines[i], lines[rng.nextBelow(lines.size())]);
            }
            s = joinLines(lines);
        }
    }
    return s;
}

} // namespace taqos::mutants
