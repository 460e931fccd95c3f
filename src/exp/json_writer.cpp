#include "exp/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/assert.h"

namespace taqos {
namespace {

/// Room for the longest number the writer prints: a 20-digit integer
/// and its sign, or a 12-digit mantissa, its sign, point and exponent.
constexpr std::size_t kMaxNumber = 32;

/// Append `std::to_chars(..., format...)` to `out`.
template <typename... Format>
void
appendChars(std::string &out, Format... format)
{
    char buf[kMaxNumber];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, format...);
    TAQOS_ASSERT(ec == std::errc{}, "number does not fit the buffer");
    out.append(buf, end);
}

/// `v` as printf prints it: integers below 1e15 as %.0f, everything else
/// as %.12g, which to_chars' fixed and general forms match byte for
/// byte; non-finite values become null.
void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // Integers (the common case for counters and cycle values) print
    // exactly; everything else keeps 12 significant digits, enough to
    // round-trip every metric the simulator produces while staying free
    // of float noise like 0.060000000000000005.
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        appendChars(out, v, std::chars_format::fixed, 0);
    else
        appendChars(out, v, std::chars_format::general, 12);
}

/// `s` escaped for inclusion inside JSON double quotes: quote, backslash,
/// \n, \r and \t by name, every other control byte as \u00xx, and every
/// other byte (0x7f and above included) as itself.
void
appendEscaped(std::string &out, std::string_view s)
{
    std::size_t plain = 0; // start of the run not yet appended
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.substr(plain, i - plain));
        plain = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
            out.append(u, sizeof u);
          }
        }
    }
    out.append(s.substr(plain));
}

} // namespace

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (counts_.empty())
        return;
    if (counts_.back() > 0)
        raw(",");
    raw("\n");
    out_.append(2 * counts_.size(), ' ');
    ++counts_.back();
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    raw("{");
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    TAQOS_ASSERT(!counts_.empty(), "endObject with no open container");
    const int n = counts_.back();
    counts_.pop_back();
    if (n > 0) {
        raw("\n");
        out_.append(2 * counts_.size(), ' ');
    }
    raw("}");
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    raw("[");
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    TAQOS_ASSERT(!counts_.empty(), "endArray with no open container");
    const int n = counts_.back();
    counts_.pop_back();
    if (n > 0) {
        raw("\n");
        out_.append(2 * counts_.size(), ' ');
    }
    raw("]");
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    TAQOS_ASSERT(!pendingKey_, "key() twice without a value");
    separate();
    raw("\"");
    appendEscaped(out_, k);
    raw("\": ");
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    appendNumber(out_, v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    appendChars(out_, v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    appendChars(out_, v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    raw(v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separate();
    raw("\"");
    appendEscaped(out_, v);
    raw("\"");
    return *this;
}

bool
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) {
        ok = std::fwrite(content.data(), 1, content.size(), f) ==
             content.size();
        // Buffered bytes reach the file only at the closing flush, so a
        // full disk often fails there.
        ok = std::fclose(f) == 0 && ok;
    }
    if (!ok)
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

} // namespace taqos
