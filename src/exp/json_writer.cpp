#include "exp/json_writer.h"

#include <cmath>
#include <cstdio>

#include "common/assert.h"
#include "common/strings.h"

namespace taqos {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strFormat("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    // Integers (the common case for counters and cycle values) print
    // exactly; everything else keeps 12 significant digits, enough to
    // round-trip every metric the simulator produces while staying free
    // of float noise like 0.060000000000000005.
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        return strFormat("%.0f", v);
    return strFormat("%.12g", v);
}

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
    raw(jsonEscape(k));
    raw("\": ");
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    raw(jsonNumber(v));
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    raw(strFormat("%lld", static_cast<long long>(v)));
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    raw(strFormat("%llu", static_cast<unsigned long long>(v)));
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
    raw(jsonEscape(v));
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
