/// \file json_writer.h
/// Minimal streaming JSON emitter shared by the experiment-sweep engine
/// (src/exp/sweep.*) and the benchmark binaries' BENCH_*.json snapshots.
/// Output is pretty-printed with stable number formatting so identical
/// results serialize to identical bytes — the property the sweep engine's
/// parallel-vs-serial determinism test asserts on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace taqos {

class JsonWriter {
  public:
    JsonWriter() = default;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /// Emit a key inside an object; must be followed by a value or a
    /// begin*() call.
    JsonWriter &key(std::string_view k);

    JsonWriter &value(double v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(bool v);
    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }

    /// key + value in one call.
    template <typename T>
    JsonWriter &field(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }
    JsonWriter &beginObject(std::string_view k)
    {
        key(k);
        return beginObject();
    }
    JsonWriter &beginArray(std::string_view k)
    {
        key(k);
        return beginArray();
    }

    /// Finished document (all containers must be closed).
    const std::string &str() const { return out_; }

  private:
    void separate(); ///< comma/newline/indent before the next element
    void raw(std::string_view s) { out_.append(s); }

    std::string out_;
    /// One entry per open container: number of elements emitted so far.
    std::vector<int> counts_;
    bool pendingKey_ = false;
};

/// Write `content` to `path`. On failure (the file cannot be opened, or a
/// write or the closing flush fails, as on a full disk) prints one
/// `cannot write <path>` line to stderr and returns false.
bool writeTextFile(const std::string &path, const std::string &content);

} // namespace taqos
