/// \file trace.h
/// The benchmark's own tracing: spans around every call into a library
/// layer, kept in memory and written with the result, and a log-bucketed
/// histogram for per-step times (too many to keep as spans).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace taqos::bench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span {
    std::string name;
    int parent = -1; ///< index into the span list; -1 for the root
    double startUs = 0.0;
    double endUs = 0.0;
};

/// Nested spans. Disabled recorders (untraced runs) record nothing.
class SpanRecorder {
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int open(std::string name)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({std::move(name), stack_.empty() ? -1 : stack_.back(),
                          nowUs(), 0.0});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].endUs = nowUs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// RAII span: open on construction, close on scope exit.
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder &rec, std::string name)
        : rec_(rec), id_(rec.open(std::move(name)))
    {
    }
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

/// Histogram with 64 logarithmic buckets per octave (~1.1% resolution).
class LogHistogram {
  public:
    void add(double v)
    {
        const double x = std::max(v, 1.0);
        auto b = static_cast<std::size_t>(std::log2(x) * kPerOctave);
        b = std::min(b, counts_.size() - 1);
        ++counts_[b];
        ++n_;
    }

    std::uint64_t count() const { return n_; }

    /// Value at quantile q (bucket geometric midpoint); 0 when empty.
    double quantile(double q) const
    {
        if (n_ == 0)
            return 0.0;
        const auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(n_)));
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < counts_.size(); ++b) {
            seen += counts_[b];
            if (seen >= std::max<std::uint64_t>(rank, 1))
                return std::exp2((static_cast<double>(b) + 0.5) / kPerOctave);
        }
        return 0.0;
    }

  private:
    static constexpr double kPerOctave = 64.0;
    std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(64 * 40);
    std::uint64_t n_ = 0;
};

} // namespace taqos::bench
