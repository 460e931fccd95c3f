/// \file activity.h
/// Activity tracking shared by the routers, the ejection buffers and the
/// simulation engine, kept so each per-cycle loop visits only what has
/// work, in the order of the full loop it replaces:
///   - the router worklist, one bit per node in node order, which both
///     router phases walk by set bits;
///   - the ejection due list of terminal and handoff VCs, keyed by the
///     cycle each packet's tail arrives.
/// Routers also keep per-output bit words of their own (router.h), walked
/// with forEachBit.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace taqos {

/// The bit of index `i` within its 64-bit word (word i / 64).
inline std::uint64_t
bitOf(int i)
{
    return std::uint64_t{1} << (static_cast<unsigned>(i) & 63u);
}

/// Call f(i) for every set bit i of `words` (bit i is bit i % 64 of word
/// i / 64), in ascending order. Each word is read once, before its bits
/// are visited, so f may clear the bit it is given.
template <class F>
void
forEachBit(const std::uint64_t *words, int count, F &&f)
{
    for (int w = 0; w < count; ++w) {
        for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
            f(w * 64 + std::countr_zero(bits));
    }
}

/// The routers the activity engine ticks. A router arms itself into the
/// pending set when an event gives it work (a flit arrival, an injector
/// enqueue, a transfer start), at most once until it leaves. The engine
/// folds the pending set into the active set once per cycle, before the
/// router phases, so a router armed during them joins the next cycle;
/// both phases walk the active set in node order, and the sweep drops
/// the routers whose work has drained.
class ActivityWorklist {
  public:
    /// Size for node ids 0..nodes-1, with no router in either set.
    void reset(int nodes)
    {
        const auto words = static_cast<std::size_t>((nodes + 63) / 64);
        active_.assign(words, 0);
        pending_.assign(words, 0);
    }

    void arm(NodeId n) { pending_[word(n)] |= bitOf(n); }

    /// Fold the routers armed since the last call into the active set.
    void merge()
    {
        for (std::size_t w = 0; w < active_.size(); ++w) {
            active_[w] |= pending_[w];
            pending_[w] = 0;
        }
    }

    /// f(n) for every active router n, in node order.
    template <class F>
    void forEachActive(F &&f) const
    {
        forEachBit(active_.data(), static_cast<int>(active_.size()), f);
    }

    /// Drop every active router for which `idle(n)` holds.
    template <class F>
    void sweep(F &&idle)
    {
        for (std::size_t w = 0; w < active_.size(); ++w) {
            std::uint64_t drop = 0;
            for (std::uint64_t bits = active_[w]; bits != 0;
                 bits &= bits - 1) {
                const int n =
                    static_cast<int>(w) * 64 + std::countr_zero(bits);
                if (idle(n))
                    drop |= bitOf(n);
            }
            active_[w] &= ~drop;
        }
    }

    /// Empty both sets (checkpoint restore re-arms from the state).
    void clear()
    {
        std::fill(active_.begin(), active_.end(), 0);
        std::fill(pending_.begin(), pending_.end(), 0);
    }

  private:
    static std::size_t word(NodeId n)
    {
        return static_cast<std::size_t>(n) / 64;
    }

    std::vector<std::uint64_t> active_;
    std::vector<std::uint64_t> pending_;
};

/// Terminal and handoff VCs keyed by the cycle their packet's tail
/// arrives. A VC arms an entry when it is reserved; the engine's ejection
/// phase takes the entries due each cycle in (port, VC) order, which is
/// the order of the full scan over the buffers it replaces. A packet
/// killed in the buffer leaves its entry behind, stale, and the engine
/// skips it when it comes due.
class EjectionDueList {
  public:
    struct Entry {
        Cycle due = 0;
        int port = 0; ///< terminals by node, then aux ports
        int vc = 0;

        bool operator<(const Entry &o) const
        {
            if (due != o.due)
                return due < o.due;
            if (port != o.port)
                return port < o.port;
            return vc < o.vc;
        }
    };

    void arm(Cycle due, int port, int vc)
    {
        heap_.push_back(Entry{due, port, vc});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /// Take the earliest entry due at or before `now` into `e`; false
    /// when none is due.
    bool popDue(Cycle now, Entry &e)
    {
        if (heap_.empty() || heap_.front().due > now)
            return false;
        std::pop_heap(heap_.begin(), heap_.end(), later);
        e = heap_.back();
        heap_.pop_back();
        return true;
    }

    void clear() { heap_.clear(); }

    /// Every armed entry, in no particular order (invariant checks).
    const std::vector<Entry> &entries() const { return heap_; }

  private:
    static bool later(const Entry &a, const Entry &b) { return b < a; }

    std::vector<Entry> heap_; ///< min-heap on (due, port, vc)
};

} // namespace taqos
