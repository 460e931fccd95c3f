/// \file arena.h
/// Bump-pointer arena and the arena-backed flat vector used to pack the
/// simulation's hot state (VC buffers, arbitration slot lists, per-router
/// and per-port counters) into contiguous memory owned by the Network.
///
/// The tick loop's working set is dominated by small per-router arrays
/// that the builders historically left wherever the heap put them; the
/// arena pass relocates them once, at Network::finalizeRouters time, into
/// a handful of large chunks laid out in node order — the order the
/// engine walks its active routers. Behaviour is
/// bit-identical to leaving them in place: relocation copies state
/// verbatim and every cross-reference into these arrays is index-based
/// (VcRef, slot keys). What the packed layout buys depends on the
/// workload: README "Hot-state access rule" has the measurements.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace taqos {

/// Chunked bump allocator. Never frees individual allocations — storage
/// lives until the arena dies with its Network — so it only hands out
/// trivially-destructible types.
class BumpArena {
  public:
    BumpArena() = default;
    BumpArena(const BumpArena &) = delete;
    BumpArena &operator=(const BumpArena &) = delete;

    void *allocateBytes(std::size_t bytes, std::size_t align)
    {
        if (chunks_.empty() || !fits(chunks_.back(), bytes, align))
            addChunk(bytes + align);
        Chunk &c = chunks_.back();
        const std::size_t at = alignUp(c.used, align);
        c.used = at + bytes;
        total_ += bytes;
        return c.mem.get() + at;
    }

    template <typename T>
    T *allocate(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena storage is never destroyed element-wise");
        if (n == 0)
            return nullptr;
        return static_cast<T *>(allocateBytes(n * sizeof(T), alignof(T)));
    }

    /// Total payload bytes handed out (diagnostics).
    std::size_t bytesAllocated() const { return total_; }

  private:
    struct Chunk {
        std::unique_ptr<std::byte[]> mem;
        std::size_t used = 0;
        std::size_t cap = 0;
    };

    static std::size_t alignUp(std::size_t n, std::size_t align)
    {
        return (n + align - 1) & ~(align - 1);
    }

    static bool fits(const Chunk &c, std::size_t bytes, std::size_t align)
    {
        return alignUp(c.used, align) + bytes <= c.cap;
    }

    void addChunk(std::size_t atLeast)
    {
        const std::size_t cap = atLeast > kChunkBytes ? atLeast : kChunkBytes;
        Chunk c;
        // Not zero-filled: bindHot and ArenaVec write every byte before
        // it is read, so only the pages a network packs become resident.
        c.mem = std::make_unique_for_overwrite<std::byte[]>(cap);
        c.cap = cap;
        chunks_.push_back(std::move(c));
    }

    static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

    std::vector<Chunk> chunks_;
    std::size_t total_ = 0;
};

/// Minimal vector of trivially-copyable elements whose storage can be
/// re-homed into a BumpArena (rebind()). Starts heap-backed so standalone
/// fixtures (unit-test ports, routers built outside a Network) need no
/// arena; after rebind, growth allocates fresh arena spans (the doubled
/// old span is abandoned in place, bounding waste at ~2x the final size).
/// The API is the subset of std::vector the port/router code uses;
/// iterators are raw pointers.
template <typename T>
class ArenaVec {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ArenaVec relocates with memcpy and never destroys");

  public:
    using iterator = T *;
    using const_iterator = const T *;

    ArenaVec() = default;
    ArenaVec(const ArenaVec &other) { *this = other; }
    ArenaVec &operator=(const ArenaVec &other)
    {
        if (this == &other)
            return *this;
        size_ = 0;
        reserve(other.size_);
        if (other.size_ > 0)
            std::memcpy(data_, other.data_, other.size_ * sizeof(T));
        size_ = other.size_;
        return *this;
    }
    ArenaVec(ArenaVec &&other) noexcept { steal(other); }
    ArenaVec &operator=(ArenaVec &&other) noexcept
    {
        if (this != &other) {
            releaseHeap();
            steal(other);
        }
        return *this;
    }
    ~ArenaVec() { releaseHeap(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    T *data() { return data_; }
    const T *data() const { return data_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    iterator begin() { return data_; }
    iterator end() { return data_ + size_; }
    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }
    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }

    void clear() { size_ = 0; }

    void reserve(std::size_t cap)
    {
        if (cap > cap_)
            grow(cap);
    }

    /// Grow with value-initialized elements / shrink by dropping the tail.
    void resize(std::size_t n)
    {
        reserve(n);
        for (std::size_t i = size_; i < n; ++i)
            new (data_ + i) T();
        size_ = n;
    }

    void push_back(const T &v)
    {
        if (size_ == cap_)
            grow(cap_ < 4 ? 4 : cap_ * 2);
        new (data_ + size_) T(v);
        ++size_;
    }

    T &emplace_back()
    {
        if (size_ == cap_)
            grow(cap_ < 4 ? 4 : cap_ * 2);
        new (data_ + size_) T();
        return data_[size_++];
    }

    void insert(iterator pos, const T &v)
    {
        const std::size_t at = static_cast<std::size_t>(pos - data_);
        if (size_ == cap_)
            grow(cap_ < 4 ? 4 : cap_ * 2);
        if (at < size_) {
            std::memmove(data_ + at + 1, data_ + at,
                         (size_ - at) * sizeof(T));
        }
        new (data_ + at) T(v);
        ++size_;
    }

    void erase(iterator pos)
    {
        const std::size_t at = static_cast<std::size_t>(pos - data_);
        if (at + 1 < size_) {
            std::memmove(data_ + at, data_ + at + 1,
                         (size_ - at - 1) * sizeof(T));
        }
        --size_;
    }

    /// Re-home the current contents into `arena` and allocate all future
    /// growth from it. Indices, and therefore every index-based reference
    /// into this vector, are preserved.
    void rebind(BumpArena *arena)
    {
        arena_ = arena;
        T *p = arena_->allocate<T>(size_);
        if (size_ > 0)
            std::memcpy(p, data_, size_ * sizeof(T));
        releaseHeap();
        data_ = p;
        cap_ = size_;
    }

  private:
    void grow(std::size_t cap)
    {
        T *p;
        if (arena_ != nullptr) {
            p = arena_->allocate<T>(cap);
        } else {
            p = static_cast<T *>(::operator new(cap * sizeof(T)));
        }
        if (size_ > 0)
            std::memcpy(p, data_, size_ * sizeof(T));
        releaseHeap();
        data_ = p;
        cap_ = cap;
        ownsHeap_ = arena_ == nullptr;
    }

    void releaseHeap()
    {
        if (ownsHeap_ && data_ != nullptr)
            ::operator delete(data_);
        ownsHeap_ = false;
    }

    void steal(ArenaVec &other)
    {
        data_ = other.data_;
        size_ = other.size_;
        cap_ = other.cap_;
        arena_ = other.arena_;
        ownsHeap_ = other.ownsHeap_;
        other.data_ = nullptr;
        other.size_ = other.cap_ = 0;
        other.ownsHeap_ = false;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
    BumpArena *arena_ = nullptr;
    bool ownsHeap_ = false;
};

} // namespace taqos
