// Small-buffer-optimized, non-allocating callback for the event loop.
//
// Every scheduled event used to heap-allocate a `std::function` —
// paper-scale runs spend millions of events, so the closure allocation
// dominated the hot path. `SmallFn` stores captures up to
// `kInlineCapacity` bytes inline (sized for the closures the simulator
// actually schedules: network deliveries, service completions, the
// arrival pump). Larger captures fall back to fixed-size blocks drawn
// from a per-thread freelist pool, so steady-state scheduling performs
// no heap allocation once the pool is warm; only captures beyond
// `kPooledBlockSize` hit the global allocator.
//
// Per-thread pooling keeps the multi-seed runner (`run_seeds`, one
// simulation per thread) lock-free and bit-deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace brb::sim {

/// Allocation counters for the pooled fallback path, exposed so tests
/// can pin the no-steady-state-allocation property. Thread-local: each
/// simulation thread owns an independent pool.
struct SmallFnPoolStats {
  std::uint64_t pooled_constructs = 0;  // callbacks that needed a block
  std::uint64_t pool_hits = 0;          // blocks reused from the freelist
  std::uint64_t pool_misses = 0;        // blocks newly heap-allocated
  std::uint64_t oversize_constructs = 0;  // captures beyond the block size
};

class SmallFn {
 public:
  /// Inline capture capacity. Covers the largest hot-path closure
  /// (server completion: a by-value `QueuedRead` + durations ≈ 80 B).
  static constexpr std::size_t kInlineCapacity = 96;
  /// Pooled-block payload size for the fallback path.
  static constexpr std::size_t kPooledBlockSize = 256;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor): callable sink
    emplace(std::forward<F>(fn));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { invoke_(*this); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// True when the capture lives in the inline buffer (test hook).
  bool is_inline() const noexcept {
    return invoke_ != nullptr && storage_kind_ == Storage::kInline;
  }

  /// True when the capture moves/destroys without a manager call —
  /// trivially-copyable inline captures, the event loop's hot closures
  /// (test hook).
  bool is_trivial() const noexcept { return invoke_ != nullptr && manage_ == nullptr; }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, *this, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// Replaces the target, constructing it in place — lets owners of a
  /// stable SmallFn (event-queue slots) skip the extra move a
  /// pass-by-value SmallFn parameter would cost.
  template <typename F>
  void assign(F&& fn) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, SmallFn>) {
      move_from(fn);
    } else {
      emplace(std::forward<F>(fn));
    }
  }

  /// This thread's pool counters (test hook).
  static const SmallFnPoolStats& pool_stats() noexcept { return pool().stats; }

  /// Releases every cached block on this thread (test hook; the pool
  /// otherwise holds blocks until thread exit).
  static void trim_pool() noexcept { pool().trim(); }

 private:
  enum class Op : std::uint8_t { kDestroy, kMove };
  enum class Storage : std::uint8_t { kInline, kPooled, kHeap };

  /// Per-thread freelist of fixed-size fallback blocks.
  struct Pool {
    std::vector<void*> free_blocks;
    SmallFnPoolStats stats;

    void* acquire() {
      ++stats.pooled_constructs;
      if (!free_blocks.empty()) {
        ++stats.pool_hits;
        void* block = free_blocks.back();
        free_blocks.pop_back();
        return block;
      }
      ++stats.pool_misses;
      return ::operator new(kPooledBlockSize, std::align_val_t{alignof(std::max_align_t)});
    }

    void release(void* block) noexcept { free_blocks.push_back(block); }

    void trim() noexcept {
      for (void* block : free_blocks) {
        ::operator delete(block, std::align_val_t{alignof(std::max_align_t)});
      }
      free_blocks.clear();
    }

    ~Pool() { trim(); }
  };

  static Pool& pool() noexcept {
    // brblint:allow(BRB-D02): allocation cache only — every node is fully constructed before any read
    thread_local Pool instance;
    return instance;
  }

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    void* where = nullptr;
    if constexpr (sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>) {
      // Trivial inline fast path: no manager function at all. Moves
      // byte-copy the buffer and destruction is a no-op, which keeps
      // the event queue's pop/release cycle free of indirect calls —
      // the simulator's hot closures (deliveries, completions) capture
      // only ids, times, and raw pointers, so they all land here.
      storage_kind_ = Storage::kInline;
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(fn));
      invoke_ = [](SmallFn& self) { (*static_cast<Fn*>(self.target()))(); };
      manage_ = nullptr;
      return;
    } else if constexpr (sizeof(Fn) <= kInlineCapacity &&
                         alignof(Fn) <= alignof(std::max_align_t)) {
      storage_kind_ = Storage::kInline;
      where = inline_;
    } else if constexpr (sizeof(Fn) <= kPooledBlockSize &&
                         alignof(Fn) <= alignof(std::max_align_t)) {
      storage_kind_ = Storage::kPooled;
      heap_ = pool().acquire();
      where = heap_;
    } else {
      storage_kind_ = Storage::kHeap;
      ++pool().stats.oversize_constructs;
      heap_ = ::operator new(sizeof(Fn), std::align_val_t{alignof(Fn)});
      where = heap_;
    }
    ::new (where) Fn(std::forward<F>(fn));
    invoke_ = [](SmallFn& self) { (*static_cast<Fn*>(self.target()))(); };
    manage_ = [](Op op, SmallFn& self, SmallFn* to) {
      Fn* fn_ptr = static_cast<Fn*>(self.target());
      switch (op) {
        case Op::kMove:
          // Out-of-line storage transfers by pointer; inline storage
          // move-constructs into the destination buffer.
          to->storage_kind_ = self.storage_kind_;
          if (self.storage_kind_ == Storage::kInline) {
            ::new (static_cast<void*>(to->inline_)) Fn(std::move(*fn_ptr));
            fn_ptr->~Fn();
          } else {
            to->heap_ = self.heap_;
          }
          return;
        case Op::kDestroy:
          fn_ptr->~Fn();
          if (self.storage_kind_ == Storage::kPooled) {
            pool().release(self.heap_);
          } else if (self.storage_kind_ == Storage::kHeap) {
            ::operator delete(self.heap_, std::align_val_t{alignof(Fn)});
          }
          return;
      }
    };
  }

  void* target() noexcept { return storage_kind_ == Storage::kInline ? inline_ : heap_; }

  void move_from(SmallFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (other.manage_ != nullptr) {
      other.manage_(Op::kMove, other, this);
    } else if (other.invoke_ != nullptr) {
      // Trivial inline capture: a fixed-size byte copy beats a managed
      // member-wise move (straight-line, no indirect call). Copying the
      // full buffer over-reads past sizeof(Fn) but never past the
      // union, and the source needs no teardown.
      storage_kind_ = Storage::kInline;
      __builtin_memcpy(inline_, other.inline_, kInlineCapacity);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  using InvokeFn = void (*)(SmallFn&);
  using ManageFn = void (*)(Op, SmallFn&, SmallFn*);

  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  Storage storage_kind_ = Storage::kInline;
  union {
    alignas(std::max_align_t) unsigned char inline_[kInlineCapacity];
    void* heap_;
  };
};

}  // namespace brb::sim
