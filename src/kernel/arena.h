// Bump arena for SoA scratch rows.
//
// The combine and Stockmeyer loops materialize short-lived rows (widths,
// heights) millions of times per run; heap round-trips for each row would
// dominate the row helpers themselves. An Arena hands out pointer-bumped,
// 64-byte-aligned storage from geometrically grown chunks, and a scope
// mark rewinds it in O(live chunks) without running destructors.
//
// Lifetime rules (docs/ALGORITHMS.md §11):
//  * only trivially destructible element types — rewinding never destroys;
//  * an allocation is valid until the enclosing ArenaScope unwinds; never
//    store arena pointers in a structure that outlives the scope;
//  * arenas are single-threaded. scratch_arena() is thread-local, so each
//    pool worker bumps its own arena and parallel loops need no locks;
//  * chunks are retained on rewind, so steady-state row code performs
//    zero heap allocations.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace fpopt::kernel {

class Arena {
 public:
  /// Alignment of every allocation: one cache line.
  static constexpr std::size_t kAlign = 64;

  explicit Arena(std::size_t initial_bytes = 1u << 16);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Rewind token: position in the chunk list at mark() time.
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] Mark mark() const { return {active_, chunks_[active_].used}; }

  /// Releases everything allocated after `m` (storage is retained for
  /// reuse). Marks must unwind in LIFO order — ArenaScope enforces this.
  void rewind(Mark m);

  /// Raw aligned storage; grows the chunk list when the active chunk is
  /// exhausted (amortized O(1), geometric chunk sizes).
  [[nodiscard]] void* allocate(std::size_t bytes);

  /// Typed row of `n` elements, uninitialized.
  template <typename T>
  [[nodiscard]] T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is rewound without destructor calls");
    return static_cast<T*>(allocate(n * sizeof(T)));
  }

  /// Bytes currently handed out (diagnostics / tests).
  [[nodiscard]] std::size_t used() const;

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void push_chunk(std::size_t at_least);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;
};

/// The calling thread's scratch arena (thread-local, lazily constructed).
[[nodiscard]] Arena& scratch_arena();

/// RAII rewind: everything allocated through (or after) the scope dies
/// when it unwinds.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  template <typename T>
  [[nodiscard]] T* alloc_array(std::size_t n) {
    return arena_.alloc_array<T>(n);
  }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace fpopt::kernel
