// Per-thread scratch arena: a bump allocator for kernel temporaries
// (padded images, im2row buffers, GEMM packing panels, sparse index lists).
//
// The old kernels carried `std::vector<float>& scratch` parameters that were
// re-`resize`d on every call; every layer owned its own buffer and the
// batch-parallel paths duplicated them per thread ad hoc. The arena replaces
// all of that: each thread has one lazily-grown arena, allocations are bump
// pointers into stable chunks (growing never moves live allocations), and an
// ArenaScope restores the watermark on exit so nested kernels (a GEMM packing
// panels inside a conv that already allocated its im2row buffer) compose
// without freeing or re-touching memory. Steady-state kernel calls perform
// zero heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ullsnn {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `count` floats, 64-byte aligned. The pointer
  /// stays valid (and is never moved by later allocations) until the
  /// enclosing ArenaScope exits or reset() is called.
  float* alloc_floats(std::size_t count);

  /// Uninitialized storage for `count` int64 indices, 64-byte aligned.
  std::int64_t* alloc_indices(std::size_t count);

  /// Zero-filled float storage (memset on the uninitialized block).
  float* alloc_floats_zeroed(std::size_t count);

  /// Uninitialized byte storage for the int8 kernel path (quantized activation
  /// panels and int32 accumulator scratch), 64-byte aligned like the rest.
  std::uint8_t* alloc_u8(std::size_t count);
  std::int8_t* alloc_i8(std::size_t count);
  std::int32_t* alloc_i32(std::size_t count);

  /// Release every allocation but keep the chunks for reuse.
  void reset();

  /// Total bytes currently reserved across chunks (capacity, not usage).
  std::size_t capacity_bytes() const;

  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };
  Mark mark() const;
  /// Roll back to a previous mark(); allocations made since are invalidated.
  void release(Mark m);

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::byte* alloc_bytes(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  // chunk currently being bumped
};

/// The calling thread's arena (thread_local, created on first use). Worker
/// threads in the ThreadPool each get their own, so batch-parallel kernels
/// need no scratch coordination.
Arena& thread_arena();

/// RAII watermark: restores the arena to its entry state on destruction.
/// Every kernel that uses the thread arena opens one of these, making
/// allocations effectively stack-like across nested kernel calls.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_.release(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace ullsnn
