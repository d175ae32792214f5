// Bump-allocated scratch arena for the compute-kernel layer.
//
// Hot loops (LSTM timesteps, conv rows, spectrum scans) used to allocate
// fresh Tensors/vectors on every call; the Workspace gives them reusable
// memory with three guarantees the kernels rely on:
//   - pointers returned by alloc() stay valid until the next reset() —
//     growth appends new blocks, existing blocks never move;
//   - reset() keeps the blocks, so a steady-state loop performs no heap
//     traffic at all after its first iteration; and
//   - every returned pointer is 64-byte aligned (cache-line / AVX-512
//     width), so the fast kernel backend can use aligned vector loads.
//     Requests are rounded up to 64-byte multiples internally to keep the
//     bump pointer aligned; floats_reserved() reports the rounded sizes.
//
// A Workspace is single-owner state (one per layer instance); it is NOT
// thread-safe and must not be shared across replicas.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace m2ai::kern {

class Workspace {
 public:
  // Uninitialized scratch of `n` floats (callers overwrite every element).
  float* alloc(std::size_t n);
  // Zero-initialized scratch (for accumulators).
  float* alloc_zero(std::size_t n);

  // Invalidate every pointer handed out since the last reset, keeping the
  // underlying blocks for reuse.
  void reset();

  // Total capacity across blocks (telemetry / tests).
  std::size_t floats_reserved() const;

 private:
  struct Block {
    std::unique_ptr<float[]> raw;  // owns base + alignment slack
    float* base = nullptr;         // first 64-byte-aligned float in raw
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  // first block with free room
};

}  // namespace m2ai::kern
