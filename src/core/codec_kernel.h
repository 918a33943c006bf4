// The batched-evaluation kernel layer: chunk geometry and word-parallel
// transition accounting over blocks of encoded bus states.
//
// The per-word path pays one virtual Encode plus one TransitionCounter
// observation per access; the batched path produced here encodes a whole
// chunk through Codec::EncodeBatch (one virtual dispatch per chunk, with
// SIMD kernels for the high-traffic codes) and then counts the chunk's
// transitions in a tight XOR+popcount sweep over contiguous BusStates.
// Both paths are bit-identical by contract — see EvaluateBatched
// (core/stream_evaluator.h), the `batched-identity` universal verify
// property and docs/ARCHITECTURE.md "The batched hot path".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.h"

namespace abenc {

/// Chunk length EvaluateBatched uses when the caller does not pick one:
/// big enough to amortize the per-chunk virtual dispatch and metrics
/// bookkeeping to noise, small enough that one in-flight chunk (accesses
/// plus encoded states) stays comfortably inside L2 per worker.
inline constexpr std::size_t kDefaultChunkSize = 4096;

/// Transition accounting over blocks of consecutive bus states,
/// bit-identical to feeding the same states one by one through
/// TransitionCounter (total, peak and per-line histogram all match; the
/// lockstep is enforced by tests/stream_evaluator_test and the
/// `batched-identity` verify property).
///
/// The accumulator carries the previous block's last state across
/// Consume() calls, starting from the all-lines-low power-on state, so
/// chunk boundaries never alter the count.
class BlockTransitionAccumulator {
 public:
  BlockTransitionAccumulator(unsigned width, unsigned redundant_lines)
      : data_mask_(LowMask(width)),
        redundant_mask_(redundant_lines == 0 ? 0 : LowMask(redundant_lines)),
        width_(width),
        per_line_(width + redundant_lines, 0) {}

  /// Account one encoded chunk, in stream order.
  void Consume(std::span<const BusState> block);

  /// Return to the power-on state: all lines low, nothing counted.
  void Reset() {
    prev_ = BusState{};
    total_ = 0;
    peak_ = 0;
    cycles_ = 0;
    per_line_.assign(per_line_.size(), 0);
  }

  long long total() const { return total_; }
  int peak() const { return peak_; }
  std::size_t cycles() const { return cycles_; }
  const std::vector<long long>& per_line() const { return per_line_; }

 private:
  Word data_mask_;
  Word redundant_mask_;
  unsigned width_;
  BusState prev_;  // power-on state: all lines low
  long long total_ = 0;
  int peak_ = 0;
  std::size_t cycles_ = 0;
  std::vector<long long> per_line_;
};

}  // namespace abenc
