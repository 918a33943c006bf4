// Identity gates shared by the workloads and the layer probes: an
// outcome counts only if it equals the serial oracle's accounting.
#pragma once

#include "core/stream_evaluator.h"

namespace perfbench {

/// `got` is an EvalResult or a wire StatsReply (same field names).
template <class Accounting>
bool SameResult(const Accounting& got, const abenc::EvalResult& want) {
  return got.stream_length == want.stream_length &&
         got.transitions == want.transitions &&
         got.peak_transitions == want.peak_transitions &&
         got.in_sequence_percent == want.in_sequence_percent &&
         got.per_line == want.per_line;
}

}  // namespace perfbench
