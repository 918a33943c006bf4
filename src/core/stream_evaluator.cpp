#include "core/stream_evaluator.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/codec_factory.h"
#include "core/codec_kernel.h"
#include "core/simd/kernel_dispatch.h"
#include "core/trace_source.h"
#include "obs/metrics.h"

namespace abenc {
namespace {

// One message format for both evaluation paths, so switching paths can
// never change what a failing run prints.
[[noreturn]] void ThrowDecodeMismatch(const Codec& codec, Word decoded,
                                      Word expected) {
  std::ostringstream msg;
  msg << codec.name() << ": decode mismatch, got 0x" << std::hex << decoded
      << " expected 0x" << expected;
  throw std::logic_error(msg.str());
}

}  // namespace

double SavingsPercent(long long transitions, long long binary_transitions) {
  if (binary_transitions == 0) {
    // No reference transitions: 0-vs-0 is parity; anything else has no
    // meaningful percentage (the codec is strictly worse than a bus
    // that never switched) and is signalled as NaN, rendered "n/a".
    return transitions == 0 ? 0.0
                            : std::numeric_limits<double>::quiet_NaN();
  }
  return 100.0 *
         (static_cast<double>(binary_transitions - transitions) /
          static_cast<double>(binary_transitions));
}

double InSequencePercent(std::span<const BusAccess> stream, Word stride,
                         unsigned width) {
  if (stream.size() < 2) return 0.0;
  std::size_t in_seq = 0;
  for (std::size_t i = 1; i < stream.size(); ++i) {
    const Word expected = (stream[i - 1].address + stride) & LowMask(width);
    if ((stream[i].address & LowMask(width)) == expected) ++in_seq;
  }
  return 100.0 * static_cast<double>(in_seq) /
         static_cast<double>(stream.size() - 1);
}

void AddSegment(EvalResult& total, long long transitions, int peak,
                std::span<const long long> per_line) {
  total.transitions += transitions;
  total.peak_transitions = std::max(total.peak_transitions, peak);
  if (per_line.size() > total.per_line.size()) {
    total.per_line.resize(per_line.size(), 0);
  }
  for (std::size_t line = 0; line < per_line.size(); ++line) {
    total.per_line[line] += per_line[line];
  }
}

EvalResult Evaluate(Codec& codec, std::span<const BusAccess> stream,
                    Word stride_for_stats, bool verify_decode) {
  return EvaluateWithResets(codec, stream, {}, stride_for_stats,
                            verify_decode);
}

EvalResult EvaluateWithResets(Codec& codec, std::span<const BusAccess> stream,
                              std::span<const std::size_t> reset_points,
                              Word stride_for_stats, bool verify_decode) {
  codec.Reset();
  TransitionCounter counter(codec.width(), codec.redundant_lines());
  EvalResult result;
  result.codec_name = codec.name();
  result.stream_length = stream.size();
  auto fold_segment = [&]() {
    AddSegment(result, counter.total(), counter.peak(), counter.per_line());
  };

  std::size_t next_reset = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    while (next_reset < reset_points.size() &&
           reset_points[next_reset] <= i) {
      if (reset_points[next_reset] == i && i != 0) {
        fold_segment();
        codec.Reset();
        counter.Reset();
      }
      ++next_reset;
    }
    const BusState state = codec.Encode(stream[i].address, stream[i].sel);
    counter.Observe(state);
    if (verify_decode) {
      const Word decoded = codec.Decode(state, stream[i].sel);
      const Word expected = stream[i].address & LowMask(codec.width());
      if (decoded != expected) ThrowDecodeMismatch(codec, decoded, expected);
    }
  }
  fold_segment();
  result.in_sequence_percent =
      InSequencePercent(stream, stride_for_stats, codec.width());
  return result;
}

EvalResult EvaluateWithSchedule(const std::string& initial_codec,
                                const CodecOptions& options,
                                std::span<const BusAccess> stream,
                                std::span<const CodecSwitchPoint> switches,
                                std::span<const std::size_t> reset_points,
                                Word stride_for_stats, bool verify_decode) {
  for (std::size_t i = 1; i < switches.size(); ++i) {
    if (switches[i].index < switches[i - 1].index) {
      throw std::invalid_argument(
          "EvaluateWithSchedule: switch schedule not ascending");
    }
  }
  EvalResult result;
  result.stream_length = stream.size();
  std::string active = initial_codec;
  std::size_t start = 0;
  std::size_t next_switch = 0;
  while (true) {
    const bool last = next_switch >= switches.size();
    const std::size_t end =
        last ? stream.size()
             : std::min(switches[next_switch].index, stream.size());
    // Every segment runs — an empty one still contributes its codec's
    // line geometry, matching a session whose switch applied with no
    // traffic after it (the per-line histogram zero-extends either way).
    CodecPtr codec = MakeCodec(active, options);
    std::vector<std::size_t> local;
    for (const std::size_t point : reset_points) {
      if (point > start && point < end) local.push_back(point - start);
    }
    const EvalResult segment =
        EvaluateWithResets(*codec, stream.subspan(start, end - start), local,
                           stride_for_stats, verify_decode);
    AddSegment(result, segment.transitions, segment.peak_transitions,
               segment.per_line);
    if (last) break;
    active = switches[next_switch].codec_name;
    start = end;
    ++next_switch;
  }
  result.codec_name = active;
  result.in_sequence_percent =
      InSequencePercent(stream, stride_for_stats, options.width);
  return result;
}

EvalResult EvaluateBatched(Codec& codec, const TraceSource& source,
                           Word stride_for_stats, bool verify_decode,
                           std::size_t chunk_size) {
  if (chunk_size == 0) chunk_size = kDefaultChunkSize;
  codec.Reset();
  const unsigned width = codec.width();
  const Word mask = LowMask(width);
  const std::size_t length = source.size();

  obs::MetricsRegistry* registry = obs::Installed();
  const double start = registry ? obs::MonotonicSeconds() : 0.0;

  BlockTransitionAccumulator accumulator(width, codec.redundant_lines());
  const std::size_t chunk =
      std::min<std::size_t>(chunk_size, std::max<std::size_t>(length, 1));
  std::vector<BusAccess> in;  // allocated only if a chunk needs copying
  std::vector<BusState> out(chunk);
  const simd::KernelTable& kernels = simd::ActiveKernels();

  // In-sequence accounting carried across chunk boundaries: the exact
  // predicate of InSequencePercent, with b(t-1) kept unmasked like the
  // stream entries it reads.
  std::size_t in_seq = 0;
  Word prev_address = 0;
  bool has_prev = false;
  std::size_t chunks = 0;
  std::size_t columnar_chunks = 0;

  std::size_t offset = 0;
  while (offset < length) {
    // Zero-copy fast path: columnar sources (the mmap trace reader,
    // ColumnarTraceSource) expose their storage directly and the chunk
    // is viewed as columns; everything else is copied out via Read()
    // and viewed as rows. Both layouts are bit-identical by the
    // EncodeBatch contract.
    TraceColumns columns;
    std::size_t n = source.ViewColumns(offset, chunk, &columns);
    AccessBatch batch;
    if (n != 0) {
      batch = AccessBatch::Columns(columns.addresses, columns.sel, n);
      ++columnar_chunks;
    } else {
      if (in.empty()) in.resize(chunk);
      n = source.Read(offset, in);
      if (n == 0) break;  // a short source; size() was an overestimate
      batch = AccessBatch::Rows(std::span<const BusAccess>(in.data(), n));
    }
    const std::span<BusState> states(out.data(), n);
    codec.EncodeBatch(batch, states);
    kernels.in_seq(batch.addresses(), n, mask, stride_for_stats,
                   &prev_address, &has_prev, &in_seq);
    accumulator.Consume(states);
    if (verify_decode) {
      for (std::size_t i = 0; i < n; ++i) {
        const Word decoded = codec.Decode(states[i], batch.sel(i));
        const Word expected = batch.address(i) & mask;
        if (decoded != expected) {
          ThrowDecodeMismatch(codec, decoded, expected);
        }
      }
    }
    offset += n;
    ++chunks;
  }

  if (registry) {
    registry->GetCounter("evaluator.batched.chunks").Increment(chunks);
    registry->GetCounter("evaluator.batched.columnar_chunks")
        .Increment(columnar_chunks);
    registry->GetCounter("evaluator.batched.words")
        .Increment(accumulator.cycles());
    const double elapsed = obs::MonotonicSeconds() - start;
    if (elapsed > 0.0) {
      registry->GetGauge("evaluator.batched.words_per_second")
          .Set(static_cast<double>(accumulator.cycles()) / elapsed);
    }
  }

  EvalResult result;
  result.codec_name = codec.name();
  result.stream_length = accumulator.cycles();
  result.transitions = accumulator.total();
  result.peak_transitions = accumulator.peak();
  result.in_sequence_percent =
      accumulator.cycles() < 2
          ? 0.0
          : 100.0 * static_cast<double>(in_seq) /
                static_cast<double>(accumulator.cycles() - 1);
  result.per_line = accumulator.per_line();
  return result;
}

EvalResult EvaluateBatched(Codec& codec, std::span<const BusAccess> stream,
                           Word stride_for_stats, bool verify_decode,
                           std::size_t chunk_size) {
  const SpanTraceSource source(stream);
  return EvaluateBatched(codec, source, stride_for_stats, verify_decode,
                         chunk_size);
}

std::vector<BusAccess> ToAccesses(std::span<const Word> addresses, bool sel) {
  std::vector<BusAccess> out;
  out.reserve(addresses.size());
  for (Word a : addresses) out.push_back(BusAccess{a, sel});
  return out;
}

}  // namespace abenc
