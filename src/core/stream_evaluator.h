// Runs a codec over an address stream and reports the paper's metrics.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/codec.h"
#include "core/transition_counter.h"

namespace abenc {

class TraceSource;   // core/trace_source.h
struct CodecOptions;  // core/codec_factory.h

// BusAccess (one address plus the SEL signal) lives in core/types.h so
// the Codec block interface can speak it; it is re-exported here for
// the many stream-level includers.

/// Metrics of one codec over one stream — the columns of Tables 2-7.
struct EvalResult {
  std::string codec_name;
  std::size_t stream_length = 0;
  long long transitions = 0;
  int peak_transitions = 0;          // worst single-cycle toggle count
  double in_sequence_percent = 0.0;  // fraction of b(t) = b(t-1) + S, in %
  std::vector<long long> per_line;

  double average_transitions_per_cycle() const {
    return stream_length == 0 ? 0.0
                              : static_cast<double>(transitions) /
                                    static_cast<double>(stream_length);
  }
};

/// Percentage of transitions saved relative to a reference (binary) count,
/// as reported in the paper's "Savings" columns.
///
/// A zero reference with a nonzero codec count has no meaningful
/// percentage — reporting 0.0 there would disguise a strictly *worse*
/// code as parity — so that case returns quiet NaN. Renderers spell it
/// out: FormatPercent (report/table.h) prints "n/a" and the JSON writer
/// emits null (JSON has no NaN). Zero-vs-zero is genuine parity and
/// stays 0.0.
double SavingsPercent(long long transitions, long long binary_transitions);

/// Fraction (in percent) of accesses whose address equals the previous
/// access's address plus `stride` — the paper's "In-Seq Addr." column.
/// For multiplexed streams the paper measures raw adjacency on the bus,
/// which is what this computes.
double InSequencePercent(std::span<const BusAccess> stream, Word stride,
                         unsigned width);

/// Run `codec` over `stream` from reset and collect metrics: the
/// per-word reference oracle, EvaluateWithResets() with no reset points.
/// If `verify_decode` is set, every encoded state is also pushed through
/// the codec's decoder and checked against the original address; a
/// mismatch throws std::logic_error (used by the test-suite and as a
/// self-check by the benches).
EvalResult Evaluate(Codec& codec, std::span<const BusAccess> stream,
                    Word stride_for_stats = 4, bool verify_decode = false);

/// The batched hot path: run `codec` over the stream in fixed-size
/// chunks — one Codec::EncodeBatch per chunk (one virtual dispatch per
/// chunk; the high-traffic codes install SIMD kernels), then the
/// in-sequence kernel and a word-parallel XOR+popcount transition
/// sweep over the encoded block (core/codec_kernel.h).
///
/// Bit-identity guarantee: for every chunk size the returned EvalResult
/// is *identical* to Evaluate() on the same stream — transitions, peak,
/// per-line histogram, in-sequence percentage and the decode-verify
/// throw behaviour all match. The contract is enforced for all factory
/// codecs by the `batched-identity` universal verify property and
/// tests/stream_evaluator_test, which is what lets the experiment
/// engine and the committed bench baselines switch onto this path with
/// byte-identical outputs.
///
/// `chunk_size == 0` selects kDefaultChunkSize (core/codec_kernel.h).
/// When a MetricsRegistry is installed, records chunk/word counters and
/// an `evaluator.batched.words_per_second` gauge.
EvalResult EvaluateBatched(Codec& codec, const TraceSource& source,
                           Word stride_for_stats = 4,
                           bool verify_decode = false,
                           std::size_t chunk_size = 0);

/// Convenience overload over a materialized stream.
EvalResult EvaluateBatched(Codec& codec, std::span<const BusAccess> stream,
                           Word stride_for_stats = 4,
                           bool verify_decode = false,
                           std::size_t chunk_size = 0);

/// Fold one accounting segment into `total`: transitions sum, peaks max
/// and per-line histograms sum element-wise, zero-extended to the widest
/// segment geometry. The one fold rule of the serial references below
/// and of the encoding service's session accounting.
void AddSegment(EvalResult& total, long long transitions, int peak,
                std::span<const long long> per_line);

/// Serial reference for accounting across codec-state teardowns: exactly
/// Evaluate(), except the codec and the power-on transition baseline are
/// returned to the reset state immediately before each stream index in
/// `reset_points` (ascending; out-of-range and duplicate points are
/// no-ops). Segments are therefore independent Evaluate() runs whose
/// transition totals, per-line histograms and stream lengths sum and
/// whose peaks max; the in-sequence percentage remains a property of the
/// whole stream, as in Evaluate().
///
/// This is the contract an encoding-service session honours when it is
/// evicted at index k and later re-admitted (src/service/session.h): by
/// the reset-replay property (src/verify/properties.h) a freshly
/// constructed codec encodes identically to a Reset() one, so the
/// session's lifetime accounting must equal
/// EvaluateWithResets(stream, {k}).
EvalResult EvaluateWithResets(Codec& codec, std::span<const BusAccess> stream,
                              std::span<const std::size_t> reset_points,
                              Word stride_for_stats = 4,
                              bool verify_decode = false);

/// One entry of a session's codec-switch schedule: from lifetime access
/// `index` onward the stream is encoded by `codec_name`, built fresh
/// from the factory. This is the wire-replayable record a renegotiated
/// service session reports (RENEGOTIATE_ACK pins `index`, STATS replays
/// the whole schedule — docs/PROTOCOL.md).
struct CodecSwitchPoint {
  std::size_t index = 0;
  std::string codec_name;

  bool operator==(const CodecSwitchPoint&) const = default;
};

/// Serial reference for a session whose codec was renegotiated
/// mid-stream: segment [switches[i].index, switches[i+1].index) is an
/// independent EvaluateWithResets() run of a freshly built
/// switches[i].codec_name (the stream up to the first switch uses
/// `initial_codec`). `reset_points` are the session's eviction/resync
/// teardowns and may fall anywhere; a reset point equal to a segment
/// start is a no-op (the codec there is already fresh). Folding matches
/// EvaluateWithResets: transitions and stream lengths sum, peaks max,
/// per-line histograms sum element-wise zero-extended to the widest
/// segment geometry, and the in-sequence percentage remains a property
/// of the whole stream. `switches` must be ascending by index.
///
/// An empty schedule degenerates to EvaluateWithResets(initial_codec),
/// which is why the soak harnesses can verify renegotiated and
/// untouched sessions through the same call.
EvalResult EvaluateWithSchedule(const std::string& initial_codec,
                                const CodecOptions& options,
                                std::span<const BusAccess> stream,
                                std::span<const CodecSwitchPoint> switches,
                                std::span<const std::size_t> reset_points,
                                Word stride_for_stats = 4,
                                bool verify_decode = false);

/// Convenience: wrap a pure address sequence (dedicated bus) as BusAccesses.
std::vector<BusAccess> ToAccesses(std::span<const Word> addresses,
                                  bool sel = true);

}  // namespace abenc
