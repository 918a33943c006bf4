// Batched/per-word bit-identity tests: EvaluateBatched() must reproduce
// Evaluate()'s EvalResult exactly for every factory codec at every chunk
// geometry, including the degenerate streams. This is the test-suite
// half of the EncodeBatch contract (the verify suite's batched-identity
// property is the fuzzable half).
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/codec_factory.h"
#include "core/codec_kernel.h"
#include "core/stream_evaluator.h"
#include "core/trace_source.h"
#include "report/table.h"
#include "trace/trace.h"
#include "trace/trace_source.h"

namespace abenc {
namespace {

// Deterministic mixed stream: sequential runs (exercising the T0/inc-xor
// prediction hits), jumps, and SEL toggles — the shapes that make the
// stateful kernels carry state across chunk boundaries.
std::vector<BusAccess> MixedStream(std::size_t length) {
  std::vector<BusAccess> stream;
  stream.reserve(length);
  Word address = 0x1000;
  Word lcg = 12345;
  for (std::size_t i = 0; i < length; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    if ((lcg >> 60) < 11) {
      address += 4;  // sequential most of the time, like a fetch stream
    } else {
      address = (lcg >> 16) & 0xFFFFFFFFull;
    }
    stream.push_back({address, ((lcg >> 8) & 3) != 0});
  }
  return stream;
}

void ExpectIdenticalResults(const EvalResult& per_word,
                            const EvalResult& batched,
                            const std::string& context) {
  EXPECT_EQ(per_word.transitions, batched.transitions) << context;
  EXPECT_EQ(per_word.peak_transitions, batched.peak_transitions) << context;
  EXPECT_EQ(per_word.stream_length, batched.stream_length) << context;
  // Exact double equality on purpose: both paths must run the same
  // arithmetic, not merely land close — that is what keeps the committed
  // baseline JSON byte-identical.
  EXPECT_EQ(per_word.in_sequence_percent, batched.in_sequence_percent)
      << context;
  EXPECT_EQ(per_word.per_line, batched.per_line) << context;
}

TEST(EvaluateBatchedTest, MatchesPerWordForAllFactoryCodecs) {
  const std::vector<BusAccess> stream = MixedStream(1000);
  const CodecOptions options;
  const std::size_t chunk_sizes[] = {1, 7, 64, stream.size(),
                                     stream.size() + 1};
  for (const std::string& name : AllCodecNames()) {
    const auto reference_codec = MakeCodec(name, options);
    const EvalResult reference = Evaluate(*reference_codec, stream, 4, true);
    for (const std::size_t chunk : chunk_sizes) {
      auto codec = MakeCodec(name, options);
      const EvalResult batched =
          EvaluateBatched(*codec, stream, 4, true, chunk);
      ExpectIdenticalResults(
          reference, batched,
          name + " at chunk size " + std::to_string(chunk));
    }
  }
}

TEST(EvaluateBatchedTest, EmptyStreamMatchesPerWord) {
  const std::vector<BusAccess> stream;
  const CodecOptions options;
  for (const std::string& name : AllCodecNames()) {
    const auto reference_codec = MakeCodec(name, options);
    const EvalResult reference = Evaluate(*reference_codec, stream, 4, true);
    auto codec = MakeCodec(name, options);
    const EvalResult batched = EvaluateBatched(*codec, stream, 4, true);
    ExpectIdenticalResults(reference, batched, name + " on the empty stream");
    EXPECT_EQ(batched.stream_length, 0u);
    EXPECT_EQ(batched.transitions, 0);
  }
}

TEST(EvaluateBatchedTest, SingleWordMatchesPerWord) {
  const std::vector<BusAccess> stream = {{0xDEADBEEF, true}};
  const CodecOptions options;
  for (const std::string& name : AllCodecNames()) {
    const auto reference_codec = MakeCodec(name, options);
    const EvalResult reference = Evaluate(*reference_codec, stream, 4, true);
    auto codec = MakeCodec(name, options);
    const EvalResult batched = EvaluateBatched(*codec, stream, 4, true);
    ExpectIdenticalResults(reference, batched, name + " on one word");
  }
}

TEST(EvaluateBatchedTest, DefaultChunkSizeIsTheLibraryDefault) {
  // chunk_size = 0 must behave exactly like kDefaultChunkSize, and a
  // stream longer than one default chunk must still match per-word.
  const std::vector<BusAccess> stream = MixedStream(kDefaultChunkSize + 37);
  const CodecOptions options;
  auto reference_codec = MakeCodec("gray", options);
  const EvalResult reference = Evaluate(*reference_codec, stream, 4, true);
  auto implicit_codec = MakeCodec("gray", options);
  const EvalResult implicit =
      EvaluateBatched(*implicit_codec, stream, 4, true, 0);
  auto explicit_codec = MakeCodec("gray", options);
  const EvalResult explicitly =
      EvaluateBatched(*explicit_codec, stream, 4, true, kDefaultChunkSize);
  ExpectIdenticalResults(reference, implicit, "gray, implicit default chunk");
  ExpectIdenticalResults(reference, explicitly,
                         "gray, explicit default chunk");
}

TEST(EvaluateBatchedTest, TraceSourceOverloadMatchesSpanOverload) {
  const std::vector<BusAccess> stream = MixedStream(500);
  AddressTrace trace;
  for (const BusAccess& access : stream) {
    trace.Append(access.address,
                 access.sel ? AccessKind::kInstruction : AccessKind::kData);
  }
  const auto source = MakeTraceSource(std::move(trace));
  ASSERT_EQ(source->size(), stream.size());

  const CodecOptions options;
  for (const std::string& name : {std::string("t0"), std::string("offset"),
                                  std::string("bus-invert")}) {
    auto span_codec = MakeCodec(name, options);
    const EvalResult from_span =
        EvaluateBatched(*span_codec, stream, 4, true, 128);
    auto source_codec = MakeCodec(name, options);
    const EvalResult from_source =
        EvaluateBatched(*source_codec, *source, 4, true, 128);
    ExpectIdenticalResults(from_span, from_source, name + " via TraceSource");
  }
}

TEST(EvaluateBatchedTest, VerifyDecodeCatchesBrokenCodecOnBatchedPath) {
  // The deferred per-chunk decode check must still fire, with the same
  // exception type the per-word path throws.
  class LyingCodec final : public Codec {
   public:
    explicit LyingCodec(unsigned width) : Codec(width) {}
    std::string name() const override { return "lying"; }
    std::string display_name() const override { return "Lying"; }
    unsigned redundant_lines() const override { return 0; }
    BusState Encode(Word address, bool) override {
      return BusState{Mask(address), 0};
    }
    Word Decode(const BusState& bus, bool) override {
      return Mask(bus.lines + 1);  // off by one
    }
    void Reset() override {}
  };
  LyingCodec codec(16);
  const std::vector<BusAccess> stream = {{1, true}, {2, true}};
  EXPECT_THROW(EvaluateBatched(codec, stream, 4, true), std::logic_error);
  EXPECT_NO_THROW(EvaluateBatched(codec, stream, 4, false));
}

TEST(BlockTransitionAccumulatorTest, ResetReturnsToPowerOn) {
  // A T0 wire, so both the data lines and the INC line toggle; the
  // segment after the reset starts from a nonzero state that must be
  // charged against all-lines-low again.
  const std::vector<BusAccess> stream = MixedStream(300);
  const CodecPtr codec = MakeCodec("t0");
  std::vector<BusState> states;
  for (const BusAccess& access : stream) {
    states.push_back(codec->Encode(access.address, access.sel));
  }
  const std::span<const BusState> before(states.data(), 100);
  const std::span<const BusState> after(states.data() + 100, 200);
  ASSERT_NE(after[0].lines, 0u);

  const unsigned width = codec->width();
  const unsigned redundant = codec->redundant_lines();
  BlockTransitionAccumulator reused(width, redundant);
  reused.Consume(before);
  ASSERT_GT(reused.total(), 0);
  reused.Reset();
  const BlockTransitionAccumulator power_on(width, redundant);
  EXPECT_EQ(reused.total(), 0);
  EXPECT_EQ(reused.peak(), 0);
  EXPECT_EQ(reused.cycles(), 0u);
  EXPECT_EQ(reused.per_line(), power_on.per_line());
  reused.Consume(after);

  BlockTransitionAccumulator fresh(width, redundant);
  fresh.Consume(after);
  EXPECT_EQ(reused.total(), fresh.total());
  EXPECT_EQ(reused.peak(), fresh.peak());
  EXPECT_EQ(reused.cycles(), fresh.cycles());
  EXPECT_EQ(reused.per_line(), fresh.per_line());

  TransitionCounter counter(width, redundant);
  for (const BusState& state : before) counter.Observe(state);
  counter.Reset();
  for (const BusState& state : after) counter.Observe(state);
  EXPECT_EQ(reused.total(), counter.total());
  EXPECT_EQ(reused.peak(), counter.peak());
  EXPECT_EQ(reused.cycles(), counter.cycles());
  EXPECT_EQ(reused.per_line(), counter.per_line());
}

TEST(SavingsPercentTest, ZeroReferenceWithCodedTransitionsIsNaN) {
  // Regression: this used to return 0.0, silently reporting "no change"
  // for a codec that *added* transitions against a zero-transition
  // reference stream. NaN is the "no meaningful percentage" sentinel.
  EXPECT_TRUE(std::isnan(SavingsPercent(5, 0)));
  // Both zero genuinely means nothing changed.
  EXPECT_DOUBLE_EQ(SavingsPercent(0, 0), 0.0);
  // The table renderer prints the sentinel as "n/a", never "nan%".
  EXPECT_EQ(FormatPercent(SavingsPercent(5, 0)), "n/a");
}

TEST(SavingsPercentTest, ZeroReferenceSurfacesInEvaluatedStream) {
  // A constant-address stream has zero binary transitions, but inc-xor
  // still toggles on the first word (it transmits b XOR the stride
  // prediction); the savings column for that cell must be NaN.
  const std::vector<BusAccess> stream(16, BusAccess{0, true});
  const CodecOptions options;
  auto binary = MakeCodec("binary", options);
  const EvalResult reference = Evaluate(*binary, stream, 4, true);
  ASSERT_EQ(reference.transitions, 0);
  auto inc_xor = MakeCodec("inc-xor", options);
  const EvalResult coded = Evaluate(*inc_xor, stream, 4, true);
  ASSERT_GT(coded.transitions, 0);
  EXPECT_TRUE(
      std::isnan(SavingsPercent(coded.transitions, reference.transitions)));
}

}  // namespace
}  // namespace abenc
