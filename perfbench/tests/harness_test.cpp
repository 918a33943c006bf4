// The benchmark's own arithmetic: the percentile reporting rule, self
// time as span minus covered child intervals, CPU/RSS collection bounded
// to the timed region, and seed determinism of the inputs.
//
//   cmake --build <build dir> --target perfbench_test
//   <build dir>/perfbench_test
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "lib/harness.h"
#include "lib/inputs.h"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_THROW(Quantile({}, 0.5), std::invalid_argument);
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(20, 0.5), 10u);
  EXPECT_EQ(SamplesBeyond(19, 0.5), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);

  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  EXPECT_FALSE(ReportablePercentile(v, 0.9).has_value());
  ASSERT_TRUE(ReportablePercentile(v, 0.5).has_value());
  v.push_back(100);
  const std::optional<double> p90 = ReportablePercentile(v, 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_NEAR(*p90, 90.1, 1e-9);
  EXPECT_FALSE(ReportablePercentile(v, 0.99).has_value());
}

TEST(SelfTime, CoveredIntervalsCountOnceAndClipToTheParent) {
  EXPECT_DOUBLE_EQ(CoveredSeconds({}, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{1, 3}, {2, 5}, {8, 12}}, 0.0, 10.0), 6.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{11, 12}, {-3, -1}}, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(CoveredSeconds({{0, 10}, {2, 4}}, 0.0, 10.0), 10.0);
}

TEST(SelfTime, SpanMinusDirectChildren) {
  // root [0,10] with children [1,3], [2,5] (overlapping) and [8,12]
  // (running past the root); the grandchild [1.5,2.5] is charged to its
  // own parent only.
  const std::vector<Span> spans = {
      {"root", 1, -1, 0.0, 10.0},  {"child", 1, 0, 1.0, 3.0},
      {"child", 1, 0, 2.0, 5.0},   {"tail", 1, 0, 8.0, 12.0},
      {"leaf", 1, 1, 1.5, 2.5},
  };
  const std::map<std::string, SpanTotals> totals = SummarizeSpans(spans);
  EXPECT_DOUBLE_EQ(totals.at("root").total_s, 10.0);
  EXPECT_DOUBLE_EQ(totals.at("root").self_s, 4.0);
  EXPECT_EQ(totals.at("child").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("child").total_s, 5.0);
  EXPECT_DOUBLE_EQ(totals.at("child").self_s, 4.0);
  EXPECT_DOUBLE_EQ(totals.at("tail").self_s, 4.0);
  EXPECT_DOUBLE_EQ(totals.at("leaf").self_s, 1.0);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer off(false);
  { ScopedSpan span(off, "x", 1); EXPECT_EQ(span.id(), -1); }
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  {
    ScopedSpan outer(on, "outer", 7);
    ScopedSpan inner(on, "inner", 7, outer.id());
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
}

void BurnCpu(double seconds) {
  const double until = ProcessCpuSeconds() + seconds;
  volatile std::uint64_t sink = 0;
  while (ProcessCpuSeconds() < until) {
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
}

TEST(ResourceWindow, CpuCountsOnlyTheTimedRegion) {
  BurnCpu(0.3);  // before the window: must not be charged
  ResourceWindow window;
  window.Start();
  BurnCpu(0.1);
  window.Stop();
  EXPECT_GE(window.cpu_seconds(), 0.09);
  EXPECT_LT(window.cpu_seconds(), 0.25);
}

/// Allocate and touch `mib` MiB (large enough that malloc maps it
/// directly and returns it to the system on release).
std::unique_ptr<char[]> Touch(std::size_t mib) {
  auto block = std::make_unique<char[]>(mib << 20);
  std::memset(block.get(), 1, mib << 20);
  return block;
}

TEST(ResourceWindow, PeakRssCountsOnlyTheTimedRegion) {
  { auto before = Touch(96); }  // a set-up peak, released before Start
  const double base = ResidentMib();
  ResourceWindow quiet;
  quiet.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  quiet.Stop();
  EXPECT_LT(quiet.peak_rss_mib(), base + 48.0);

  ResourceWindow busy;
  busy.Start();
  {
    auto inside = Touch(64);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  busy.Stop();
  EXPECT_GE(busy.peak_rss_mib(), base + 48.0);
}

std::vector<Stream> SmallCaptures() {
  Stream a = MixedThreeRegime(11, 2);
  a.name = "a";
  Stream b = MixedThreeRegime(12, 3);
  b.name = "b";
  for (std::size_t i = 0; i < b.size(); i += 3) b.sel[i] = 0;
  return {a, b};
}

TEST(Seeds, SameSeedSameInputsOtherSeedOtherInputs) {
  const std::vector<Stream> captured = SmallCaptures();
  const std::vector<Stream> one = SeededStreams(captured, 5);
  const std::vector<Stream> again = SeededStreams(captured, 5);
  const std::vector<Stream> other = SeededStreams(captured, 6);
  ASSERT_EQ(one.size(), captured.size() + 1);
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].addresses, again[i].addresses);
    EXPECT_EQ(one[i].sel, again[i].sel);
  }
  EXPECT_EQ(InputsDigest(5, one), InputsDigest(5, again));
  EXPECT_NE(InputsDigest(5, one), InputsDigest(6, other));
  EXPECT_NE(InputsDigest(5, one), InputsDigest(6, one));  // plans alone

  // Rotation keeps each capture's accesses, only the phase moves.
  for (std::size_t i = 0; i < captured.size(); ++i) {
    std::vector<Word> a = captured[i].addresses;
    std::vector<Word> b = one[i].addresses;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(Seeds, SameSeedSameAccounting) {
  const std::vector<Stream> captured = SmallCaptures();
  const std::vector<Stream> one = SeededStreams(captured, 9);
  const std::vector<Stream> again = SeededStreams(captured, 9);
  for (std::size_t i = 0; i < one.size(); ++i) {
    const auto rows_a =
        Rows(one[i].addresses.data(), one[i].sel.data(), 0, one[i].size());
    const auto rows_b = Rows(again[i].addresses.data(), again[i].sel.data(),
                             0, again[i].size());
    const std::vector<abenc::CodecSwitchPoint> schedule = {{100, "gray"}};
    for (const char* codec : {"t0", "adaptive"}) {
      const abenc::EvalResult a =
          abenc::EvaluateWithSchedule(codec, {}, rows_a, schedule, {});
      const abenc::EvalResult b =
          abenc::EvaluateWithSchedule(codec, {}, rows_b, schedule, {});
      EXPECT_EQ(a.transitions, b.transitions);
      EXPECT_EQ(a.per_line, b.per_line);
    }
  }
}

TEST(Seeds, InteractivePlanStaysInRange) {
  for (std::size_t round = 0; round < 200; ++round) {
    const std::size_t n = InteractiveBatch(3, 1, 2, round);
    EXPECT_GE(n, 16u);
    EXPECT_LE(n, 64u);
    const std::string next = InteractiveSwitch(3, 1, 2, round, "t0");
    EXPECT_NE(next, "t0");
  }
}

}  // namespace
}  // namespace perfbench
