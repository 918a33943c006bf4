// The benchmark's own measuring machinery: order statistics with the
// "ten samples beyond" reporting rule, a CPU/RSS window bounded to the
// timed region, an in-memory span recorder with self-time accounting,
// the machine fingerprint and the one-line JSON result.
//
// Nothing here reaches into the abenc libraries' internals: spans are
// recorded around the benchmark's own calls into their public APIs.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

// ---- order statistics ------------------------------------------------

/// Linear-interpolation quantile (the "type 7" estimator: rank
/// q * (n - 1) between the two nearest order statistics). `q` in [0, 1];
/// an empty sample throws std::invalid_argument.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Samples ranked strictly above the q-quantile's position among `n`:
/// n - ceil(q * n). The reporting rule keeps a percentile only when
/// this is at least kMinSamplesBeyond.
std::size_t SamplesBeyond(std::size_t n, double q);

inline constexpr std::size_t kMinSamplesBeyond = 10;

/// The q-quantile, or nullopt when fewer than kMinSamplesBeyond samples
/// lie beyond it (a tail estimated from a handful of points is noise).
std::optional<double> ReportablePercentile(const std::vector<double>& values,
                                           double q);

// ---- resources over the timed region ----------------------------------

/// User + system CPU seconds of the whole process (every thread,
/// including an in-process server's).
double ProcessCpuSeconds();

/// CPU seconds of the calling thread.
double ThreadCpuSeconds();

/// Current resident set size in MiB (/proc/self/statm).
double ResidentMib();

/// CPU time and peak resident memory between Start() and Stop() only.
/// Peak RSS is sampled (every `period`, plus at both ends) by a helper
/// thread, because the kernel's own high-water mark cannot be rewound
/// and would charge set-up allocations to the timed region. The helper's
/// own CPU time is not charged.
class ResourceWindow {
 public:
  explicit ResourceWindow(
      std::chrono::milliseconds period = std::chrono::milliseconds(10));
  ~ResourceWindow();

  ResourceWindow(const ResourceWindow&) = delete;
  ResourceWindow& operator=(const ResourceWindow&) = delete;

  void Start();
  void Stop();

  double cpu_seconds() const { return cpu_seconds_; }
  double peak_rss_mib() const { return peak_rss_mib_; }

 private:
  void Sample();

  std::chrono::milliseconds period_;
  double cpu_start_ = 0.0;
  double cpu_seconds_ = 0.0;
  double peak_rss_mib_ = 0.0;
  double sampler_cpu_s_ = 0.0;  // written by the sampler before it exits
  std::mutex mutex_;  // guards running_ and peak_rss_mib_ while sampling
  std::condition_variable wake_;
  bool running_ = false;
  std::thread sampler_;
};

// ---- spans -------------------------------------------------------------

/// Monotonic seconds (steady_clock).
double Now();

struct Span {
  std::string name;
  std::uint64_t trace_id = 0;  // shared by the spans of one session/request
  std::int64_t parent = -1;    // index into the recorder's spans, -1 = root
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span recorder, thread-safe. A disabled tracer records
/// nothing and reads no clock, so untraced runs pay one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Open a span; returns its id (or -1 when disabled).
  std::int64_t Begin(std::string name, std::uint64_t trace_id,
                     std::int64_t parent = -1);
  void End(std::int64_t id);

  std::vector<Span> spans() const;

  /// One JSON object per line: name, trace_id, id, parent, start_s,
  /// end_s (seconds since the first span).
  void WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t trace_id,
             std::int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer.Begin(std::move(name), trace_id, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Length of the union of `intervals` clipped to [lo, hi]; overlapping
/// intervals count once.
double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

/// Per span name: summed duration and summed self time (duration minus
/// the part of the span its direct children cover).
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans);

// ---- reporting ---------------------------------------------------------

/// CPU model, hardware threads, active SIMD backend, build type and
/// compiler — results with different fingerprints are not comparable.
std::string Fingerprint();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line:
/// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench
