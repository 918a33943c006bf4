#include "lib/harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/simd/kernel_dispatch.h"
#include "report/json_writer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("Quantile of an empty sample");
  }
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  // The epsilon keeps q * n = 90.00000000000001 (q = 0.9, n = 100) at 90.
  const double at = std::ceil(std::clamp(q, 0.0, 1.0) *
                              static_cast<double>(n) - 1e-9);
  const std::size_t below = static_cast<std::size_t>(std::max(at, 0.0));
  return below >= n ? 0 : n - below;
}

std::optional<double> ReportablePercentile(const std::vector<double>& values,
                                           double q) {
  if (SamplesBeyond(values.size(), q) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  return Quantile(values, q);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ResidentMib() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(resident_pages) * page / (1024.0 * 1024.0);
}

ResourceWindow::ResourceWindow(std::chrono::milliseconds period)
    : period_(period) {}

ResourceWindow::~ResourceWindow() {
  if (sampler_.joinable()) Stop();
}

void ResourceWindow::Sample() {
  const double rss = ResidentMib();
  std::lock_guard<std::mutex> lock(mutex_);
  peak_rss_mib_ = std::max(peak_rss_mib_, rss);
}

void ResourceWindow::Start() {
  if (sampler_.joinable()) Stop();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    peak_rss_mib_ = 0.0;
    sampler_cpu_s_ = 0.0;
    running_ = true;
  }
  Sample();
  cpu_start_ = ProcessCpuSeconds();
  sampler_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (running_) {
      lock.unlock();
      Sample();
      lock.lock();
      wake_.wait_for(lock, period_, [this] { return !running_; });
    }
    sampler_cpu_s_ = ThreadCpuSeconds();
  });
}

void ResourceWindow::Stop() {
  const double cpu_end = ProcessCpuSeconds();
  Sample();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = false;
  }
  wake_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  cpu_seconds_ = cpu_end - cpu_start_ - sampler_cpu_s_;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::Begin(std::string name, std::uint64_t trace_id,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  Span span{std::move(name), trace_id, parent, Now(), 0.0};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::End(std::int64_t id) {
  if (id < 0) return;
  const double end = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::WriteJsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  double origin = all.empty() ? 0.0 : all.front().start;
  for (const Span& span : all) origin = std::min(origin, span.start);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < all.size(); ++i) {
    abenc::JsonValue line = abenc::JsonValue::MakeObject();
    line.Set("id", static_cast<std::uint64_t>(i));
    line.Set("name", all[i].name);
    line.Set("trace_id", all[i].trace_id);
    line.Set("parent", static_cast<long long>(all[i].parent));
    line.Set("start_s", all[i].start - origin);
    line.Set("end_s", all[i].end - origin);
    out << line.Dump(0) << "\n";
  }
}

double CoveredSeconds(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::erase_if(intervals,
                [](const auto& iv) { return iv.second <= iv.first; });
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (open && a <= run_end) {
      run_end = std::max(run_end, b);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = a;
    run_end = b;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                   span.end);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = std::max(0.0, span.end - span.start);
    SpanTotals& entry = totals[span.name];
    ++entry.count;
    entry.total_s += duration;
    entry.self_s +=
        duration - CoveredSeconds(children[i], span.start, span.end);
  }
  return totals;
}

std::string Fingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  std::ostringstream out;
  out << "cpu=" << cpu << "; nproc=" << std::thread::hardware_concurrency()
      << "; simd=" << abenc::simd::BackendName(abenc::simd::ActiveBackend())
      << "; build=" << PERFBENCH_BUILD_TYPE << "; compiler="
#if defined(__clang__)
      << "clang "
#elif defined(__GNUC__)
      << "gcc "
#endif
      << __VERSION__;
  return out.str();
}

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  abenc::JsonValue doc = abenc::JsonValue::MakeObject();
  doc.Set("correct", correct);
  doc.Set("attempted", attempted);
  doc.Set("failed", failed);
  abenc::JsonValue values = abenc::JsonValue::MakeObject();
  for (const Metric& metric : metrics) {
    abenc::JsonValue entry = abenc::JsonValue::MakeObject();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    values.Set(metric.name, std::move(entry));
  }
  doc.Set("metrics", std::move(values));
  return doc.Dump(0);
}

}  // namespace perfbench
