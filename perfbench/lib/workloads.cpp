#include "lib/workloads.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <future>
#include <iomanip>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/codec_factory.h"
#include "core/experiment.h"
#include "core/thread_pool.h"
#include "lib/gates.h"
#include "lib/inputs.h"
#include "lib/probes.h"
#include "net/client.h"
#include "net/server.h"
#include "trace/mmap_trace.h"

namespace perfbench {
namespace {

namespace net = abenc::net;
using abenc::BusAccess;
using abenc::EvalResult;

constexpr int kSetupRepeats = 5;
constexpr unsigned kConnections = 2;
constexpr unsigned kServiceParallelism = 2;
constexpr std::size_t kSegment = 1 << 15;       // wire-stream request size
constexpr std::size_t kInteractiveSessions = 4;  // per connection
constexpr abenc::Word kStride = 4;

unsigned Workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// What one timed loop produced.
struct LoopResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  double accesses = 0.0;    // work behind throughput and CPU per access
  double throughput = 0.0;  // M accesses/s
  std::vector<double> request_s;
  std::vector<double> ack_s;
  std::vector<double> stats_s;
  std::uint64_t frames = 0;      // frames the server received
  std::uint64_t rejections = 0;  // frames refused (admission/offset guard)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Merge(const LoopResult& other) {
    accesses += other.accesses;
    request_s.insert(request_s.end(), other.request_s.begin(),
                     other.request_s.end());
    ack_s.insert(ack_s.end(), other.ack_s.begin(), other.ack_s.end());
    stats_s.insert(stats_s.end(), other.stats_s.begin(),
                   other.stats_s.end());
    rejections += other.rejections;
    attempted += other.attempted;
    failed += other.failed;
  }
};

class Workload {
 public:
  explicit Workload(const RunConfig& config) : config_(config) {}
  virtual ~Workload() = default;

  /// One complete set-up from scratch (inputs, then the workload's own).
  void Setup(Tracer& tracer) {
    double start = Now();
    {
      ScopedSpan span(tracer, "sim.RunBenchmark", 0);
      captured_ = CaptureIssStreams();
    }
    capture_s.push_back(Now() - start);
    streams_ = SeededStreams(captured_, config_.seed);
    start = Now();
    {
      ScopedSpan span(tracer, "trace.WriteColumnarTrace", 0);
      paths_ = PackStreams(streams_, config_.work_dir + "/inputs");
    }
    pack_s.push_back(Now() - start);
    SetupRest(tracer);
  }

  /// Stop whatever the last set-up started (servers, clients, file
  /// mappings) while keeping what the loops recorded for the gate.
  virtual void Release() = 0;

  /// Closed loop for `seconds`; only this is on the clock.
  virtual LoopResult Loop(double seconds, Tracer& tracer) = 0;

  /// Identity gate over everything the loops produced; false on any
  /// mismatch. Runs outside the timed region.
  virtual bool Verify(std::ostream& log) = 0;

  /// Extra human-readable lines: the loop's own latencies and ratios.
  virtual void Describe(const LoopResult&, std::ostream&) const {}

  /// Same seed → same inputs; another seed → other inputs.
  bool DeterminismCheck(std::ostream& log) const {
    const std::uint64_t digest = InputsDigest(config_.seed, streams_);
    const bool same =
        InputsDigest(config_.seed, SeededStreams(captured_, config_.seed)) ==
        digest;
    const bool differs =
        InputsDigest(config_.seed + 1,
                     SeededStreams(captured_, config_.seed + 1)) != digest;
    log << "inputs: seed " << config_.seed << " digest " << std::hex
        << digest << std::dec << " (regenerated: "
        << (same ? "identical" : "DIFFERENT")
        << "; seed+1: " << (differs ? "differs" : "IDENTICAL") << ")\n";
    return same && differs;
  }

  const std::vector<Stream>& streams() const { return streams_; }
  const std::vector<std::string>& paths() const { return paths_; }

  std::vector<double> capture_s;
  std::vector<double> pack_s;

 protected:
  virtual void SetupRest(Tracer& tracer) = 0;

  const RunConfig& config_;
  std::vector<Stream> captured_;
  std::vector<Stream> streams_;
  std::vector<std::string> paths_;
};

// ---- offline-sweep ------------------------------------------------------

bool SameComparison(const abenc::Comparison& a, const abenc::Comparison& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t s = 0; s < a.rows.size(); ++s) {
    if (!SameResult(a.rows[s].binary, b.rows[s].binary) ||
        a.rows[s].cells.size() != b.rows[s].cells.size()) {
      return false;
    }
    for (std::size_t c = 0; c < a.rows[s].cells.size(); ++c) {
      if (!SameResult(a.rows[s].cells[c].result, b.rows[s].cells[c].result)) {
        return false;
      }
    }
  }
  return true;
}

class OfflineSweep final : public Workload {
 public:
  using Workload::Workload;

  LoopResult Loop(double seconds, Tracer& tracer) override {
    abenc::RunOptions run;
    run.parallelism = Workers();
    std::size_t stream_accesses = 0;
    for (const Stream& s : streams_) stream_accesses += s.size();
    const double per_pass =
        static_cast<double>(stream_accesses * (GridCodecs().size() + 1));
    const std::uint64_t cells = streams_.size() * (GridCodecs().size() + 1);

    LoopResult out;
    std::vector<double> rates;
    ResourceWindow window;
    window.Start();
    const double start = Now();
    const double deadline = start + seconds;
    do {
      ScopedSpan pass(tracer, "offline.pass", passes_);
      out.attempted += cells;
      const double t = Now();
      try {
        ScopedSpan call(tracer, "core.experiment.RunComparison", passes_,
                        pass.id());
        abenc::Comparison comparison = abenc::RunComparison(
            GridCodecs(), named_, abenc::CodecOptions{}, nullptr, run);
        const double dt = Now() - t;
        out.request_s.push_back(dt);
        rates.push_back(per_pass / dt / 1e6);
        out.accesses += per_pass;
        if (!first_) {
          first_ = std::move(comparison);
        } else if (!SameComparison(*first_, comparison)) {
          drifted_ = true;
        }
      } catch (const std::exception& e) {
        out.failed += cells;
        error_ = e.what();
      }
      ++passes_;
    } while (Now() < deadline);
    out.wall_s = Now() - start;
    window.Stop();
    out.cpu_s = window.cpu_seconds();
    out.peak_rss_mib = window.peak_rss_mib();
    out.throughput = rates.empty() ? 0.0 : Median(rates);
    if (!rates.empty()) {
      std::sort(rates.begin(), rates.end());
      pass_rates_ = "grid pass rate min/median/max = " +
                    std::to_string(rates.front()) + " / " +
                    std::to_string(out.throughput) + " / " +
                    std::to_string(rates.back()) + " Maccess/s";
    }
    return out;
  }

  bool Verify(std::ostream& log) override {
    if (!error_.empty()) {
      log << "offline-sweep: a pass threw: " << error_ << "\n";
    }
    if (drifted_) log << "offline-sweep: passes disagree with each other\n";
    if (!first_) return false;
    // Every cell of the first pass against the per-word serial oracle.
    std::vector<std::future<bool>> rows;
    {
      abenc::ThreadPool pool(Workers());
      for (std::size_t s = 0; s < order_.size(); ++s) {
        rows.push_back(pool.Submit([this, s] {
          const Stream& stream = streams_[order_[s]];
          const std::vector<BusAccess> accesses = Rows(
              stream.addresses.data(), stream.sel.data(), 0, stream.size());
          const abenc::ComparisonRow& row = first_->rows[s];
          abenc::CodecPtr binary = abenc::MakeCodec("binary");
          bool same = SameResult(row.binary,
                                 abenc::Evaluate(*binary, accesses, kStride));
          for (std::size_t c = 0; c < GridCodecs().size(); ++c) {
            abenc::CodecPtr codec = abenc::MakeCodec(GridCodecs()[c]);
            same = same &&
                   SameResult(row.cells[c].result,
                              abenc::Evaluate(*codec, accesses, kStride));
          }
          return same;
        }));
      }
    }
    bool ok = error_.empty() && !drifted_;
    for (std::size_t s = 0; s < rows.size(); ++s) {
      if (!rows[s].get()) {
        log << "offline-sweep: stream " << streams_[order_[s]].name
            << " diverges from per-word Evaluate\n";
        ok = false;
      }
    }
    log << "offline-sweep: " << passes_ << " grid passes of "
        << streams_.size() << " streams x " << GridCodecs().size() + 1
        << " codes; first pass " << (ok ? "matches" : "DOES NOT match")
        << " per-word Evaluate\n"
        << pass_rates_ << "\n";
    return ok;
  }

 private:
  void Release() override { named_.clear(); }

  void SetupRest(Tracer&) override {
    // Longest streams first, for the same reason as GridCodecs' order.
    order_.resize(streams_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [this](std::size_t a, std::size_t b) {
                       return streams_[a].size() > streams_[b].size();
                     });
    for (const std::size_t i : order_) {
      named_.emplace_back(streams_[i].name, std::vector<BusAccess>{},
                          std::make_shared<abenc::MmapTraceSource>(paths_[i]));
    }
  }

  std::vector<std::size_t> order_;  // grid row -> input stream
  std::vector<abenc::NamedStream> named_;
  std::optional<abenc::Comparison> first_;
  bool drifted_ = false;
  std::string error_;
  std::uint64_t passes_ = 0;
  std::string pass_rates_;
};

// ---- wire workloads -------------------------------------------------------

/// One wire session as the client saw it: what it admitted, the switch
/// schedule the server acked, and the last drained STATS.
struct WireSession {
  SessionPlan plan;
  std::uint64_t id = 0;
  std::size_t admitted = 0;
  std::string codec;
  std::vector<abenc::CodecSwitchPoint> schedule;
  std::optional<net::StatsReply> stats;
  bool broken = false;  // an acked value disagreed with the client's count
};

class WireWorkload : public Workload {
 public:
  using Workload::Workload;

  LoopResult Loop(double seconds, Tracer& tracer) override {
    std::vector<LoopResult> parts(kConnections);
    const net::ServerStats before = server_->stats();
    ResourceWindow window;
    window.Start();
    const double start = Now();
    const double deadline = start + seconds;
    {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([this, c, deadline, &tracer, &parts] {
          if (!conns_[c].client) return;
          try {
            Drive(c, deadline, tracer, parts[c]);
          } catch (const std::exception& e) {
            // NetError / WireError: the connection is dead; count it and
            // stop driving it, never retry it away.
            ++parts[c].attempted;
            ++parts[c].failed;
            conns_[c].error = e.what();
            conns_[c].client.reset();
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    LoopResult out;
    out.wall_s = Now() - start;
    window.Stop();
    for (const LoopResult& part : parts) out.Merge(part);
    out.frames = server_->stats().frames_received - before.frames_received;
    out.cpu_s = window.cpu_seconds();
    out.peak_rss_mib = window.peak_rss_mib();
    out.throughput = out.accesses / out.wall_s / 1e6;
    return out;
  }

  bool Verify(std::ostream& log) override {
    // A switch acked after a session's last exchange is in no STATS yet:
    // take one more drained snapshot of every still-open session.
    for (Conn& conn : conns_) {
      if (!conn.client) continue;
      try {
        for (WireSession& s : conn.open) {
          s.stats = conn.client->DrainStats(s.id, true);
        }
      } catch (const std::exception& e) {
        conn.error = e.what();
      }
    }
    std::vector<const WireSession*> all;
    for (const Conn& conn : conns_) {
      if (!conn.error.empty()) {
        log << name() << ": connection lost: " << conn.error << "\n";
      }
      for (const WireSession& s : conn.done) all.push_back(&s);
      for (const WireSession& s : conn.open) all.push_back(&s);
    }
    std::vector<std::future<bool>> checks;
    {
      abenc::ThreadPool pool(Workers());
      for (const WireSession* s : all) {
        checks.push_back(pool.Submit([this, s] { return Check(*s); }));
      }
    }
    std::size_t bad = 0;
    std::size_t accesses = 0;
    for (std::size_t i = 0; i < checks.size(); ++i) {
      if (!checks[i].get()) ++bad;
      accesses += all[i]->admitted;
    }
    log << name() << ": " << all.size() << " sessions, " << accesses
        << " accesses; " << all.size() - bad
        << " match EvaluateWithSchedule on their acked schedule";
    if (bad != 0) log << ", " << bad << " DO NOT";
    log << "\n";
    return bad == 0;
  }

  void Describe(const LoopResult& r, std::ostream& log) const override {
    log << "rejected_frac = "
        << (r.frames == 0 ? 0.0
                          : static_cast<double>(r.rejections) /
                                static_cast<double>(r.frames))
        << " (" << r.rejections << " of " << r.frames
        << " frames received)\n";
    const auto line = [&](const char* name, const std::vector<double>& v,
                          double q, double scale, const char* unit) {
      if (v.empty()) return;
      log << name << " = ";
      if (const std::optional<double> p = ReportablePercentile(v, q)) {
        log << *p * scale << " " << unit;
      } else {
        log << "n/a (fewer than " << kMinSamplesBeyond << " samples beyond)";
      }
      log << " (n=" << v.size() << ")\n";
    };
    line("ack_us_p50", r.ack_s, 0.50, 1e6, "us");
    line("ack_us_p99", r.ack_s, 0.99, 1e6, "us");
    line("stats_ms_p50", r.stats_s, 0.50, 1e3, "ms");
    line("stats_ms_p90", r.stats_s, 0.90, 1e3, "ms");
  }

 protected:
  struct Conn {
    std::unique_ptr<net::Client> client;
    std::vector<WireSession> open;  // sessions the connection drives
    std::vector<WireSession> done;  // closed, awaiting the gate
    std::size_t next_plan = 0;
    std::size_t round = 0;
    std::string error;
  };

  virtual const char* name() const = 0;
  virtual void OpenSessions(unsigned c, Tracer& tracer) = 0;
  virtual void Drive(unsigned c, double deadline, Tracer& tracer,
                     LoopResult& out) = 0;

  void Release() override {
    for (Conn& conn : conns_) conn.client.reset();  // before their server
    server_.reset();
    columns_.clear();
    sources_.clear();
  }

  void SetupRest(Tracer& tracer) override {
    conns_.clear();
    net::ServerConfig config;
    config.service.parallelism = kServiceParallelism;
    {
      ScopedSpan span(tracer, "net.Server.Start", 0);
      server_ = std::make_unique<net::Server>(config);
      server_->Start();
    }
    for (const std::string& path : paths_) {
      sources_.push_back(std::make_unique<abenc::MmapTraceSource>(path));
      abenc::TraceColumns columns;
      if (sources_.back()->ViewColumns(0, sources_.back()->size(), &columns) !=
          sources_.back()->size()) {
        throw std::runtime_error("packed trace is not viewable whole: " + path);
      }
      columns_.push_back(columns);
      // Fault the whole mapping in now, so the loop's resident set does
      // not depend on which windows the seed happens to stream.
      const std::size_t n = sources_.back()->size();
      const std::size_t page_words = 4096 / sizeof(Word);
      for (std::size_t i = 0; i < n; i += page_words) {
        prefault_sink_ += columns.addresses[i];
      }
      for (std::size_t i = 0; i < n; i += 4096) {
        prefault_sink_ += columns.sel[i];
      }
    }
    conns_.resize(kConnections);
    for (unsigned c = 0; c < kConnections; ++c) {
      net::ClientOptions options;
      options.endpoint = server_->endpoint();
      options.io_timeout = std::chrono::milliseconds(60000);
      {
        ScopedSpan span(tracer, "net.Client.Connect", c);
        conns_[c].client = std::make_unique<net::Client>(options);
      }
      OpenSessions(c, tracer);
    }
  }

  /// A client call with a span, counted as one attempted operation.
  template <class F>
  auto Call(Tracer& tracer, const char* span_name, std::uint64_t trace_id,
            std::int64_t parent, LoopResult& out, F&& body) {
    ScopedSpan span(tracer, span_name, trace_id, parent);
    ++out.attempted;
    return body();
  }

  WireSession OpenSession(unsigned c, SessionPlan plan, Tracer& tracer) {
    WireSession s;
    s.plan = std::move(plan);
    s.codec = s.plan.codec;
    net::OpenRequest open;
    open.codec = s.codec;
    ScopedSpan span(tracer, "net.client.Open", c);
    s.id = conns_[c].client->Open(open).session_id;
    return s;
  }

  /// The session's lifetime stream [0, admitted) as rows.
  std::vector<BusAccess> Admitted(const WireSession& s) const {
    const Stream& stream = streams_[s.plan.stream];
    std::vector<BusAccess> rows(s.admitted);
    for (std::size_t i = 0; i < s.admitted; ++i) {
      const std::size_t at = (s.plan.start + i) % stream.size();
      rows[i] = BusAccess{stream.addresses[at], stream.sel[at] != 0};
    }
    return rows;
  }

  bool Check(const WireSession& s) const {
    if (s.broken || !s.stats || s.stats->accepted != s.admitted ||
        s.stats->renegotiations != s.schedule) {
      return false;
    }
    const std::vector<std::size_t> resets(s.stats->reset_points.begin(),
                                          s.stats->reset_points.end());
    return SameResult(*s.stats, abenc::EvaluateWithSchedule(
                                    s.plan.codec, abenc::CodecOptions{},
                                    Admitted(s), s.schedule, resets));
  }

  std::vector<std::unique_ptr<abenc::MmapTraceSource>> sources_;
  std::vector<abenc::TraceColumns> columns_;
  std::uint64_t prefault_sink_ = 0;  // keeps the page-touching reads
  std::unique_ptr<net::Server> server_;
  std::vector<Conn> conns_;
};

class WireStream final : public WireWorkload {
 public:
  using WireWorkload::WireWorkload;

 private:
  const char* name() const override { return "wire-stream"; }

  void OpenSessions(unsigned c, Tracer& tracer) override {
    conns_[c].open.push_back(OpenSession(
        c, StreamSessionPlan(config_.seed, c, conns_[c].next_plan++, streams_),
        tracer));
  }

  // Stream the session's window in kSegment requests through windowed
  // SUBMIT_STREAM; at its end drain, verify-later and CLOSE, then OPEN
  // the next planned session. At the deadline the open session is
  // drained so every admitted access is in a STATS.
  void Drive(unsigned c, double deadline, Tracer& tracer,
             LoopResult& out) override {
    Conn& conn = conns_[c];
    net::Client& client = *conn.client;
    const auto finish = [&](std::int64_t parent) {
      WireSession& s = conn.open.back();
      const double t = Now();
      s.stats = Call(tracer, "net.client.DrainStats", s.id, parent, out,
                     [&] { return client.DrainStats(s.id, true); });
      out.stats_s.push_back(Now() - t);
      Call(tracer, "net.client.Close", s.id, parent, out,
           [&] { return client.Close(s.id); });
      conn.done.push_back(std::move(s));
      conn.open.clear();
    };
    while (Now() < deadline) {
      if (conn.open.empty()) {
        ++out.attempted;
        conn.open.push_back(OpenSession(
            c, StreamSessionPlan(config_.seed, c, conn.next_plan++, streams_),
            tracer));
      }
      WireSession& s = conn.open.back();
      // Lifetime index i is input position plan.start + i.
      const Word* addresses = columns_[s.plan.stream].addresses + s.plan.start;
      const std::uint8_t* sel = columns_[s.plan.stream].sel + s.plan.start;
      const std::size_t length = s.plan.length;
      const std::size_t count = std::min(s.admitted + kSegment, length);
      ScopedSpan request(tracer, "wire.request", s.id);
      net::StreamSubmitOptions options;
      options.start = s.admitted;
      const double t = Now();
      const net::StreamSubmitResult result =
          Call(tracer, "net.client.SubmitColumns", s.id, request.id(), out,
               [&] {
                 return client.SubmitColumns(s.id, addresses, sel, count,
                                             options);
               });
      out.request_s.push_back(Now() - t);
      out.rejections += result.rejections;
      out.accesses += static_cast<double>(result.accepted - s.admitted);
      s.admitted = result.accepted;
      if (result.accepted != count) {
        ++out.failed;  // never admitted: the session closed under us
        s.broken = true;
        finish(request.id());
        continue;
      }
      if (s.admitted == length) finish(request.id());
    }
    if (!conn.open.empty()) finish(-1);
  }
};

class WireInteractive final : public WireWorkload {
 public:
  using WireWorkload::WireWorkload;

 private:
  const char* name() const override { return "wire-interactive"; }

  void OpenSessions(unsigned c, Tracer& tracer) override {
    for (std::size_t k = 0; k < kInteractiveSessions; ++k) {
      conns_[c].open.push_back(OpenSession(
          c, InteractiveSessionPlan(config_.seed, c, k, streams_), tracer));
    }
  }

  // Rounds of lock-step exchanges: per session a small SUBMIT, then a
  // drained STATS, then (about one round in four) a RENEGOTIATE whose
  // ack must pin the switch at exactly the admitted count.
  void Drive(unsigned c, double deadline, Tracer& tracer,
             LoopResult& out) override {
    Conn& conn = conns_[c];
    net::Client& client = *conn.client;
    while (Now() < deadline) {
      const std::size_t round = conn.round++;
      for (std::size_t j = 0; j < conn.open.size(); ++j) {
        WireSession& s = conn.open[j];
        const Stream& stream = streams_[s.plan.stream];
        const std::size_t n = InteractiveBatch(config_.seed, c, j, round);
        std::vector<BusAccess> batch(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t at =
              (s.plan.start + s.admitted + i) % stream.size();
          batch[i] = BusAccess{stream.addresses[at], stream.sel[at] != 0};
        }
        ScopedSpan request(tracer, "wire.request", s.id);
        const double t = Now();
        const net::SubmitAck ack =
            Call(tracer, "net.client.Submit", s.id, request.id(), out,
                 [&] { return client.Submit(s.id, batch); });
        out.ack_s.push_back(Now() - t);
        if (ack.status != net::Status::kOk &&
            ack.status != net::Status::kSlowDown) {
          ++out.failed;  // never admitted; not retried
          continue;
        }
        s.admitted += n;
        out.accesses += static_cast<double>(n);
        if (ack.accepted != s.admitted) s.broken = true;
        const double t_stats = Now();
        s.stats = Call(tracer, "net.client.DrainStats", s.id, request.id(),
                       out, [&] { return client.DrainStats(s.id, true); });
        const double end = Now();
        out.stats_s.push_back(end - t_stats);
        out.request_s.push_back(end - t);
        const std::string next =
            InteractiveSwitch(config_.seed, c, j, round, s.codec);
        if (!next.empty()) {
          const net::RenegotiateReply reply =
              Call(tracer, "net.client.Renegotiate", s.id, request.id(), out,
                   [&] { return client.Renegotiate(s.id, next); });
          if (reply.switch_index != s.admitted) s.broken = true;
          s.schedule.push_back({static_cast<std::size_t>(reply.switch_index),
                                next});
          s.codec = next;
        }
      }
    }
  }
};

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "offline-sweep") {
    return std::make_unique<OfflineSweep>(config);
  }
  if (config.workload == "wire-stream") {
    return std::make_unique<WireStream>(config);
  }
  if (config.workload == "wire-interactive") {
    return std::make_unique<WireInteractive>(config);
  }
  throw std::invalid_argument("unknown workload: " + config.workload);
}

void Print(std::ostream& log, const Metric& m, std::size_t samples = 0) {
  log << m.name << " = " << m.value << " " << m.unit;
  if (samples != 0) log << " (n=" << samples << ")";
  log << "\n";
}

std::vector<Metric> EndToEnd(const LoopResult& r, double setup_s,
                             std::ostream& log) {
  std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"throughput_maccess_per_s", r.throughput, "Maccess/s"},
      {"cpu_ns_per_access", r.cpu_s * 1e9 / std::max(r.accesses, 1.0), "ns"},
      {"peak_rss_mib", r.peak_rss_mib, "MiB"},
      {"request_ms_p50", r.request_s.empty() ? 0.0 : Median(r.request_s) * 1e3,
       "ms"},
  };
  for (const Metric& m : metrics) {
    Print(log, m, m.name == "request_ms_p50" ? r.request_s.size() : 0);
  }
  if (SamplesBeyond(r.request_s.size(), 0.5) < kMinSamplesBeyond) {
    log << "warning: request_ms_p50 rests on fewer than "
        << kMinSamplesBeyond << " samples beyond it\n";
  }
  return metrics;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "offline-sweep", "wire-stream", "wire-interactive"};
  return names;
}

Outcome RunWorkload(const RunConfig& config, std::ostream& log) {
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  std::filesystem::create_directories(config.work_dir);
  Tracer tracer(config.trace);
  Tracer untraced(false);
  log << std::setprecision(6);

  // Set-up from scratch several times; the median is setup_s and the
  // last one is kept.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload->Release();
    const double start = Now();
    workload->Setup(i + 1 == kSetupRepeats ? tracer : untraced);
    setup_s.push_back(Now() - start);
  }
  Outcome outcome;
  outcome.correct = workload->DeterminismCheck(log);

  if (!config.trace) {
    const LoopResult r = workload->Loop(config.seconds, untraced);
    outcome.correct = workload->Verify(log) && outcome.correct;
    workload->Release();
    workload->Describe(r, log);
    outcome.metrics = EndToEnd(r, Median(setup_s), log);
    outcome.attempted = r.attempted;
    outcome.failed = r.failed;
    log << "failed_frac = "
        << static_cast<double>(r.failed) /
               static_cast<double>(std::max<std::uint64_t>(r.attempted, 1))
        << " (" << r.failed << " of " << r.attempted << " operations)\n";
  } else {
    // Half the time untraced, half traced: their throughput difference is
    // the tracing overhead. End-to-end numbers never come from here.
    const LoopResult base = workload->Loop(config.seconds / 2, untraced);
    const LoopResult traced = workload->Loop(config.seconds / 2, tracer);
    outcome.correct = workload->Verify(log) && outcome.correct;
    workload->Release();

    LayerReport layers;
    layers.Add("sim.capture_s", Median(workload->capture_s), "s");
    layers.Add("trace.pack_s", Median(workload->pack_s), "s");
    const ProbeContext ctx{workload->streams(), workload->paths(),
                           config.seed, Workers(), tracer};
    ProbeIngest(ctx, layers);
    ProbeKernels(ctx, layers);
    ProbeEvaluator(ctx, layers);
    ProbeChannel(ctx, layers);
    ProbeService(ctx, layers);
    ProbeProtocol(ctx, layers);
    ProbeNet(ctx, layers);

    const std::map<std::string, SpanTotals> spans =
        SummarizeSpans(tracer.spans());
    double root_total = 0.0;
    double root_self = 0.0;
    for (const char* root : {"offline.pass", "wire.request"}) {
      if (const auto it = spans.find(root); it != spans.end()) {
        root_total += it->second.total_s;
        root_self += it->second.self_s;
      }
    }
    layers.Add("trace.overhead_frac",
               base.throughput > 0 ? 1.0 - traced.throughput / base.throughput
                                   : 0.0,
               "frac");
    layers.Add("trace.loop_self_frac",
               root_total > 0 ? root_self / root_total : 0.0, "frac");
    layers.Add("trace.spans", static_cast<double>(tracer.spans().size()),
               "count");

    log << "span totals (name: count, total s, self s):\n";
    for (const auto& [name, t] : spans) {
      log << "  " << name << ": " << t.count << ", " << t.total_s << ", "
          << t.self_s << "\n";
    }
    const std::string span_path = config.work_dir + "/spans-" +
                                  config.workload + "-seed" +
                                  std::to_string(config.seed) + ".jsonl";
    tracer.WriteJsonl(span_path);
    log << "spans written to " << span_path << "\n";
    for (const Metric& m : layers.metrics) Print(log, m);

    outcome.metrics = layers.metrics;
    outcome.attempted = base.attempted + traced.attempted + layers.attempted;
    outcome.failed = base.failed + traced.failed + layers.failed;
    if (layers.failed != 0) {
      log << "layer probes: " << layers.failed << " of " << layers.attempted
          << " gated probe outputs FAILED\n";
      outcome.correct = false;
    }
  }
  if (outcome.failed != 0) outcome.correct = false;
  std::filesystem::remove_all(config.work_dir + "/inputs");
  return outcome;
}

}  // namespace perfbench
