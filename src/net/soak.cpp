#include "net/soak.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "channel/fault_models.h"
#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "net/client.h"
#include "service/renegotiation.h"
#include "service/service.h"
#include "verify/stream_gen.h"

namespace abenc::net {
namespace {

using Clock = std::chrono::steady_clock;

const char* const kCodecPalette[] = {"t0",      "gray",   "bus-invert",
                                     "inc-xor", "offset", "dual-t0-bi",
                                     "adaptive"};

/// Independent deterministic draws from one session sub-seed; `salt`
/// tells them apart. The salt map: 0 faulted, 1–4 PlanSoakFault, 5
/// protection, 6 disconnects, 7 renegotiates, 8 v1 client, 9/10/12
/// switch targets (the policy's choice, else palette member salt + 17),
/// 11 end-pinned switch, 13 columnar, 14 ack cadence.
std::uint64_t Draw(std::uint64_t seed, std::uint64_t salt) {
  return verify::MixSeed(seed + 0x9E3779B97F4A7C15ULL * (salt + 1));
}

bool DrawFraction(std::uint64_t seed, std::uint64_t salt, double fraction) {
  return fraction > 0.0 &&
         static_cast<double>(Draw(seed, salt) % 10000) < fraction * 10000.0;
}

/// A planned mid-stream codec switch, issued once the admitted count
/// reaches `at` (`at` == stream length pins it to the exact end). An
/// empty codec asks the renegotiation policy for its choice.
struct PlannedSwitch {
  std::size_t at = 0;
  std::string codec;
};

/// How a session ships its stream.
enum class SubmitMode {
  kRows,       // Submit / lock-step SUBMIT
  kColumns,    // SubmitColumns / SUBMIT_STREAM acking every frame
  kStreaming,  // SubmitColumns / SUBMIT_STREAM with sparse acks
};

/// Everything about one synthetic session, fixed up front so the serial
/// reference can be recomputed from the same plan. The progress fields
/// are owned by one client thread (plans are sliced by index).
struct SessionPlan {
  std::size_t index = 0;
  std::string codec_name;
  std::vector<BusAccess> stream;
  std::vector<Word> addresses;    // column copy of `stream`, columnar
  std::vector<std::uint8_t> sel;  // modes only
  std::uint64_t fault_seed = 0;   // 0 = no faults
  Protection protection = Protection::kSecded;
  /// Wire: admitted counts at which the connection is killed (odd
  /// entries mid-frame) and the session resumed via ATTACH.
  std::vector<std::size_t> kill_points;
  std::vector<PlannedSwitch> switch_plan;  // ascending by `at`
  SubmitMode mode = SubmitMode::kRows;
  /// The version-1 feature set: rows, no renegotiation, and on the wire
  /// a v1 HELLO that no v2 frame or field may ever reach.
  bool old_version = false;

  bool opened = false;
  bool done = false;
  std::uint64_t id = 0;
  std::uint64_t token = 0;         // wire: ATTACH capability
  std::unique_ptr<Client> client;  // wire: the session's connection
  std::size_t submitted = 0;       // admitted accesses
  std::uint64_t backoff_us = 100;  // rejection backoff
  std::size_t next_switch = 0;
  std::size_t next_kill = 0;
  std::vector<CodecSwitchPoint> acked;  // pinned switches, in order
  std::uint64_t refusals = 0;           // tolerated clean refusals
  std::optional<StatsReply> stats;      // drained accounting
};

void FillColumns(SessionPlan& plan) {
  plan.addresses.reserve(plan.stream.size());
  plan.sel.reserve(plan.stream.size());
  for (const BusAccess& access : plan.stream) {
    plan.addresses.push_back(access.address);
    plan.sel.push_back(access.sel ? 1 : 0);
  }
}

std::vector<SessionPlan> PlanSessions(const SoakOptions& options) {
  const std::span<const char* const> palette = SoakCodecPalette();
  const std::vector<verify::StreamFamily> families =
      verify::AllStreamFamilies();
  const CodecOptions codec_options;
  const std::size_t length = options.length;
  const bool v2_features =
      options.renegotiate_fraction > 0.0 || options.columnar_fraction > 0.0;
  std::vector<SessionPlan> plans(options.sessions);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    SessionPlan& plan = plans[i];
    plan.index = i;
    plan.codec_name =
        options.codec.empty() ? palette[i % palette.size()] : options.codec;
    const std::uint64_t sub_seed =
        verify::MixSeed(options.seed + 0x9E3779B97F4A7C15ULL * (i + 1));
    plan.stream =
        verify::GenerateStream(families[i % families.size()], sub_seed,
                               length, codec_options.width,
                               codec_options.stride);
    if (DrawFraction(sub_seed, 0, options.fault_fraction)) {
      plan.fault_seed = sub_seed;
      // Rotate the protection layer: SECDED sessions exercise in-line
      // correction (rung 1), parity/unprotected sessions push the same
      // faults into retry-resync (rung 2) and, for hard faults,
      // degradation to binary (rung 3).
      constexpr Protection kRotation[] = {
          Protection::kSecded, Protection::kParity, Protection::kNone};
      plan.protection = kRotation[Draw(sub_seed, 5) % 3];
    }
    if (DrawFraction(sub_seed, 6, options.disconnect_fraction) &&
        length >= 3) {
      plan.kill_points = {length / 3, (2 * length) / 3};
    }
    // One in eight sessions keeps the v1 feature set when v2 features
    // are on: the legacy path must stay untouched by them.
    plan.old_version = v2_features && Draw(sub_seed, 8) % 8 == 0;
    if (plan.old_version) continue;
    if (length >= 8 &&
        DrawFraction(sub_seed, 7, options.renegotiate_fraction)) {
      // Two mid-stream switches plus, on half of these sessions, one
      // pinned exactly at the stream end — and occasionally an empty
      // codec, delegating the choice to the renegotiation policy.
      auto pick = [&](std::uint64_t salt) -> std::string {
        if (Draw(sub_seed, salt) % 5 == 0) return "";
        return palette[Draw(sub_seed, salt + 17) % palette.size()];
      };
      plan.switch_plan = {{length / 4, pick(9)}, {(3 * length) / 5, pick(10)}};
      if (Draw(sub_seed, 11) % 2 == 0) {
        plan.switch_plan.push_back({length, pick(12)});
      }
    }
    if (DrawFraction(sub_seed, 13, options.columnar_fraction)) {
      plan.mode = Draw(sub_seed, 14) % 2 == 0 ? SubmitMode::kColumns
                                              : SubmitMode::kStreaming;
      FillColumns(plan);
    }
  }
  return plans;
}

/// The post-fuzz health check: one clean t0 session, on the current
/// protocol or as a v1 client.
SessionPlan HealthPlan(const SoakOptions& options, std::size_t index,
                       bool old_version) {
  const CodecOptions codec_options;
  SessionPlan plan;
  plan.index = index;
  plan.codec_name = "t0";
  plan.stream = verify::GenerateStream(
      verify::AllStreamFamilies()[0],
      verify::MixSeed(options.seed ^ 0x4EA17ULL),
      std::max<std::size_t>(options.length, 16), codec_options.width,
      codec_options.stride);
  plan.old_version = old_version;
  return plan;
}

std::string Describe(const SessionPlan& plan, const std::string& what) {
  std::ostringstream out;
  out << "session[" << plan.index << "] (" << plan.codec_name
      << "): " << what;
  return out.str();
}

/// The oracle: what one session's drained accounting must satisfy
/// against the serial reference replaying the `acked` switch schedule.
/// Returns what diverged (empty = verified).
std::vector<std::string> CheckSession(
    const SessionPlan& plan, const StatsReply& stats,
    const std::vector<CodecSwitchPoint>& acked, std::size_t queue_capacity) {
  const std::size_t length = plan.stream.size();
  if (stats.accepted != length) {
    return {"admitted count != planned stream length"};
  }
  if (stats.stream_length != length) {
    return {"processed stream length != planned stream length"};
  }
  // Every acked switch must have applied — in order, at its pinned
  // index — and nothing else; a mismatch would desynchronise any
  // decoder replaying the schedule.
  if (stats.renegotiations != acked) {
    return {"applied switch schedule != the acked renegotiations (a "
            "switch was lost, duplicated or re-pinned)"};
  }
  const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                        stats.reset_points.end());
  const EvalResult expected =
      EvaluateWithSchedule(plan.codec_name, CodecOptions{}, plan.stream,
                           stats.renegotiations, resets);
  std::vector<std::string> diverged;
  if (stats.transitions != expected.transitions) {
    diverged.push_back("transition count diverged");
  }
  if (stats.peak_transitions != expected.peak_transitions) {
    diverged.push_back("peak transitions diverged");
  }
  if (stats.per_line != expected.per_line) {
    diverged.push_back("per-line histogram diverged");
  }
  if (stats.in_sequence_percent != expected.in_sequence_percent) {
    diverged.push_back("in-sequence percentage diverged");
  }
  const service::TransportCounters& t = stats.transport;
  if (t.clean + t.corrected + t.recovered + t.degraded_deliveries !=
      t.transfers) {
    diverged.push_back(
        "transport reconciliation failed (a delivery outcome was lost — "
        "silent corruption)");
  }
  if (t.transfers != length) {
    diverged.push_back("transfer count != stream length");
  }
  if (stats.peak_queue_depth > queue_capacity) {
    diverged.push_back("queue exceeded its configured capacity");
  }
  return diverged;
}

/// Shared run state: the time budget, the failure list and the tallies
/// the client and fuzz threads bump.
struct Run {
  explicit Run(const SoakOptions& soak_options) : options(soak_options) {}

  bool OutOfTime() const {
    return options.time_budget_s > 0.0 &&
           std::chrono::duration<double>(Clock::now() - start).count() >=
               options.time_budget_s;
  }

  void Fail(std::string failure) {
    std::lock_guard<std::mutex> lock(mutex);
    failures.push_back(std::move(failure));
  }

  const SoakOptions& options;
  const Clock::time_point start = Clock::now();
  std::mutex mutex;
  std::vector<std::string> failures;
  std::atomic<std::uint64_t> slowdowns{0};
  std::atomic<std::uint64_t> rejections{0};
  std::atomic<std::uint64_t> fuzz_frames{0};
  std::atomic<std::uint64_t> fuzz_errors{0};
  std::atomic<bool> ran_out{false};
};

struct SubmitStep {
  std::uint64_t slowdowns = 0;
  std::uint64_t rejections = 0;
};

/// How the drive loop reaches the service. Every call may throw; the
/// drive loop turns that into a failure of the one session.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;
  virtual service::EncodingService& service() = 0;
  /// Opens the plan's session and sets plan.id.
  virtual void Open(SessionPlan& plan) = 0;
  /// Ships the next batch from plan.submitted on and advances
  /// plan.submitted to the admitted count.
  virtual SubmitStep Submit(SessionPlan& plan) = 0;
  /// Requests a switch to `codec` ("" = the policy's choice): the pinned
  /// switch, or nullopt for a clean refusal.
  virtual std::optional<CodecSwitchPoint> Renegotiate(
      SessionPlan& plan, const std::string& codec) = 0;
  /// Waits for the session to drain, reads its accounting and closes it.
  virtual StatsReply Finish(SessionPlan& plan) = 0;
  /// Adds the transport's own counters to `outcome`.
  virtual void Tally(SoakOutcome& /*outcome*/) {}
};

service::ServiceConfig MakeServiceConfig(const SoakOptions& options) {
  service::ServiceConfig config;
  config.shards = std::max(1u, options.shards);
  config.parallelism = std::max(options.stall_shard ? 2u : 1u,
                                options.parallelism);
  config.idle_evict_steps = options.idle_evict_steps;
  // A patient watchdog: a wedged shard is still failed over within ~1s,
  // but a shard that is merely starved for CPU (oversubscribed CI
  // machines, sanitizer slowdowns) gets time to advance its heartbeat
  // before being declared stuck.
  config.watchdog_interval = std::chrono::milliseconds(100);
  config.watchdog_stuck_strikes = 10;
  return config;
}

class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(const SoakOptions& options)
      : options_(options), service_(MakeServiceConfig(options)) {
    service_.SetQuiescenceHook([this]() {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++wakes_;
      }
      woken_.notify_all();
    });
  }

  service::EncodingService& service() override { return service_; }

  void Open(SessionPlan& plan) override {
    service::SessionConfig config;
    config.codec_name = plan.codec_name;
    config.queue_capacity = options_.queue_capacity;
    config.slowdown_watermark = options_.slowdown_watermark;
    config.access_budget = options_.access_budget;
    config.protection = plan.protection;
    if (plan.fault_seed != 0) {
      config.fault_installer = PlanSoakFault(plan.fault_seed, options_.length);
    }
    plan.id = service_.OpenSession(config);
  }

  SubmitStep Submit(SessionPlan& plan) override {
    const std::size_t from = plan.submitted;
    const std::size_t n = std::min(options_.chunk, plan.stream.size() - from);
    service::Admission admission;
    if (plan.mode == SubmitMode::kRows) {
      admission = service_.Submit(
          plan.id, std::span<const BusAccess>(plan.stream).subspan(from, n));
    } else {
      service::ColumnBatch batch;
      batch.addresses.assign(plan.addresses.begin() + from,
                             plan.addresses.begin() + from + n);
      batch.sel.assign(plan.sel.begin() + from, plan.sel.begin() + from + n);
      admission = service_.SubmitColumns(plan.id, std::move(batch));
    }
    switch (admission) {
      case service::Admission::kAccepted:
        plan.submitted += n;
        return {};
      case service::Admission::kSlowDown:
        plan.submitted += n;
        return {1, 0};
      case service::Admission::kRejected:
        return {0, 1};
      case service::Admission::kClosed:
        break;
    }
    throw std::runtime_error("session input closed mid-stream");
  }

  std::optional<CodecSwitchPoint> Renegotiate(
      SessionPlan& plan, const std::string& codec) override {
    const std::string target = codec.empty() ? Recommendation(plan.id) : codec;
    if (target.empty()) return std::nullopt;
    const service::RenegotiateOutcome outcome =
        service_.Renegotiate(plan.id, target);
    if (outcome.ok()) {
      return CodecSwitchPoint{outcome.switch_index, outcome.codec_name};
    }
    // The palette is all factory codecs: a bad-codec refusal here means
    // validation itself regressed.
    if (outcome.status == service::RenegotiateStatus::kRefusedBadCodec) {
      throw std::runtime_error("renegotiation refused as bad codec");
    }
    return std::nullopt;
  }

  StatsReply Finish(SessionPlan& plan) override {
    // Arm-then-wait on the quiescence hook, as the server's deferred
    // DRAIN_STATS does: the wake count is read before the watch is
    // armed, so a drain racing the arming is never missed.
    const auto deadline = Clock::now() + options_.io_timeout;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const std::uint64_t seen = wakes_;
      lock.unlock();
      if (service_.WatchDrained(plan.id)) break;
      lock.lock();
      if (!woken_.wait_until(lock, deadline,
                             [&]() { return wakes_ != seen; })) {
        throw std::runtime_error(
            "session did not drain within the I/O timeout");
      }
    }
    StatsReply stats =
        StatsFromReport(service_.Report(plan.id), plan.submitted);
    service_.CloseSession(plan.id);
    return stats;
  }

 private:
  /// The server's policy hook, in-process: a proposal once the session
  /// has a completed stats window and a switch is admissible.
  std::string Recommendation(std::uint64_t session_id) {
    const std::optional<service::RenegotiationSnapshot> snapshot =
        service_.StatsSnapshot(session_id);
    if (!snapshot.has_value() || snapshot->windows_completed == 0 ||
        snapshot->switch_pending || snapshot->degraded) {
      return "";
    }
    return service::RenegotiationPolicy{}.Recommend(
        snapshot->window, snapshot->width, snapshot->active_codec);
  }

  const SoakOptions& options_;
  std::mutex mutex_;  // guards wakes_
  std::condition_variable woken_;
  std::uint64_t wakes_ = 0;
  service::EncodingService service_;  // last: stops before the hook state
};

class WireTransport final : public Transport {
 public:
  explicit WireTransport(const SoakOptions& options)
      : options_(options), server_(MakeServerConfig(options)) {
    server_.Start();
    client_options_.endpoint = server_.endpoint();
    client_options_.io_timeout = options.io_timeout;
  }

  service::EncodingService& service() override { return server_.service(); }

  const ClientOptions& client_options() const { return client_options_; }

  void Open(SessionPlan& plan) override {
    plan.client = Connect(plan);
    const CodecOptions codec_options;
    OpenRequest open;
    open.codec = plan.codec_name;
    open.width = static_cast<std::uint16_t>(codec_options.width);
    open.stride = codec_options.stride;
    open.protection = static_cast<std::uint8_t>(plan.protection);
    open.queue_capacity = options_.queue_capacity;
    open.slowdown_watermark = options_.slowdown_watermark;
    open.access_budget = options_.access_budget;
    open.fault_seed = plan.fault_seed;
    const OpenReply opened = plan.client->Open(open);
    plan.id = opened.session_id;
    plan.token = opened.token;
  }

  SubmitStep Submit(SessionPlan& plan) override {
    while (plan.next_kill < plan.kill_points.size() &&
           plan.submitted >= plan.kill_points[plan.next_kill]) {
      KillAndResume(plan);
    }
    const std::size_t length = plan.stream.size();
    const std::size_t n = std::min(options_.chunk, length - plan.submitted);
    if (plan.mode == SubmitMode::kRows) {
      const SubmitAck ack = plan.client->Submit(
          plan.id,
          std::span<const BusAccess>(plan.stream).subspan(plan.submitted, n));
      if (ack.status == Status::kRejected) {
        if (ack.accepted != plan.submitted) {
          throw std::runtime_error(
              "rejected SUBMIT changed the accepted count");
        }
        return {0, 1};
      }
      if (ack.status != Status::kOk && ack.status != Status::kSlowDown) {
        throw std::runtime_error("unexpected SUBMIT_ACK status " +
                                 StatusName(ack.status));
      }
      if (ack.accepted != plan.submitted + n) throw std::runtime_error(kSkew);
      plan.submitted += n;
      return {ack.status == Status::kSlowDown ? 1u : 0u, 0};
    }
    // Stream up to the next planned boundary (kill or switch threshold),
    // windowed; SubmitColumns drains its window before returning, so the
    // boundary actions stay frame-aligned.
    std::size_t target = length;
    if (plan.next_kill < plan.kill_points.size()) {
      target = std::min(target, plan.kill_points[plan.next_kill]);
    }
    if (plan.next_switch < plan.switch_plan.size()) {
      target = std::min(target, plan.switch_plan[plan.next_switch].at);
    }
    target = std::max(target, plan.submitted + 1);
    StreamSubmitOptions stream;
    stream.chunk = options_.chunk;
    stream.window = 4;
    stream.ack_interval = plan.mode == SubmitMode::kColumns ? 1 : 4;
    stream.start = plan.submitted;
    const StreamSubmitResult result = plan.client->SubmitColumns(
        plan.id, plan.addresses.data(), plan.sel.data(), target, stream);
    if (result.closed) {
      throw std::runtime_error("session input closed mid-stream");
    }
    if (result.accepted < plan.submitted || result.accepted > target) {
      throw std::runtime_error(kSkew);
    }
    plan.submitted = static_cast<std::size_t>(result.accepted);
    return {result.slowdowns, result.rejections};
  }

  std::optional<CodecSwitchPoint> Renegotiate(
      SessionPlan& plan, const std::string& codec) override {
    try {
      const RenegotiateReply ack = plan.client->Renegotiate(plan.id, codec);
      return CodecSwitchPoint{static_cast<std::size_t>(ack.switch_index),
                              ack.codec};
    } catch (const WireError& e) {
      if (e.status() != Status::kRenegotiateRefused) throw;
      return std::nullopt;
    }
  }

  StatsReply Finish(SessionPlan& plan) override {
    StatsReply stats = plan.client->DrainStats(plan.id, /*wait_drained=*/true);
    plan.client->Close(plan.id);
    plan.client.reset();
    if (plan.old_version) ++old_version_sessions_;
    return stats;
  }

  void Tally(SoakOutcome& outcome) override {
    outcome.disconnects = disconnects_.load();
    outcome.resumes = resumes_.load();
    outcome.old_version_sessions = old_version_sessions_.load();
    outcome.server = server_.stats();
  }

 private:
  static constexpr const char* kSkew =
      "admitted count skew (an access was dropped or duplicated)";

  static ServerConfig MakeServerConfig(const SoakOptions& options) {
    ServerConfig config;
    config.endpoint = options.endpoint;
    config.service = MakeServiceConfig(options);
    const std::size_t length = options.length;
    config.fault_planner = [length](std::uint64_t seed) {
      return PlanSoakFault(seed, length);
    };
    return config;
  }

  std::unique_ptr<Client> Connect(const SessionPlan& plan) const {
    ClientOptions options = client_options_;
    if (plan.old_version) options.version_max = 1;
    auto client = std::make_unique<Client>(options);
    if (plan.old_version &&
        (client->version() != 1 || client->capabilities() != 0)) {
      throw std::runtime_error("v1 client negotiated a v2 conversation");
    }
    return client;
  }

  /// Kills the session's connection — on odd kills after shipping the
  /// first half of its next frame, so the server sees a mid-frame EOF
  /// and must discard the partial frame whole — then resumes on a new
  /// connection from the ATTACH reply's admitted count.
  void KillAndResume(SessionPlan& plan) {
    if ((plan.next_kill & 1) != 0) {
      const std::size_t from = plan.submitted;
      const std::size_t n = std::min(options_.chunk, plan.stream.size() - from);
      const std::vector<std::uint8_t> frame =
          plan.mode == SubmitMode::kRows
              ? EncodeFrame(FrameType::kSubmit,
                            EncodeSubmit(plan.id,
                                         std::span<const BusAccess>(
                                             plan.stream)
                                             .subspan(from, n)))
              : EncodeFrame(FrameType::kSubmitStream,
                            EncodeSubmitStream(plan.id, from, true,
                                               plan.addresses.data() + from,
                                               plan.sel.data() + from, n));
      try {
        plan.client->SendRaw(std::span<const std::uint8_t>(
            frame.data(), std::max<std::size_t>(1, frame.size() / 2)));
      } catch (const NetError&) {
      }
    }
    plan.client->Abort();
    ++plan.next_kill;
    ++disconnects_;
    plan.client = Connect(plan);
    const AttachReply attach = plan.client->Attach(plan.id, plan.token);
    if (attach.accepted < plan.submitted ||
        attach.accepted > plan.stream.size()) {
      throw std::runtime_error("ATTACH resume point out of range");
    }
    // Applied switches can lag acked ones (a switch whose pinned index
    // the drain has not reached yet) but never exceed them — the server
    // cannot invent a switch the client never sent.
    if ((plan.client->capabilities() & kCapRenegotiate) != 0 &&
        attach.renegotiations > plan.acked.size()) {
      throw std::runtime_error(
          "ATTACH_OK reports more applied switches than the client ever "
          "acked");
    }
    plan.submitted = static_cast<std::size_t>(attach.accepted);
    ++resumes_;
  }

  const SoakOptions& options_;
  Server server_;
  ClientOptions client_options_;
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::size_t> old_version_sessions_{0};
};

/// One step of one session: open it, or issue its due switches and then
/// either submit its next batch or finish it.
void Advance(Transport& transport, SessionPlan& plan, Run& run) {
  if (!plan.opened) {
    transport.Open(plan);
    plan.opened = true;
    return;
  }
  // Issue every switch whose threshold the admitted count has crossed —
  // including one pinned at the stream end, which the pass after the
  // last batch reaches.
  while (plan.next_switch < plan.switch_plan.size() &&
         plan.submitted >= plan.switch_plan[plan.next_switch].at) {
    const std::optional<CodecSwitchPoint> pinned = transport.Renegotiate(
        plan, plan.switch_plan[plan.next_switch++].codec);
    if (!pinned.has_value()) {
      ++plan.refusals;
    } else if (pinned->index < plan.submitted ||
               pinned->index > plan.stream.size()) {
      throw std::runtime_error(
          "renegotiation pinned a switch outside the admitted range");
    } else {
      plan.acked.push_back(*pinned);
    }
  }
  if (plan.submitted == plan.stream.size()) {
    plan.stats = transport.Finish(plan);
    plan.done = true;
    return;
  }
  const std::size_t before = plan.submitted;
  const SubmitStep step = transport.Submit(plan);
  run.slowdowns += step.slowdowns;
  run.rejections += step.rejections;
  if (plan.submitted == before) {
    // Rejected whole: nothing was queued; back off and resubmit.
    std::this_thread::sleep_for(std::chrono::microseconds(plan.backoff_us));
    plan.backoff_us = std::min<std::uint64_t>(plan.backoff_us * 2, 5000);
    return;
  }
  plan.backoff_us = 100;
  if (step.slowdowns > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// One client thread: round-robin over every `stride`-th plan from
/// `first`, one step per plan per pass, until each is done or the time
/// budget runs out. A throwing step fails only its own session.
void DriveSlice(Transport& transport, std::span<SessionPlan> plans,
                std::size_t first, std::size_t stride, Run& run) {
  for (bool work_left = true; work_left;) {
    work_left = false;
    for (std::size_t i = first; i < plans.size(); i += stride) {
      SessionPlan& plan = plans[i];
      if (plan.done) continue;
      if (run.OutOfTime()) {
        run.ran_out = true;
        return;
      }
      work_left = true;
      try {
        Advance(transport, plan, run);
      } catch (const std::exception& e) {
        run.Fail(Describe(plan, e.what()));
        plan.done = true;
      }
    }
  }
}

/// What a hostile connection observed. Anything but kWedged is a clean
/// containment outcome.
enum class FuzzEnd { kError, kClosed, kWedged };

/// Raw socket (no Client, no handshake) for the fuzz swarm.
struct RawConn {
  int fd = -1;

  RawConn(const Endpoint& endpoint, std::chrono::milliseconds timeout)
      : fd(DialEndpoint(endpoint, timeout)) {}
  ~RawConn() { CloseFd(fd); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void Send(std::span<const std::uint8_t> bytes) {
    SendAll(fd, bytes.data(), bytes.size());
  }

  void HalfClose() { ::shutdown(fd, SHUT_WR); }

  /// Drain replies until an ERROR frame, an orderly close, or a receive
  /// timeout (= the server wedged — the one forbidden outcome).
  FuzzEnd Outcome(std::uint64_t* errors_seen) {
    std::vector<std::uint8_t> buffer;
    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = TryExtractFrame(buffer, kDefaultMaxFrameBytes);
      } catch (const WireError&) {
        return FuzzEnd::kClosed;  // server echoing our garbage? count as
                                  // contained; health check still gates
      }
      if (frame.has_value()) {
        if (frame->type == FrameType::kError) {
          ++*errors_seen;
          return FuzzEnd::kError;
        }
        continue;  // e.g. HELLO_OK before the violation's ERROR
      }
      std::uint8_t chunk[4096];
      std::size_t n = 0;
      try {
        n = RecvSome(fd, chunk, sizeof(chunk));
      } catch (const NetError&) {
        return FuzzEnd::kWedged;  // receive timeout
      }
      if (n == 0) return FuzzEnd::kClosed;
      buffer.insert(buffer.end(), chunk, chunk + n);
    }
  }
};

/// One hostile connection walking the violation catalogue: every case
/// must end in a protocol ERROR or an orderly close — a receive timeout
/// means a wedged connection and fails the soak.
void FuzzConnection(std::size_t f, const ClientOptions& client_options,
                    Run& run) {
  const std::chrono::milliseconds timeout = run.options.io_timeout;
  const Endpoint dial = ParseEndpoint(client_options.endpoint);
  std::mt19937_64 rng(verify::MixSeed(run.options.seed ^ (0xF022ULL + f)));
  auto fail = [&](int which, const std::string& what) {
    std::ostringstream out;
    out << "fuzz[" << f << "] case " << which << ": " << what;
    run.Fail(out.str());
  };
  const std::vector<std::uint8_t> hello =
      EncodeFrame(FrameType::kHello, EncodeHello(HelloRequest{}));
  auto with_hello = [&](const std::vector<std::uint8_t>& frame) {
    std::vector<std::uint8_t> bytes = hello;
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    return bytes;
  };
  auto raw_case = [&](int which, const std::vector<std::uint8_t>& bytes,
                      bool require_error) {
    if (run.OutOfTime()) return;
    try {
      RawConn conn(dial, timeout);
      conn.Send(bytes);
      conn.HalfClose();
      ++run.fuzz_frames;
      std::uint64_t errors_seen = 0;
      const FuzzEnd end = conn.Outcome(&errors_seen);
      run.fuzz_errors += errors_seen;
      if (end == FuzzEnd::kWedged) {
        fail(which, "server wedged (receive timeout)");
      } else if (end == FuzzEnd::kClosed && require_error) {
        fail(which, "expected a protocol ERROR before the close");
      }
    } catch (const NetError& e) {
      fail(which, e.what());
    }
  };

  // 0: random garbage. A plausible garbage length prefix makes the
  // server wait for the payload; the half-close turns that into a
  // mid-frame EOF, so a clean close (no ERROR) is acceptable here.
  std::vector<std::uint8_t> garbage(1 + rng() % 64);
  for (std::uint8_t& byte : garbage) byte = static_cast<std::uint8_t>(rng());
  raw_case(0, garbage, /*require_error=*/false);

  // 1: length prefix far above the cap — rejected from the prefix
  // alone, before any payload arrives.
  raw_case(1, {0xFF, 0xFF, 0xFF, 0xFF}, /*require_error=*/true);

  // 2: zero-length frame.
  raw_case(2, {0x00, 0x00, 0x00, 0x00}, /*require_error=*/true);

  // 3: unknown frame type after a valid HELLO.
  raw_case(3,
           with_hello(EncodeFrame(static_cast<FrameType>(0x63),
                                  std::vector<std::uint8_t>())),
           /*require_error=*/true);

  // 4: HELLO with the wrong magic.
  {
    HelloRequest bad;
    bad.magic = 0xDEADBEEFu;
    raw_case(4, EncodeFrame(FrameType::kHello, EncodeHello(bad)),
             /*require_error=*/true);
  }

  // 5: HELLO with no protocol version overlap.
  {
    HelloRequest bad;
    bad.version_min = 99;
    bad.version_max = 100;
    raw_case(5, EncodeFrame(FrameType::kHello, EncodeHello(bad)),
             /*require_error=*/true);
  }

  // 6: truncated frame then hard disconnect mid-frame — nothing to
  // read back; the post-traffic health check proves no harm done.
  if (!run.OutOfTime()) {
    try {
      RawConn conn(dial, timeout);
      conn.Send(hello);
      const std::vector<std::uint8_t> open_frame =
          EncodeFrame(FrameType::kOpen, EncodeOpen(OpenRequest{}));
      conn.Send(std::span<const std::uint8_t>(open_frame.data(),
                                              open_frame.size() / 2));
      ++run.fuzz_frames;
    } catch (const NetError&) {
    }
  }

  // 7: well-typed frame with trailing garbage after its payload —
  // sender/receiver layout disagreement, must be rejected.
  {
    Writer writer;
    writer.U64(1);           // CloseRequest.session_id
    writer.U32(0xDEADBEEF);  // trailing garbage
    raw_case(7, with_hello(EncodeFrame(FrameType::kClose, writer.Take())),
             /*require_error=*/true);
  }

  // 8: request-scoped errors must leave the connection usable — the
  // same client that was refused twice then opens a real session.
  if (!run.OutOfTime()) {
    try {
      Client probe(client_options);
      run.fuzz_frames += 2;
      bool refused = false;
      try {
        const std::vector<BusAccess> one(1);
        probe.Submit(0xFFFFFFFFFFFFull, one);
      } catch (const WireError& e) {
        refused = e.status() == Status::kUnknownSession;
        ++run.fuzz_errors;
      }
      if (!refused) fail(8, "unknown-session SUBMIT was not refused");
      refused = false;
      try {
        OpenRequest bogus;
        bogus.codec = "no-such-codec";
        probe.Open(bogus);
      } catch (const WireError& e) {
        refused = e.status() == Status::kBadConfig;
        ++run.fuzz_errors;
      }
      if (!refused) fail(8, "bogus-codec OPEN was not refused");
      OpenRequest good;
      good.codec = "t0";
      const OpenReply opened = probe.Open(good);
      probe.Close(opened.session_id);
    } catch (const std::exception& e) {
      fail(8, e.what());
    }
  }

  // 9: capability-gated frames on a connection that never negotiated
  // them (v1 HELLO) are framing violations — fatal ERROR, exactly like
  // an unknown frame type.
  {
    HelloRequest v1;
    v1.version_max = 1;
    std::vector<std::uint8_t> bytes =
        EncodeFrame(FrameType::kHello, EncodeHello(v1));
    RenegotiateRequest reneg;
    reneg.session_id = 1;
    reneg.codec = "gray";
    const std::vector<std::uint8_t> frame =
        EncodeFrame(FrameType::kRenegotiate, EncodeRenegotiate(reneg));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    raw_case(9, bytes, /*require_error=*/true);
  }
}

/// The stall-shard gate: the wedged shard blocks here until the run
/// opens it, after the watchdog has failed the shard over.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this]() { return open; });
  }
};

}  // namespace

std::span<const char* const> SoakCodecPalette() {
  return std::span<const char* const>(kCodecPalette,
                                      std::size(kCodecPalette));
}

std::function<void(BusChannel&)> PlanSoakFault(std::uint64_t seed,
                                               std::size_t length) {
  const std::uint64_t kind = Draw(seed, 1) % 4;
  const std::size_t cycle = Draw(seed, 2) % std::max<std::size_t>(length, 1);
  const std::uint64_t line_pick = Draw(seed, 3);
  const bool stuck_value = (Draw(seed, 4) & 1) != 0;
  switch (kind) {
    case 0:
      return [cycle, line_pick](BusChannel& channel) {
        channel.AddFault(std::make_unique<SingleUpsetFault>(
            cycle, static_cast<unsigned>(line_pick % channel.total_lines())));
      };
    case 1:
      return [cycle, line_pick](BusChannel& channel) {
        const unsigned total = channel.total_lines();
        const unsigned span = std::min(2u, total);
        const unsigned first =
            static_cast<unsigned>(line_pick % (total - span + 1));
        channel.AddFault(
            std::make_unique<BurstFault>(cycle, first, span, 2));
      };
    case 2:
      return [seed](BusChannel& channel) {
        channel.AddFault(std::make_unique<RandomNoiseFault>(0.001, seed));
      };
    default:
      // A hard fault from mid-stream on: the case retries cannot heal,
      // exercising rung 3 (graceful degradation to binary).
      return [length, line_pick, stuck_value](BusChannel& channel) {
        channel.AddFault(std::make_unique<StuckAtFault>(
            static_cast<unsigned>(line_pick % channel.total_lines()),
            stuck_value, length / 2));
      };
  }
}

std::string SoakUsageError(const SoakOptions& options) {
  if (options.queue_capacity == 0) return "--queue-cap must be positive";
  if (options.chunk == 0 || options.chunk > options.queue_capacity) {
    return "--chunk must be in [1, --queue-cap]: no queue admits a larger "
           "batch";
  }
  if (options.endpoint == "inproc") {
    if (options.fuzz_connections > 0) return "--fuzz needs a wire endpoint";
    if (options.disconnect_fraction > 0.0) {
      return "--disconnect-fraction needs a wire endpoint";
    }
    return "";
  }
  try {
    ParseEndpoint(options.endpoint);
  } catch (const NetError& e) {
    return e.what();
  }
  return "";
}

SoakOutcome RunSoak(const SoakOptions& options) {
  if (const std::string error = SoakUsageError(options); !error.empty()) {
    throw std::invalid_argument(error);
  }
  Run run(options);
  std::vector<SessionPlan> plans = PlanSessions(options);

  std::unique_ptr<Transport> transport;
  WireTransport* wire = nullptr;
  if (options.endpoint == "inproc") {
    transport = std::make_unique<InProcessTransport>(options);
  } else {
    auto wire_transport = std::make_unique<WireTransport>(options);
    wire = wire_transport.get();
    transport = std::move(wire_transport);
  }
  service::EncodingService& service = transport->service();

  // The wedged shard blocks on the gate until the run has seen the
  // failover; the gate opens on every exit path, before the service
  // stops, so the shard's driver can leave.
  auto gate = std::make_shared<Gate>();
  struct OpenOnExit {
    Gate& gate;
    ~OpenOnExit() { gate.Open(); }
  } open_on_exit{*gate};
  if (options.stall_shard) {
    service.shard(0).SetStallHook([gate]() { gate->Wait(); });
  }

  std::vector<std::thread> threads;
  const unsigned clients = std::max(1u, options.clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      DriveSlice(*transport, plans, c, clients, run);
    });
  }
  if (wire != nullptr) {
    for (std::size_t f = 0; f < options.fuzz_connections; ++f) {
      threads.emplace_back(
          [&, f]() { FuzzConnection(f, wire->client_options(), run); });
    }
  }
  for (std::thread& thread : threads) thread.join();

  // Post-fuzz health check: the server must still carry one clean
  // session end to end, bit-identical — once on the current protocol
  // and once as a v1 client, untouched by any v2 frame or field.
  if (wire != nullptr && options.fuzz_connections > 0 && !run.OutOfTime()) {
    plans.push_back(HealthPlan(options, plans.size(), false));
    plans.push_back(HealthPlan(options, plans.size(), true));
    DriveSlice(*transport, std::span<SessionPlan>(plans).last(2), 0, 1, run);
  }

  SoakOutcome outcome;
  if (options.stall_shard && service.failovers() == 0) {
    run.Fail("stall-shard: watchdog never failed over the wedged shard");
  }
  gate->Open();
  outcome.failovers = service.failovers();
  transport->Tally(outcome);

  for (const SessionPlan& plan : plans) {
    if (!plan.stats.has_value()) continue;
    const StatsReply& stats = *plan.stats;
    for (const std::string& failure :
         CheckSession(plan, stats, plan.acked, options.queue_capacity)) {
      run.Fail(Describe(plan, failure));
    }
    ++outcome.sessions;
    outcome.accesses += stats.stream_length;
    outcome.recovered_transfers += stats.transport.recovered;
    outcome.corrected_transfers += stats.transport.corrected;
    outcome.degraded_transfers += stats.transport.degraded_deliveries;
    if (stats.degraded) ++outcome.degraded_sessions;
    if (!stats.reset_points.empty()) ++outcome.evicted_sessions;
    if (plan.mode != SubmitMode::kRows) ++outcome.columnar_sessions;
    outcome.renegotiations += plan.acked.size();
    outcome.renegotiate_refusals += plan.refusals;
  }
  outcome.slowdowns = run.slowdowns.load();
  outcome.rejections = run.rejections.load();
  outcome.fuzz_frames = run.fuzz_frames.load();
  outcome.fuzz_errors = run.fuzz_errors.load();
  outcome.failures = std::move(run.failures);
  outcome.elapsed_s =
      std::chrono::duration<double>(Clock::now() - run.start).count();
  outcome.timed_out =
      run.ran_out.load() || (options.time_budget_s > 0.0 &&
                             outcome.elapsed_s > options.time_budget_s);
  return outcome;
}

}  // namespace abenc::net
