#include "service/service.h"

#include <stdexcept>
#include <utility>

namespace abenc::service {

EncodingService::EncodingService(ServiceConfig config)
    : config_(std::move(config)), metrics_(ServiceMetrics::Resolve()) {
  if (config_.shards == 0) {
    throw std::invalid_argument("EncodingService: shards must be nonzero");
  }
  const Shard::Policy policy{config_.drain_batch, config_.idle_evict_steps};
  shards_.reserve(config_.shards);
  for (unsigned i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, policy, &metrics_,
        [this](Session& session) { OnProgress(session); }));
  }
  // Shards start parked: the first Submit() arms its shard.
  if (config_.start_drivers) {
    const unsigned workers = config_.parallelism != 0
                                 ? config_.parallelism
                                 : ThreadPool::DefaultParallelism();
    pool_ = std::make_unique<ThreadPool>(workers);
    if (config_.enable_watchdog || config_.idle_evict_steps != 0) {
      watchdog_ = std::thread([this]() { WatchdogLoop(); });
    }
  }
}

EncodingService::~EncodingService() { Stop(); }

std::uint64_t EncodingService::OpenSession() {
  return OpenSession(config_.session);
}

std::uint64_t EncodingService::OpenSession(
    const SessionConfig& session_config) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const std::uint64_t id = next_session_id_++;
  auto session = std::make_shared<Session>(id, session_config, &metrics_);
  // Least-loaded placement over live shards, ties broken round-robin
  // from the cursor; a dead shard never gets new sessions. Retired
  // sessions have left their step lists, so a session opened as another
  // closes goes to an empty shard instead of doubling up behind a busy
  // one whatever order the opens and closes happened to interleave in.
  // With no retirements this is plain round-robin.
  Shard* target = nullptr;
  std::size_t target_load = 0;
  for (std::size_t probe = 0; probe < shards_.size(); ++probe) {
    Shard& shard = *shards_[(next_shard_ + probe) % shards_.size()];
    if (shard.dead()) continue;
    const std::size_t load = shard.size();
    if (target == nullptr || load < target_load) {
      target = &shard;
      target_load = load;
    }
  }
  if (target == nullptr) {
    throw std::runtime_error("EncodingService: every shard has failed");
  }
  next_shard_ = target->index() + 1;
  target->Add(session);
  sessions_.emplace(id, std::move(session));
  Bump(metrics_.sessions_opened);
  return id;
}

namespace {

std::shared_ptr<Session> FindSession(
    const std::map<std::uint64_t, std::shared_ptr<Session>>& sessions,
    std::uint64_t id, std::mutex& mutex) {
  std::lock_guard<std::mutex> lock(mutex);
  auto it = sessions.find(id);
  if (it == sessions.end()) {
    throw std::out_of_range("EncodingService: unknown session id " +
                            std::to_string(id));
  }
  return it->second;
}

bool Queued(Admission admission) {
  return admission == Admission::kAccepted ||
         admission == Admission::kSlowDown;
}

}  // namespace

Admission EncodingService::Submit(std::uint64_t session_id,
                                  std::span<const BusAccess> batch) {
  const std::shared_ptr<Session> session =
      FindSession(sessions_, session_id, sessions_mutex_);
  const Admission admission = session->Submit(batch);
  if (Queued(admission)) WakeShard(session->shard_index());
  return admission;
}

Admission EncodingService::SubmitColumns(std::uint64_t session_id,
                                         ColumnBatch&& batch) {
  const std::shared_ptr<Session> session =
      FindSession(sessions_, session_id, sessions_mutex_);
  const Admission admission = session->SubmitColumns(std::move(batch));
  if (Queued(admission)) WakeShard(session->shard_index());
  return admission;
}

RenegotiateOutcome EncodingService::Renegotiate(
    std::uint64_t session_id, const std::string& codec_name) {
  const std::shared_ptr<Session> session =
      FindSession(sessions_, session_id, sessions_mutex_);
  const RenegotiateOutcome outcome = session->Renegotiate(codec_name);
  if (outcome.status == RenegotiateStatus::kScheduled) {
    WakeShard(session->shard_index());
  }
  return outcome;
}

std::optional<RenegotiationSnapshot> EncodingService::StatsSnapshot(
    std::uint64_t session_id) const {
  return FindSession(sessions_, session_id, sessions_mutex_)
      ->StatsSnapshot();
}

void EncodingService::CloseSession(std::uint64_t session_id) {
  const std::shared_ptr<Session> session =
      FindSession(sessions_, session_id, sessions_mutex_);
  session->CloseInput();
  WakeShard(session->shard_index());  // a drained session retires now
}

bool EncodingService::EvictSession(std::uint64_t session_id) {
  return FindSession(sessions_, session_id, sessions_mutex_)->Evict();
}

SessionReport EncodingService::Report(std::uint64_t session_id) const {
  return FindSession(sessions_, session_id, sessions_mutex_)->Report();
}

void EncodingService::ReportInto(std::uint64_t session_id,
                                 SessionReport& report) const {
  FindSession(sessions_, session_id, sessions_mutex_)->ReportInto(report);
}

bool EncodingService::HasSession(std::uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.find(session_id) != sessions_.end();
}

bool EncodingService::WatchDrained(std::uint64_t session_id) {
  return FindSession(sessions_, session_id, sessions_mutex_)->WatchDrained();
}

bool EncodingService::WatchRoom(std::uint64_t session_id, std::size_t size) {
  return FindSession(sessions_, session_id, sessions_mutex_)->WatchRoom(size);
}

void EncodingService::SetQuiescenceHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hook_mutex_);
  quiescence_hook_ = std::move(hook);
}

std::vector<SessionReport> EncodingService::ReportAll() const {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  std::vector<SessionReport> reports;
  reports.reserve(sessions.size());
  for (const std::shared_ptr<Session>& session : sessions) {
    reports.push_back(session->Report());
  }
  return reports;
}

std::size_t EncodingService::total_queued() const {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  std::size_t total = 0;
  for (const std::shared_ptr<Session>& session : sessions) {
    total += session->queued();
  }
  return total;
}

bool EncodingService::Drain(std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  if (!config_.start_drivers) {
    for (;;) {
      if (total_queued() == 0) return true;
      if (std::chrono::steady_clock::now() >= until) return false;
      StepAll();
    }
  }
  // Register before looking (seq_cst, pairs with OnProgress): a drain
  // that empties the last queue either is seen by the predicate or
  // sees this waiter and notifies.
  drain_waiters_.fetch_add(1);
  std::unique_lock<std::mutex> lock(quiescent_mutex_);
  const bool drained = quiescent_cv_.wait_until(
      lock, until, [this]() { return total_queued() == 0; });
  drain_waiters_.fetch_sub(1);
  return drained;
}

ShutdownResult EncodingService::Stop(std::chrono::milliseconds deadline) {
  if (stopped_) return ShutdownResult::kDrained;
  stopping_.store(true, std::memory_order_release);
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  ShutdownResult result = ShutdownResult::kDrained;
  if (pool_) {
    result = pool_->Shutdown(deadline);
    if (result == ShutdownResult::kDrained) pool_.reset();
    // On kTimedOut the pool object is kept alive (its workers were
    // detached and share its internal state); destroying the service is
    // then safe, but the wedged task itself must not touch the service
    // after that — the caller unwedges or leaks it, as with any
    // deadline-abandonment scheme.
  }
  stopped_ = true;
  return result;
}

void EncodingService::StepAll() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->dead()) shard->Step();
  }
}

void EncodingService::DriveShard(std::size_t index) {
  Shard& shard = *shards_[index];
  if (stopping_.load(std::memory_order_acquire) || shard.dead()) return;
  bool worked = false;
  try {
    worked = shard.Step();
  } catch (...) {
    // A shard pass must never take the pool down; count and carry on.
    Bump(metrics_.shard_errors);
  }
  if (stopping_.load(std::memory_order_acquire) || shard.dead()) return;
  // An empty pass parks the shard (its worker goes back to the pool);
  // Park() re-checks for work that raced the pass.
  if (!worked && shard.Park()) return;
  // Still busy: re-queue behind the other shards' drivers for fairness.
  try {
    pool_->Submit([this, index]() { DriveShard(index); });
  } catch (const std::logic_error&) {
    // Shutdown began between the check above and the re-submit; done.
  }
}

void EncodingService::WakeShard(std::size_t index) {
  if (!pool_ || stopping_.load(std::memory_order_acquire)) return;
  Shard& shard = *shards_[index];
  if (shard.dead() || !shard.Wake()) return;
  try {
    pool_->Submit([this, index]() { DriveShard(index); });
  } catch (const std::logic_error&) {
    // Stopping: nothing drains any more.
  }
}

void EncodingService::OnProgress(Session& session) {
  if (session.TakeRoomWatch() || session.TakeDrainWatch()) {
    std::lock_guard<std::mutex> lock(hook_mutex_);
    if (quiescence_hook_) quiescence_hook_();
  }
  if (session.queued() == 0 && drain_waiters_.load() != 0) {
    // Taking the mutex orders this notify after a waiter's predicate
    // check, so the wake-up cannot fall between check and sleep.
    { std::lock_guard<std::mutex> lock(quiescent_mutex_); }
    quiescent_cv_.notify_all();
  }
}

void EncodingService::WatchdogLoop() {
  std::vector<std::uint64_t> last_beat(shards_.size(), 0);
  std::vector<unsigned> strikes(shards_.size(), 0);
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    watchdog_cv_.wait_for(lock, config_.watchdog_interval, [this]() {
      return stopping_.load(std::memory_order_acquire);
    });
    if (stopping_.load(std::memory_order_acquire)) return;
    if (config_.idle_evict_steps != 0) {
      // Parked shards take no passes of their own, so the tick supplies
      // the idle passes that idle eviction counts — only where an active
      // session is left to evict.
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (!shards_[i]->dead() && shards_[i]->HasActiveSessions()) {
          WakeShard(i);
        }
      }
    }
    if (!config_.enable_watchdog) continue;
    Bump(metrics_.watchdog_checks);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      if (shard.dead()) continue;
      const std::uint64_t beat = shard.heartbeat();
      if (beat != last_beat[i]) {
        last_beat[i] = beat;
        strikes[i] = 0;
        continue;
      }
      if (shard.pending() == 0) {
        strikes[i] = 0;  // frozen but idle: nothing to miss
        continue;
      }
      if (++strikes[i] >= config_.watchdog_stuck_strikes) {
        // Never fail over the last live shard: a starved-but-alive
        // shard will eventually drain, whereas killing it would strand
        // every session on a dead shard and deadlock Drain().
        unsigned live = 0;
        for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
          if (!shard_ptr->dead()) ++live;
        }
        if (live > 1) FailOver(i);
        strikes[i] = 0;
      }
    }
  }
}

void EncodingService::FailOver(std::size_t index) {
  Shard& stuck = *shards_[index];
  stuck.MarkDead();  // fence: a resuming zombie Step() exits untouched
  std::vector<std::shared_ptr<Session>> orphans = stuck.TakeAll();
  // Migrate to the surviving shards, round-robin. With no survivor the
  // sessions are parked back on the dead shard: nothing will drain them,
  // but Report()/Submit() still work and Stop() stays bounded.
  std::vector<Shard*> alive;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->dead()) alive.push_back(shard.get());
  }
  std::size_t target = 0;
  for (std::shared_ptr<Session>& orphan : orphans) {
    if (alive.empty()) {
      stuck.Add(std::move(orphan));
    } else {
      alive[target++ % alive.size()]->Add(std::move(orphan));
    }
  }
  // The orphans' queued work arrived while they sat on the dead shard.
  for (Shard* shard : alive) WakeShard(shard->index());
  failovers_.fetch_add(1, std::memory_order_relaxed);
  Bump(metrics_.watchdog_failovers);
}

}  // namespace abenc::service
