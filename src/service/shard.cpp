#include "service/shard.h"

#include <algorithm>
#include <utility>

namespace abenc::service {

void Shard::Add(std::shared_ptr<Session> session) {
  session->set_shard_index(index_);
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.push_back(std::move(session));
}

std::vector<std::shared_ptr<Session>> Shard::TakeAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Session>> taken;
  taken.swap(sessions_);
  return taken;
}

void Shard::SetStallHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  stall_hook_ = std::move(hook);
}

bool Shard::Wake() {
  wake_.store(true);
  return !armed_.exchange(true);
}

bool Shard::Park() {
  armed_.store(false);
  if (!wake_.load() && pending() == 0) return true;
  // Work arrived: carry on unless a waker already claimed the shard
  // (and so scheduled a driver of its own).
  return armed_.exchange(true);
}

bool Shard::Step() {
  if (dead()) return false;
  wake_.store(false);
  std::function<void()> hook;
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hook = stall_hook_;
    sessions = sessions_;
  }
  if (hook) hook();       // injected fault: a wedged shard hangs here
  if (dead()) return false;  // failed over while we were stuck

  bool worked = false;
  std::vector<const Session*> retired;
  for (const std::shared_ptr<Session>& session : sessions) {
    if (dead()) break;
    const std::size_t processed = session->DrainStep(policy_.drain_batch);
    worked |= processed != 0;
    // Eviction policy: bounded state for quiet or over-budget sessions.
    // Evict() itself re-checks eligibility (active, queue empty) under
    // the session's locks, so these are cheap pre-filters.
    if (session->OverBudget()) {
      session->Evict();
    } else if (processed == 0 && policy_.idle_evict_steps != 0 &&
               session->idle_steps() >= policy_.idle_evict_steps &&
               session->state() == SessionState::kActive) {
      session->Evict();
    }
    if (session->Retire()) retired.push_back(session.get());
    // Last, so whoever the notice wakes reads the pass's final report.
    if (processed != 0 && on_progress_) on_progress_(*session);
  }
  if (!retired.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(sessions_, [&](const std::shared_ptr<Session>& session) {
      return std::find(retired.begin(), retired.end(), session.get()) !=
             retired.end();
    });
  }
  Bump(metrics_->shard_steps);
  heartbeat_.fetch_add(1, std::memory_order_release);
  return worked;
}

std::size_t Shard::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const std::shared_ptr<Session>& session : sessions_) {
    total += session->queued();
  }
  return total;
}

std::size_t Shard::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

bool Shard::HasActiveSessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::any_of(sessions_.begin(), sessions_.end(),
                     [](const std::shared_ptr<Session>& session) {
                       return session->state() == SessionState::kActive;
                     });
}

}  // namespace abenc::service
