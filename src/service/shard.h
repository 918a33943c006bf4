// A shard of the encoding service: the unit of parallelism and of
// failure containment. Each shard owns a set of sessions and drains them
// round-robin, one bounded batch per session per Step(). A driver task
// on the service's thread pool runs Step() while it finds work and then
// parks the shard; Wake() re-arms it (see "Drive model" below).
//
// Robustness hooks:
//  - a heartbeat counter advances at the end of every Step(), so the
//    service watchdog can tell a wedged shard (heartbeat frozen while
//    sessions have queued work) from an idle one;
//  - MarkDead() fences a failed-over shard: a zombie Step() that resumes
//    after failover observes the flag and exits without touching the
//    sessions, which by then belong to another shard (session drains are
//    additionally serialized by each session's own drain mutex, so even
//    the fence race is safe);
//  - TakeAll() migrates the sessions out for failover;
//  - a stall hook injects the "stuck shard" fault itself — the soak
//    harness and tests wedge a shard on purpose to prove the watchdog
//    path end to end.
//
// Step() also applies the eviction policy after draining each session:
// idle sessions (no work for `idle_evict_steps` consecutive steps) and
// over-budget sessions are evicted — bounded state, deterministic
// teardown (see session.h). A closed session whose queue has drained is
// retired (Session::Retire) and leaves the step list for good.
//
// Drive model: `armed_` is true while a driver task is queued or running.
// Wake() sets `wake_` and claims `armed_`; a caller that claims it must
// schedule a driver. Step() clears `wake_` before its pass, and a pass
// that finds no work calls Park(), which releases `armed_` and then
// re-checks `wake_` and pending(): a wake-up that raced the empty pass
// is never lost, because either the waker claims `armed_` after the
// release or the re-check sees its flag.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "service/session.h"

namespace abenc::service {

class Shard {
 public:
  struct Policy {
    std::size_t drain_batch = 256;       // accesses per session per step
    std::uint64_t idle_evict_steps = 0;  // 0 = never idle-evict
  };

  /// `on_progress` runs on the stepping thread after every DrainStep()
  /// that processed work, once the pass has decided the session's
  /// eviction and retirement.
  Shard(unsigned index, Policy policy, const ServiceMetrics* metrics,
        std::function<void(Session&)> on_progress = {})
      : index_(index),
        policy_(policy),
        metrics_(metrics),
        on_progress_(std::move(on_progress)) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  unsigned index() const { return index_; }

  void Add(std::shared_ptr<Session> session);

  /// Remove and return every session (watchdog failover).
  std::vector<std::shared_ptr<Session>> TakeAll();

  /// One drain pass over all owned sessions; returns whether any access
  /// was processed. No-op once dead.
  bool Step();

  /// Signal work for this shard. Returns true when the shard was parked
  /// and the caller must now schedule a driver task for it.
  bool Wake();

  /// Driver side, after a pass that found no work: park the shard.
  /// Returns true when parked; false when work arrived meanwhile and
  /// the calling driver must carry on.
  bool Park();

  /// Sessions in the step list (live ones; retired sessions leave it).
  std::size_t size() const;

  /// Whether any owned session is active (not evicted): the sessions an
  /// idle-eviction pass can still act on.
  bool HasActiveSessions() const;

  /// Advances at the end of every completed Step().
  std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_acquire);
  }

  /// Total accesses queued across owned sessions (approximate — sampled
  /// without stopping the world; the watchdog only needs "is there
  /// work").
  std::size_t pending() const;

  bool dead() const { return dead_.load(std::memory_order_acquire); }
  void MarkDead() { dead_.store(true, std::memory_order_release); }

  /// Fault-injection hook, fired at the start of every Step(); install
  /// before traffic starts. A hook that blocks models a wedged shard.
  void SetStallHook(std::function<void()> hook);

 private:
  const unsigned index_;
  const Policy policy_;
  const ServiceMetrics* metrics_;
  const std::function<void(Session&)> on_progress_;

  mutable std::mutex mutex_;  // guards sessions_ and stall_hook_
  std::vector<std::shared_ptr<Session>> sessions_;
  std::function<void()> stall_hook_;

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> dead_{false};
  std::atomic<bool> armed_{false};  // a driver is queued or running
  std::atomic<bool> wake_{false};   // work signalled since the last pass
};

}  // namespace abenc::service
