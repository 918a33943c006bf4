// The soak engine: thousands of synthetic sessions driven by concurrent
// client threads through the full backpressure path, under seeded
// per-session channel faults, mid-stream codec renegotiation, eviction
// churn and (optionally) a deliberately wedged shard — then every
// session's accounting is checked bit-for-bit against a serial
// EvaluateWithSchedule() of the same stream, replaying the acked switch
// schedule (an empty schedule degenerates to EvaluateWithResets).
//
// One planner, one drive loop and one oracle run over either of two
// transports, picked by SoakOptions::endpoint:
//  - "inproc" calls an EncodingService directly (Submit / SubmitColumns,
//    Renegotiate, Report);
//  - "tcp:HOST:PORT" or "unix:PATH" starts a loopback Server there and
//    drives it with one net::Client connection per session (SUBMIT or
//    windowed SUBMIT_STREAM, RENEGOTIATE, DRAIN_STATS), kills a
//    fraction of the connections mid-stream — every second kill
//    mid-frame — and resumes them exactly-once via ATTACH. A swarm of
//    hostile connections walks the malformed-frame catalogue meanwhile,
//    and a post-fuzz health check runs one clean session over the
//    current protocol and one over v1.
//
// What one run proves:
//  - bit-identity: per-session transitions, peak, per-line histogram,
//    stream length and in-sequence percentage all equal the serial
//    reference, however shards interleaved the drains, which clients
//    were paced or rejected, or which connections were killed;
//  - the applied switch schedule equals the acked one (no switch lost,
//    duplicated or re-pinned);
//  - accounted delivery: clean + corrected + recovered +
//    degraded_deliveries == transfers == stream length for every
//    session — each injected fault was healed or demoted to the binary
//    fallback, never silently corrupted;
//  - bounded queues: no session's peak depth exceeded its capacity;
//  - containment (wire): every hostile delivery ends in a protocol
//    ERROR or an orderly close, never a wedged connection;
//  - liveness: the run finished within the time budget, including with
//    shard 0 wedged so the watchdog failover runs under load.
//
// Everything is a pure function of --seed: sessions rotate through the
// codec palette, the verify subsystem's stream families and the fault
// palette, with per-session sub-seeds derived via verify::MixSeed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "channel/bus_channel.h"
#include "net/server.h"

namespace abenc::net {

/// The soak codec rotation, which is also the renegotiation palette:
/// the paper's main history and stateless codes, a redundant-line code
/// and the dual multiplexed code, so a rotating workload exercises
/// every frame geometry the channel knows.
std::span<const char* const> SoakCodecPalette();

/// Deterministic per-session fault plan: maps a sub-seed and stream
/// length to a channel fault installer drawn from the soak's fault
/// palette (upset / burst / noise / mid-stream stuck-at). Pure function
/// of its arguments, so a server-side injection (OPEN's fault_seed
/// hook) replays bit-for-bit.
std::function<void(BusChannel&)> PlanSoakFault(std::uint64_t seed,
                                               std::size_t length);

struct SoakOptions {
  /// "inproc", "tcp:HOST:PORT" (port 0 = ephemeral) or "unix:PATH".
  std::string endpoint = "inproc";
  std::size_t sessions = 1000;
  std::size_t length = 512;  // accesses per session stream
  unsigned shards = 4;
  unsigned parallelism = 2;  // pool workers (>=2 enables failover)
  unsigned clients = 4;      // client threads, each owning a slice
  std::uint64_t seed = 1;
  /// Restrict every session to one codec (empty: rotate the palette).
  std::string codec;
  std::size_t queue_capacity = 256;      // small on purpose: exercise
  std::size_t slowdown_watermark = 192;  // backpressure under load
  std::size_t chunk = 64;                // accesses per submission
  /// Fraction of sessions with channel fault models installed.
  double fault_fraction = 0.5;
  /// Fraction of sessions issuing mid-stream renegotiations (palette
  /// targets, or the server policy's choice, at deterministic
  /// thresholds including one pinned to the exact end of the stream).
  double renegotiate_fraction = 0.0;
  /// Fraction of sessions submitting columns instead of rows:
  /// SubmitColumns in-process, windowed SUBMIT_STREAM on the wire. When
  /// this or renegotiate_fraction is nonzero, one in eight sessions
  /// keeps the version-1 feature set (rows, no renegotiation) and, on
  /// the wire, connects as a v1 client.
  double columnar_fraction = 0.0;
  /// Wire only: fraction of sessions whose connection is killed twice
  /// mid-stream and resumed via ATTACH.
  double disconnect_fraction = 0.0;
  /// Wire only: hostile connections, each walking the violation
  /// catalogue concurrently with the traffic. Nonzero also runs the
  /// post-fuzz health check.
  std::size_t fuzz_connections = 0;
  /// Shard policy: evict a session after this many idle drain passes
  /// (0 = never) — exercises mid-stream eviction + lazy re-admission.
  std::uint64_t idle_evict_steps = 0;
  /// Per-session access budget (0 = unlimited): forces evictions while
  /// traffic is still arriving.
  std::uint64_t access_budget = 0;
  /// Wedge shard 0 and require the watchdog to fail it over mid-run.
  bool stall_shard = false;
  /// Bound on one reply: the client socket timeout on the wire (sized
  /// for a drained STATS), the wait for a drained report in-process.
  std::chrono::milliseconds io_timeout{20000};
  /// Abort (outcome.timed_out) past this many seconds; 0 = no budget.
  double time_budget_s = 0.0;
};

/// Empty if RunSoak can run `options`; otherwise why not (a usage
/// error: a chunk no queue could admit, or a wire-only option on the
/// in-process transport).
std::string SoakUsageError(const SoakOptions& options);

struct SoakOutcome {
  std::size_t sessions = 0;  // sessions that reached the oracle
  std::uint64_t accesses = 0;
  std::size_t degraded_sessions = 0;  // transport ever demoted to binary
  std::size_t evicted_sessions = 0;   // >=1 reset point logged
  std::uint64_t recovered_transfers = 0;
  std::uint64_t corrected_transfers = 0;
  std::uint64_t degraded_transfers = 0;
  std::uint64_t slowdowns = 0;   // slow-down verdicts observed
  std::uint64_t rejections = 0;  // rejected batches (resubmitted)
  std::uint64_t renegotiations = 0;        // acked codec switches
  std::uint64_t renegotiate_refusals = 0;  // clean refusals (tolerated)
  std::size_t columnar_sessions = 0;
  std::uint64_t failovers = 0;
  // Wire transport only.
  std::uint64_t disconnects = 0;  // injected connection kills
  std::uint64_t resumes = 0;      // successful ATTACH resumes
  std::uint64_t fuzz_frames = 0;  // hostile frames/blobs delivered
  std::uint64_t fuzz_errors = 0;  // clean protocol ERRORs received
  std::size_t old_version_sessions = 0;  // v1-client sessions verified
  ServerStats server;                    // loop counters at shutdown
  double elapsed_s = 0.0;
  bool timed_out = false;
  std::vector<std::string> failures;  // empty == soak passed

  bool ok() const { return failures.empty() && !timed_out; }
};

/// Throws std::invalid_argument on a usage error (SoakUsageError). A
/// session that cannot open (say, a codec the factory refuses) is a
/// failure of that session; a server that cannot bind throws.
SoakOutcome RunSoak(const SoakOptions& options);

}  // namespace abenc::net
