// Per-layer probes for the traced run. Each probe times the benchmark's
// own calls into one layer's public API on the workload's inputs, with a
// span around every call, and reads counts from the layer's existing
// MetricsRegistry counters or ServerStats. No probe needs anything inside
// src/ beyond what a user of the libraries can call.
//
// Every probe also gates its outputs against the serial oracle; a
// mismatch is returned as a failure, never absorbed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lib/harness.h"
#include "lib/inputs.h"

namespace perfbench {

struct ProbeContext {
  const std::vector<Stream>& streams;
  const std::vector<std::string>& paths;  // packed .ctrace, parallel
  std::uint64_t seed = 0;
  unsigned workers = 1;  // RunComparison parallelism
  Tracer& tracer;
};

/// Accumulates per-layer metrics plus the probe's own failure count.
struct LayerReport {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  double Get(const std::string& name) const;
};

/// trace.ingest_ns_per_access: ViewColumns sweep of the packed files.
void ProbeIngest(const ProbeContext& ctx, LayerReport& out);

/// core.simd.*: ActiveKernels() called directly on the streams.
void ProbeKernels(const ProbeContext& ctx, LayerReport& out);

/// core.evaluator.* (serial EvaluateBatched per cell over the mmap
/// sources) and core.experiment.* (one RunComparison pass with the
/// registry installed). Needs ProbeKernels' results for self time.
void ProbeEvaluator(const ProbeContext& ctx, LayerReport& out);

/// channel.transfer_ns_per_access: BusChannel::Transfer with SECDED and
/// the wire-stream codec mix.
void ProbeChannel(const ProbeContext& ctx, LayerReport& out);

/// service.*: in-process EncodingService at the wire workloads'
/// parallelism, with its existing counters. Needs ProbeChannel and
/// ProbeEvaluator's results for self time.
void ProbeService(const ProbeContext& ctx, LayerReport& out);

/// net.protocol.*: the public net/protocol.h encoders and decoders.
void ProbeProtocol(const ProbeContext& ctx, LayerReport& out);

/// net.client.*, net.stats_deferral_ms, net.server.frames_per_kaccess,
/// net.rewound_accesses: one loopback connection doing a short
/// interactive exchange and two streamed sessions. Needs ProbeService's
/// drain-to-quiescent time.
void ProbeNet(const ProbeContext& ctx, LayerReport& out);

}  // namespace perfbench
