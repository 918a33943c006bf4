// The three workloads (perfbench/README.md says why each exists):
//
//   offline-sweep     RunComparison over the packed streams, parallel grid
//   wire-stream       two connections streaming whole inputs through
//                     SUBMIT_STREAM into a loopback net::Server
//   wire-interactive  two connections in lock step: small SUBMIT, drained
//                     STATS, an occasional RENEGOTIATE
//
// Each is a closed loop driven from this process. An untraced run
// reports the end-to-end metrics; a traced run splits its time between
// an untraced and a traced loop (their throughput difference is the
// tracing overhead) and then runs every layer probe (lib/probes.h).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "lib/harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Work directory for packed traces and span dumps; created if
  /// missing, packed traces removed at the end.
  std::string work_dir = ".";
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

/// Run one workload; human-readable lines go to `log`. Throws
/// std::invalid_argument for an unknown workload name.
Outcome RunWorkload(const RunConfig& config, std::ostream& log);

}  // namespace perfbench
