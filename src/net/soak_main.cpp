// abenc_soak: the encoding service under load, faults and hostile input.
//
// Plans --sessions sessions from --seed (codec, stream family, channel
// faults and protection, renegotiation thresholds, columnar submission
// and, on the wire, disconnect points), drives them from --clients
// threads through the bounded admission path of either an in-process
// EncodingService (--endpoint inproc) or a loopback abenc_serve
// (--endpoint tcp:HOST:PORT|unix:PATH, with --fuzz hostile connections
// alongside), then verifies every session's accounting bit-for-bit
// against a serial EvaluateWithSchedule() of its stream and reconciles
// every transport delivery.
//
// Exit status: 0 soak passed; 1 verification failures or a run that
// threw; 2 time budget exceeded or bad usage. See EXPERIMENTS.md for the
// flag reference.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "net/soak.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"

namespace {

using abenc::net::SoakOptions;
using abenc::net::SoakOutcome;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "abenc_soak: " << error << "\n"
            << "usage: abenc_soak [--endpoint inproc|tcp:HOST:PORT|unix:PATH]\n"
            << "  [--sessions N] [--length N] [--shards N] [--parallelism N]\n"
            << "  [--clients N] [--seed N] [--codec NAME] [--queue-cap N]\n"
            << "  [--watermark N] [--chunk N] [--fault-fraction F]\n"
            << "  [--renegotiate-fraction F] [--columnar-fraction F]\n"
            << "  [--disconnect-fraction F] [--fuzz N] [--evict-idle N]\n"
            << "  [--budget N] [--stall-shard] [--io-timeout-ms N]\n"
            << "  [--time-budget-s F] [--metrics PATH]\n";
  std::exit(2);
}

using Setter = std::function<void(const std::string&)>;

/// A flag's parser: writes the value into `field` (throws
/// std::logic_error on a malformed number).
template <typename T>
Setter Into(T& field) {
  return [&field](const std::string& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      field = value;
    } else if constexpr (std::is_floating_point_v<T>) {
      field = std::stod(value);
    } else {
      field = static_cast<T>(std::stoull(value));
    }
  };
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions options;
  std::string metrics_path;
  std::uint64_t io_timeout_ms = options.io_timeout.count();
  const std::pair<const char*, Setter> flags[] = {
      {"--endpoint", Into(options.endpoint)},
      {"--sessions", Into(options.sessions)},
      {"--length", Into(options.length)},
      {"--shards", Into(options.shards)},
      {"--parallelism", Into(options.parallelism)},
      {"--clients", Into(options.clients)},
      {"--seed", Into(options.seed)},
      {"--codec", Into(options.codec)},
      {"--queue-cap", Into(options.queue_capacity)},
      {"--watermark", Into(options.slowdown_watermark)},
      {"--chunk", Into(options.chunk)},
      {"--fault-fraction", Into(options.fault_fraction)},
      {"--renegotiate-fraction", Into(options.renegotiate_fraction)},
      {"--columnar-fraction", Into(options.columnar_fraction)},
      {"--disconnect-fraction", Into(options.disconnect_fraction)},
      {"--fuzz", Into(options.fuzz_connections)},
      {"--evict-idle", Into(options.idle_evict_steps)},
      {"--budget", Into(options.access_budget)},
      {"--io-timeout-ms", Into(io_timeout_ms)},
      {"--time-budget-s", Into(options.time_budget_s)},
      {"--metrics", Into(metrics_path)},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stall-shard") {
      options.stall_shard = true;
      continue;
    }
    // `--flag value` and `--flag=value`.
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto flag = std::find_if(
        std::begin(flags), std::end(flags),
        [&](const auto& entry) { return name == entry.first; });
    if (flag == std::end(flags)) Usage("unknown flag " + arg);
    if (eq == std::string::npos && i + 1 >= argc) {
      Usage(name + " requires a value");
    }
    const std::string value =
        eq == std::string::npos ? argv[++i] : arg.substr(eq + 1);
    try {
      flag->second(value);
    } catch (const std::logic_error&) {  // invalid_argument, out_of_range
      Usage("bad value for " + name);
    }
  }
  options.io_timeout = std::chrono::milliseconds(io_timeout_ms);
  if (const std::string error = abenc::net::SoakUsageError(options);
      !error.empty()) {
    Usage(error);
  }

  std::unique_ptr<abenc::obs::MetricsRegistry> registry;
  std::unique_ptr<abenc::obs::ScopedInstall> install;
  if (!metrics_path.empty()) {
    registry = std::make_unique<abenc::obs::MetricsRegistry>();
    install = std::make_unique<abenc::obs::ScopedInstall>(registry.get());
  }

  SoakOutcome outcome;
  try {
    outcome = abenc::net::RunSoak(options);
  } catch (const std::exception& e) {
    std::cerr << "abenc_soak: fatal: " << e.what() << "\n";
    return 1;
  }
  const bool wire = options.endpoint != "inproc";

  std::cout << "abenc_soak: " << outcome.sessions << " sessions, "
            << outcome.accesses << " accesses over " << options.endpoint
            << " in " << outcome.elapsed_s << "s\n"
            << "  transport: " << outcome.corrected_transfers
            << " corrected, " << outcome.recovered_transfers
            << " recovered, " << outcome.degraded_transfers
            << " degraded deliveries (" << outcome.degraded_sessions
            << " sessions degraded)\n"
            << "  flow control: " << outcome.slowdowns << " slow-downs, "
            << outcome.rejections << " rejections (resubmitted); evicted "
            << outcome.evicted_sessions << " sessions; failovers "
            << outcome.failovers << "\n"
            << "  renegotiation: " << outcome.renegotiations
            << " acked switches, " << outcome.renegotiate_refusals
            << " clean refusals; columnar sessions: "
            << outcome.columnar_sessions << "\n";
  if (wire) {
    std::cout << "  disconnect injection: " << outcome.disconnects
              << " kills, " << outcome.resumes << " ATTACH resumes; "
              << outcome.old_version_sessions << " v1 old-client sessions\n"
              << "  fuzz: " << outcome.fuzz_frames << " hostile deliveries, "
              << outcome.fuzz_errors << " clean protocol errors\n"
              << "  server: " << outcome.server.connections_accepted
              << " connections, " << outcome.server.frames_received
              << " frames in, " << outcome.server.frames_sent
              << " frames out, " << outcome.server.protocol_errors
              << " protocol errors, " << outcome.server.timeouts
              << " timeouts\n";
  }

  if (!metrics_path.empty()) {
    abenc::obs::WriteMetricsFile(metrics_path, *registry);
    std::cout << "  metrics written to " << metrics_path << "\n";
  }

  if (outcome.timed_out) {
    std::cerr << "abenc_soak: TIME BUDGET EXCEEDED (" << options.time_budget_s
              << "s)\n";
    return 2;
  }
  if (!outcome.failures.empty()) {
    std::cerr << "abenc_soak: " << outcome.failures.size()
              << " failure(s):\n";
    for (const std::string& failure : outcome.failures) {
      std::cerr << "  " << failure << "\n";
    }
    return 1;
  }
  std::cout << "  bit-identity vs serial EvaluateWithSchedule: OK\n";
  return 0;
}
