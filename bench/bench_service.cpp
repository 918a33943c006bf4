// Extension: what the always-on service layer costs over bare Evaluate().
//
// The same per-session streams are accounted twice — serially through
// Evaluate(), then through the full EncodingService stack (bounded
// queues, sharded drains, per-access channel delivery) — and the two
// throughputs are compared. Every session's EvalResult is asserted
// bit-identical to its serial reference before a number is printed, so
// the bench doubles as an end-to-end identity check of the service path.
//
// Flags: --parallelism N (service pool workers; 0 = hardware threads),
// --metrics PATH (export the run's abenc.metrics.v1 document). Other
// bench_util flags are accepted and ignored.
#include <chrono>
#include <iomanip>
#include <iostream>
#include <memory>
#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "verify/stream_gen.h"

namespace {

using namespace abenc;

constexpr std::size_t kSessions = 192;
constexpr std::size_t kLength = 3000;
constexpr std::uint64_t kSeed = 2024;

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  bench::MetricsSession metrics(options.metrics_path);

  const char* const codecs[] = {"t0", "bus-invert", "dual-t0-bi"};
  const std::vector<verify::StreamFamily> families =
      verify::AllStreamFamilies();

  std::vector<std::string> codec_of(kSessions);
  std::vector<std::vector<BusAccess>> streams(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    codec_of[i] = codecs[i % std::size(codecs)];
    streams[i] = verify::GenerateStream(
        families[i % families.size()],
        verify::MixSeed(kSeed + i), kLength, 32, 4);
  }

  // Serial baseline: Evaluate() per stream, one after another.
  const double serial_start = obs::MonotonicSeconds();
  std::vector<EvalResult> serial(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    CodecPtr codec = MakeCodec(codec_of[i]);
    serial[i] = Evaluate(*codec, streams[i]);
  }
  const double serial_s = obs::MonotonicSeconds() - serial_start;

  // The service: same streams through sessions, shards and channels.
  const double service_start = obs::MonotonicSeconds();
  service::ServiceConfig service_config;
  service_config.shards = 4;
  service_config.parallelism = options.parallelism;
  service_config.enable_watchdog = false;  // nothing to wedge here
  service::EncodingService service(service_config);
  std::vector<std::uint64_t> ids(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    service::SessionConfig config;
    config.codec_name = codec_of[i];
    ids[i] = service.OpenSession(config);
  }
  for (std::size_t offset = 0; offset < kLength; offset += 512) {
    const std::size_t n = std::min<std::size_t>(512, kLength - offset);
    for (std::size_t i = 0; i < kSessions; ++i) {
      while (service.Submit(ids[i],
                            std::span<const BusAccess>(streams[i])
                                .subspan(offset, n)) ==
             service::Admission::kRejected) {
      }
    }
  }
  if (!service.Drain(std::chrono::milliseconds(120000))) {
    std::cerr << "bench_service: service failed to drain\n";
    return 1;
  }
  service.Stop();
  const double service_s = obs::MonotonicSeconds() - service_start;

  // Identity gate before any number is reported.
  for (std::size_t i = 0; i < kSessions; ++i) {
    const EvalResult got = service.Report(ids[i]).result;
    if (got.transitions != serial[i].transitions ||
        got.peak_transitions != serial[i].peak_transitions ||
        got.per_line != serial[i].per_line ||
        got.in_sequence_percent != serial[i].in_sequence_percent) {
      std::cerr << "bench_service: session " << ids[i]
                << " diverged from serial Evaluate()\n";
      return 1;
    }
  }

  const double total = static_cast<double>(kSessions * kLength);
  std::cout << "bench_service: " << kSessions << " sessions x " << kLength
            << " accesses (" << static_cast<std::size_t>(total)
            << " total), bit-identical to serial Evaluate\n"
            << std::fixed << std::setprecision(2)
            << "  serial Evaluate : " << serial_s * 1e3 << " ms  ("
            << total / serial_s / 1e6 << " M accesses/s)\n"
            << "  encoding service: " << service_s * 1e3 << " ms  ("
            << total / service_s / 1e6 << " M accesses/s)\n"
            << "  service overhead: " << service_s / serial_s
            << "x (queues + per-access channel delivery + sharding)\n";

  metrics.WriteIfEnabled();
  return 0;
}
