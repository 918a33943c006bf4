// Extension: what the wire costs, and what pipelining buys back.
//
// One loopback Server, three submission disciplines for the same
// deterministic per-session streams:
//
//   submit     classic v1-style lock-step SUBMIT: one frame in flight,
//              one ack per frame (the pre-pipelining wire path).
//   pipelined  SUBMIT_STREAM with a window of frames in flight and an
//              ack per frame, plus one mid-stream codec renegotiation
//              pinned deterministically at the half-way drain point.
//   mmap       SUBMIT_STREAM in streaming bulk mode (sparse acks), fed
//              straight from a memory-mapped columnar `.ctrace` via
//              ViewColumns — no row materialisation client-side.
//
// Every session's STATS is verified bit-identical to a serial
// EvaluateWithSchedule() replay before any number is printed, so the
// bench doubles as an end-to-end identity check of the wire paths. The
// --json document carries only the deterministic accounting (never
// timings), which is what the CI bench-regression gate diffs.
//
// Flags: --json PATH (abenc.net_pipeline.v1 document), --metrics PATH.
// Other bench_util flags are accepted and ignored.
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.h"
#include "core/stream_evaluator.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "report/json_writer.h"
#include "trace/mmap_trace.h"
#include "verify/stream_gen.h"

namespace {

using namespace abenc;

constexpr std::size_t kSessions = 12;
constexpr std::size_t kLength = 6000;
constexpr std::uint64_t kSeed = 77;
constexpr std::size_t kChunk = 256;

const char* const kCodecs[] = {"t0", "bus-invert", "gray"};

/// Deterministic accounting of one mode across its sessions — the
/// fields the baseline gate compares (timings never go in here).
struct ModeOutcome {
  std::string mode;
  std::uint64_t accesses = 0;
  long long transitions = 0;
  long long peak_transitions = 0;
  std::uint64_t switches = 0;
  double seconds = 0.0;  // printed, not baselined
};

/// Fetch the drained STATS and demand bit-identity with the serial
/// EvaluateWithSchedule replay of this session's stream + schedule.
/// Returns false (with a diagnostic) on any divergence.
bool VerifyAndFold(net::Client& client, std::uint64_t id,
                   const std::string& initial_codec,
                   std::span<const BusAccess> stream, ModeOutcome& out) {
  const net::StatsReply stats = client.DrainStats(id, /*wait_drained=*/true);
  if (stats.accepted != stream.size()) {
    std::cerr << "bench_net_pipeline: session " << id << " accepted "
              << stats.accepted << " of " << stream.size() << " accesses\n";
    return false;
  }
  const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                        stats.reset_points.end());
  const EvalResult expected = EvaluateWithSchedule(
      initial_codec, CodecOptions{}, stream, stats.renegotiations, resets);
  if (stats.transitions != expected.transitions ||
      stats.peak_transitions != expected.peak_transitions ||
      stats.in_sequence_percent != expected.in_sequence_percent ||
      stats.per_line != expected.per_line) {
    std::cerr << "bench_net_pipeline: session " << id
              << " diverged from serial EvaluateWithSchedule\n";
    return false;
  }
  out.accesses += stats.accepted;
  out.transitions += stats.transitions;
  out.peak_transitions += stats.peak_transitions;
  out.switches += stats.renegotiations.size();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  bench::MetricsSession metrics(options.metrics_path);

  const std::vector<verify::StreamFamily> families =
      verify::AllStreamFamilies();
  std::vector<std::string> codec_of(kSessions);
  std::vector<std::vector<BusAccess>> streams(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    codec_of[i] = kCodecs[i % std::size(kCodecs)];
    streams[i] = verify::GenerateStream(families[i % families.size()],
                                        verify::MixSeed(kSeed + i), kLength,
                                        32, 4);
  }

  // Serial in-process baseline: what the same accounting costs with no
  // wire at all.
  const double serial_start = obs::MonotonicSeconds();
  for (std::size_t i = 0; i < kSessions; ++i) {
    CodecPtr codec = MakeCodec(codec_of[i]);
    (void)Evaluate(*codec, streams[i]);
  }
  const double serial_s = obs::MonotonicSeconds() - serial_start;

  net::ServerConfig server_config;
  server_config.service.shards = 4;
  server_config.service.enable_watchdog = false;
  net::Server server(server_config);
  server.Start();

  std::vector<ModeOutcome> modes;

  // -- Mode 1: lock-step SUBMIT, one frame + one ack at a time. --
  {
    net::ClientOptions copt;
    copt.endpoint = server.endpoint();
    net::Client client(copt);
    std::vector<std::uint64_t> ids(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      net::OpenRequest open;
      open.codec = codec_of[i];
      // Deep queue: the bench measures wire discipline, not admission
      // backpressure (rejection/backoff cycles would time the server's
      // drain rate instead).
      open.queue_capacity = 2 * kLength;
      open.slowdown_watermark = kLength + kLength / 2;
      ids[i] = client.Open(open).session_id;
    }
    ModeOutcome out;
    out.mode = "submit";
    const double start = obs::MonotonicSeconds();
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::span<const BusAccess> span(streams[i]);
      for (std::size_t at = 0; at < span.size();) {
        const std::size_t n = std::min(kChunk, span.size() - at);
        const net::SubmitAck ack =
            client.Submit(ids[i], span.subspan(at, n));
        if (ack.status == net::Status::kRejected) continue;  // resubmit
        at += n;
      }
    }
    out.seconds = obs::MonotonicSeconds() - start;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (!VerifyAndFold(client, ids[i], codec_of[i], streams[i], out)) {
        return 1;
      }
      client.Close(ids[i]);
    }
    modes.push_back(out);
  }

  // -- Mode 2: pipelined SUBMIT_STREAM (windowed, ack per frame) with a
  // renegotiation pinned at the half-way drain point. --
  {
    net::ClientOptions copt;
    copt.endpoint = server.endpoint();
    net::Client client(copt);
    std::vector<std::uint64_t> ids(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      net::OpenRequest open;
      open.codec = codec_of[i];
      // Deep queue: the bench measures wire discipline, not admission
      // backpressure (rejection/backoff cycles would time the server's
      // drain rate instead).
      open.queue_capacity = 2 * kLength;
      open.slowdown_watermark = kLength + kLength / 2;
      ids[i] = client.Open(open).session_id;
    }
    ModeOutcome out;
    out.mode = "pipelined";
    constexpr std::size_t kHalf = kLength / 2;
    std::vector<std::vector<Word>> addresses(kSessions);
    std::vector<std::vector<std::uint8_t>> sel(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      addresses[i].resize(kLength);
      sel[i].resize(kLength);
      for (std::size_t k = 0; k < kLength; ++k) {
        addresses[i][k] = streams[i][k].address;
        sel[i][k] = streams[i][k].sel ? 1 : 0;
      }
    }
    net::StreamSubmitOptions sopt;
    sopt.chunk = kChunk;
    sopt.window = 8;
    sopt.ack_interval = 1;
    const double start = obs::MonotonicSeconds();
    // Three phases so the per-session half-way drains overlap: submit
    // every first half, then drain + renegotiate each (the drains have
    // mostly completed in the background by then), then submit every
    // second half.
    for (std::size_t i = 0; i < kSessions; ++i) {
      (void)client.SubmitColumns(ids[i], addresses[i].data(), sel[i].data(),
                                 kHalf, sopt);
    }
    for (std::size_t i = 0; i < kSessions; ++i) {
      // Drain so the switch pins at exactly kHalf — deterministic for
      // the baseline gate, and the renegotiated wire path gets covered.
      (void)client.DrainStats(ids[i], /*wait_drained=*/true);
      const std::string next = kCodecs[(i + 1) % std::size(kCodecs)];
      const net::RenegotiateReply ack = client.Renegotiate(ids[i], next);
      if (ack.switch_index != kHalf) {
        std::cerr << "bench_net_pipeline: switch pinned at "
                  << ack.switch_index << ", expected " << kHalf << "\n";
        return 1;
      }
    }
    net::StreamSubmitOptions second = sopt;
    second.start = kHalf;
    for (std::size_t i = 0; i < kSessions; ++i) {
      (void)client.SubmitColumns(ids[i], addresses[i].data(), sel[i].data(),
                                 kLength, second);
    }
    out.seconds = obs::MonotonicSeconds() - start;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (!VerifyAndFold(client, ids[i], codec_of[i], streams[i], out)) {
        return 1;
      }
      client.Close(ids[i]);
    }
    modes.push_back(out);
  }

  // -- Mode 3: streaming bulk SUBMIT_STREAM (sparse acks) fed from a
  // memory-mapped columnar trace — zero row copies client-side. --
  {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("abenc_bench_net_pipeline_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      AddressTrace trace("bench-net-pipeline");
      trace.Reserve(kLength);
      for (const BusAccess& access : streams[i]) {
        trace.Append(access.address, access.sel ? AccessKind::kInstruction
                                                : AccessKind::kData);
      }
      paths[i] = (dir / ("s" + std::to_string(i) + ".ctrace")).string();
      WriteColumnarTrace(paths[i], trace);
    }

    net::ClientOptions copt;
    copt.endpoint = server.endpoint();
    net::Client client(copt);
    std::vector<std::uint64_t> ids(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      net::OpenRequest open;
      open.codec = codec_of[i];
      // Deep queue: the bench measures wire discipline, not admission
      // backpressure (rejection/backoff cycles would time the server's
      // drain rate instead).
      open.queue_capacity = 2 * kLength;
      open.slowdown_watermark = kLength + kLength / 2;
      ids[i] = client.Open(open).session_id;
    }
    ModeOutcome out;
    out.mode = "mmap-stream";
    const double start = obs::MonotonicSeconds();
    for (std::size_t i = 0; i < kSessions; ++i) {
      MmapTraceSource source(paths[i]);
      TraceColumns columns;
      const std::size_t viewed =
          source.ViewColumns(0, source.size(), &columns);
      if (viewed != kLength) {
        std::cerr << "bench_net_pipeline: ViewColumns returned " << viewed
                  << " of " << kLength << " accesses\n";
        return 1;
      }
      net::StreamSubmitOptions sopt;
      sopt.chunk = kChunk;
      sopt.window = 8;
      sopt.ack_interval = 8;
      (void)client.SubmitColumns(ids[i], columns.addresses, columns.sel,
                                 kLength, sopt);
    }
    out.seconds = obs::MonotonicSeconds() - start;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (!VerifyAndFold(client, ids[i], codec_of[i], streams[i], out)) {
        return 1;
      }
      client.Close(ids[i]);
    }
    modes.push_back(out);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  server.Stop();

  const double total = static_cast<double>(kSessions * kLength);
  std::cout << "bench_net_pipeline: " << kSessions << " sessions x "
            << kLength << " accesses over loopback, bit-identical to "
            << "serial EvaluateWithSchedule\n"
            << std::fixed << std::setprecision(2)
            << "  serial Evaluate  : " << serial_s * 1e3 << " ms  ("
            << total / serial_s / 1e6 << " M accesses/s, no wire)\n";
  for (const ModeOutcome& out : modes) {
    std::cout << "  " << std::left << std::setw(17) << out.mode << std::right
              << ": " << out.seconds * 1e3 << " ms  ("
              << total / out.seconds / 1e6 << " M accesses/s, "
              << out.switches << " switches)\n";
  }

  if (!options.json_path.empty()) {
    JsonValue doc = JsonValue::MakeObject();
    doc.Set("schema", "abenc.net_pipeline.v1");
    doc.Set("sessions", kSessions);
    doc.Set("length", kLength);
    JsonValue mode_array = JsonValue::MakeArray();
    for (const ModeOutcome& out : modes) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("mode", out.mode);
      entry.Set("accesses", out.accesses);
      entry.Set("transitions", static_cast<long long>(out.transitions));
      entry.Set("peak_transitions",
                static_cast<long long>(out.peak_transitions));
      entry.Set("switches", out.switches);
      mode_array.Append(std::move(entry));
    }
    doc.Set("modes", std::move(mode_array));
    WriteJsonFile(options.json_path, doc);
    std::cout << "\nJSON written to " << options.json_path << "\n";
  }

  metrics.WriteIfEnabled();
  return 0;
}
