#include "lib/probes.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "channel/bus_channel.h"
#include "core/codec_factory.h"
#include "core/experiment.h"
#include "core/simd/kernel_dispatch.h"
#include "core/simd/kernels.h"
#include "lib/gates.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "trace/mmap_trace.h"

namespace perfbench {
namespace {

using abenc::BusAccess;
using abenc::BusState;
using abenc::EvalResult;
namespace simd = abenc::simd;

constexpr abenc::Word kStride = 4;
constexpr std::size_t kChunk = 4096;
constexpr unsigned kWidth = 32;

const std::array<const char*, 6> kKernelCodecs = {
    "binary", "gray", "offset", "t0", "inc-xor", "bus-invert"};

std::size_t TotalAccesses(const std::vector<Stream>& streams) {
  std::size_t total = 0;
  for (const Stream& s : streams) total += s.size();
  return total;
}

template <class F>
double MedianSeconds(int repeats, F&& body) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const double start = Now();
    body();
    samples.push_back(Now() - start);
  }
  return Median(std::move(samples));
}

double MedianOr0(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Median(values);
}

std::vector<std::shared_ptr<const abenc::MmapTraceSource>> OpenSources(
    const std::vector<std::string>& paths) {
  std::vector<std::shared_ptr<const abenc::MmapTraceSource>> sources;
  for (const std::string& path : paths) {
    sources.push_back(std::make_shared<abenc::MmapTraceSource>(path));
  }
  return sources;
}

}  // namespace

double LayerReport::Get(const std::string& name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  throw std::logic_error("per-layer metric not measured yet: " + name);
}

void ProbeIngest(const ProbeContext& ctx, LayerReport& out) {
  const auto sources = OpenSources(ctx.paths);
  std::uint64_t expected = 0;
  for (const Stream& s : ctx.streams) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      expected += s.addresses[i] + s.sel[i];
    }
  }
  std::uint64_t sum = 0;
  const double seconds = MedianSeconds(9, [&] {
    ScopedSpan span(ctx.tracer, "trace.MmapTraceSource.ViewColumns", 0);
    sum = 0;
    for (const auto& source : sources) {
      abenc::TraceColumns columns;
      for (std::size_t offset = 0; offset < source->size();) {
        const std::size_t n = source->ViewColumns(offset, kChunk, &columns);
        if (n == 0) break;
        for (std::size_t i = 0; i < n; ++i) {
          sum += columns.addresses[i] + columns.sel[i];
        }
        offset += n;
      }
    }
  });
  ++out.attempted;
  if (sum != expected) ++out.failed;
  out.Add("trace.ingest_ns_per_access",
          seconds * 1e9 / static_cast<double>(TotalAccesses(ctx.streams)),
          "ns");
}

void ProbeKernels(const ProbeContext& ctx, LayerReport& out) {
  const simd::KernelTable& k = simd::ActiveKernels();
  const abenc::Word mask = abenc::LowMask(kWidth);
  const double total = static_cast<double>(TotalAccesses(ctx.streams));
  std::vector<BusState> states(kChunk);

  // Runs `kernel(view, n)` over every stream chunk by chunk; `reset`
  // restores the kernel's carried registers at each stream start.
  const auto sweep_all = [&](auto&& reset, auto&& kernel) {
    for (const Stream& s : ctx.streams) {
      reset();
      for (std::size_t off = 0; off < s.size(); off += kChunk) {
        const std::size_t n = std::min(kChunk, s.size() - off);
        kernel(simd::AddressView{s.addresses.data() + off, 1}, n);
      }
    }
  };

  abenc::Word prev_addr = 0;
  abenc::Word prev_bus_word = 0;
  bool has_prev = false;
  BusState prev_bus;
  const auto reset = [&] {
    prev_addr = 0;
    prev_bus_word = 0;
    has_prev = false;
    prev_bus = BusState{};
  };
  for (const char* codec : kKernelCodecs) {
    const std::string name = codec;
    const double seconds = MedianSeconds(3, [&] {
      ScopedSpan span(ctx.tracer, "core.simd.encode." + name, 0);
      sweep_all(reset, [&](simd::AddressView v, std::size_t n) {
        if (name == "binary") {
          k.binary(v, n, mask, states.data());
        } else if (name == "gray") {
          // The factory's "gray" is stride-1 Gray: no low field.
          k.gray(v, n, mask, 0, mask, states.data());
        } else if (name == "offset") {
          k.offset(v, n, mask, &prev_addr, states.data());
        } else if (name == "t0") {
          k.t0(v, n, mask, kStride, &has_prev, &prev_addr, &prev_bus,
               states.data());
        } else if (name == "inc-xor") {
          k.inc_xor(v, n, mask, kStride, &prev_addr, &prev_bus_word,
                    states.data());
        } else {
          k.bus_invert(v, n, mask, static_cast<int>(kWidth), &prev_bus,
                       states.data());
        }
      });
    });
    out.Add("core.simd.encode_ns_per_access." + name,
            seconds * 1e9 / total, "ns");
  }

  // The transition sweep over T0-encoded chunks; only the sweep is on
  // the clock.
  std::vector<double> sweep_samples;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(ctx.tracer, "core.simd.sweep", 0);
    double seconds = 0.0;
    long long transitions = 0;
    int peak = 0;
    std::vector<long long> per_line(kWidth + 1, 0);
    sweep_all(reset, [&](simd::AddressView v, std::size_t n) {
      k.t0(v, n, mask, kStride, &has_prev, &prev_addr, &prev_bus,
           states.data());
      BusState carried;
      const double start = Now();
      k.sweep(states.data(), n, mask, abenc::LowMask(1), kWidth, &carried,
              &transitions, &peak, per_line.data());
      seconds += Now() - start;
    });
    sweep_samples.push_back(seconds);
  }
  out.Add("core.simd.sweep_ns_per_access",
          Median(sweep_samples) * 1e9 / total, "ns");

  std::size_t count = 0;
  const double in_seq_seconds = MedianSeconds(3, [&] {
    ScopedSpan span(ctx.tracer, "core.simd.in_seq", 0);
    count = 0;
    sweep_all(reset, [&](simd::AddressView v, std::size_t n) {
      k.in_seq(v, n, mask, kStride, &prev_addr, &has_prev, &count);
    });
  });
  out.Add("core.simd.in_seq_ns_per_access", in_seq_seconds * 1e9 / total,
          "ns");
}

void ProbeEvaluator(const ProbeContext& ctx, LayerReport& out) {
  const auto sources = OpenSources(ctx.paths);
  std::vector<std::string> codecs = {"binary"};
  codecs.insert(codecs.end(), GridCodecs().begin(), GridCodecs().end());
  const double total = static_cast<double>(TotalAccesses(ctx.streams));

  // Serial cells through the batched evaluator, exactly as the
  // experiment engine runs each one (decode-verified, default chunk).
  abenc::obs::MetricsRegistry registry;
  std::vector<std::vector<EvalResult>> cells(codecs.size());
  double cell_max = 0.0;
  {
    abenc::obs::ScopedInstall install(&registry);
    for (std::size_t c = 0; c < codecs.size(); ++c) {
      double seconds = 0.0;
      for (const auto& source : sources) {
        abenc::CodecPtr codec = abenc::MakeCodec(codecs[c]);
        ScopedSpan span(ctx.tracer, "core.evaluator.EvaluateBatched", c);
        const double start = Now();
        cells[c].push_back(abenc::EvaluateBatched(*codec, *source, kStride,
                                                  /*verify_decode=*/true));
        const double cell = Now() - start;
        seconds += cell;
        cell_max = std::max(cell_max, cell);
      }
      out.Add("core.evaluator.ns_per_access." + codecs[c],
              seconds * 1e9 / total, "ns");
    }
  }
  const double chunks = static_cast<double>(
      registry.GetCounter("evaluator.batched.chunks").value());
  const double columnar = static_cast<double>(
      registry.GetCounter("evaluator.batched.columnar_chunks").value());
  out.Add("core.evaluator.columnar_chunk_frac",
          chunks > 0 ? columnar / chunks : 0.0, "frac");

  // Evaluator self time: per access, what the kernel codecs cost beyond
  // their encode kernel, the transition sweep and the in-sequence count
  // (chunk feed, virtual dispatch, decode verification, folding).
  double self = 0.0;
  for (const char* codec : kKernelCodecs) {
    const std::string name = codec;
    self += out.Get("core.evaluator.ns_per_access." + name) -
            out.Get("core.simd.encode_ns_per_access." + name) -
            out.Get("core.simd.sweep_ns_per_access") -
            out.Get("core.simd.in_seq_ns_per_access");
  }
  out.Add("core.evaluator.self_ns_per_access",
          self / static_cast<double>(kKernelCodecs.size()), "ns");
  out.Add("core.experiment.cell_s_max", cell_max, "s");

  // One grid pass through the experiment engine, with its queue-wait
  // and cell-time histograms recorded.
  std::vector<abenc::NamedStream> named;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    named.emplace_back(ctx.streams[i].name, std::vector<BusAccess>{},
                       sources[i]);
  }
  abenc::RunOptions run;
  run.parallelism = ctx.workers;
  abenc::obs::MetricsRegistry engine;
  abenc::Comparison comparison;
  double wall = 0.0;
  {
    abenc::obs::ScopedInstall install(&engine);
    ScopedSpan span(ctx.tracer, "core.experiment.RunComparison", 0);
    const double start = Now();
    comparison = abenc::RunComparison(GridCodecs(), named,
                                      abenc::CodecOptions{}, nullptr, run);
    wall = Now() - start;
  }
  double cell_sum = 0.0;
  double wait_sum = 0.0;
  double wait_count = 0.0;
  for (const auto& h : engine.Snap().histograms) {
    if (h.name == "experiment.cell_seconds") cell_sum = h.sum;
    if (h.name == "experiment.queue_wait_seconds") {
      wait_sum = h.sum;
      wait_count = static_cast<double>(h.count);
    }
  }
  out.Add("core.experiment.queue_wait_s",
          wait_count > 0 ? wait_sum / wait_count : 0.0, "s");
  out.Add("core.experiment.parallel_efficiency",
          cell_sum / (static_cast<double>(ctx.workers) * wall), "frac");

  // Gate: the engine's cells equal the directly evaluated ones.
  for (std::size_t s = 0; s < sources.size(); ++s) {
    ++out.attempted;
    bool same = SameResult(comparison.rows[s].binary, cells[0][s]);
    for (std::size_t c = 1; c < codecs.size(); ++c) {
      same = same &&
             SameResult(comparison.rows[s].cells[c - 1].result, cells[c][s]);
    }
    if (!same) ++out.failed;
  }
}

void ProbeChannel(const ProbeContext& ctx, LayerReport& out) {
  constexpr std::size_t kAccesses = 1 << 17;
  const abenc::Word mask = abenc::LowMask(kWidth);
  double seconds = 0.0;
  std::size_t transfers = 0;
  const std::vector<std::string>& mix = StreamCodecs();
  for (std::size_t c = 0; c < mix.size(); ++c) {
    const Stream& s = ctx.streams[c % ctx.streams.size()];
    const std::size_t n = std::min(kAccesses, s.size());
    abenc::ChannelConfig config;
    config.codec_name = mix[c];
    config.protection = abenc::Protection::kSecded;
    abenc::BusChannel channel(config);
    std::size_t mismatches = 0;
    ScopedSpan span(ctx.tracer, "channel.BusChannel.Transfer", c);
    const double start = Now();
    for (std::size_t i = 0; i < n; ++i) {
      if (channel.Transfer(s.addresses[i], s.sel[i] != 0) !=
          (s.addresses[i] & mask)) {
        ++mismatches;
      }
    }
    seconds += Now() - start;
    transfers += n;
    ++out.attempted;
    if (mismatches != 0) ++out.failed;
  }
  out.Add("channel.transfer_ns_per_access",
          seconds * 1e9 / static_cast<double>(transfers), "ns");
}

void ProbeService(const ProbeContext& ctx, LayerReport& out) {
  namespace service = abenc::service;
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kAccesses = 1 << 16;
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kQuiescentRounds = 40;

  abenc::obs::MetricsRegistry registry;
  abenc::obs::ScopedInstall install(&registry);
  service::ServiceConfig config;
  config.parallelism = 2;
  service::EncodingService svc(config);

  struct Entry {
    std::uint64_t id = 0;
    std::string codec;
    const Stream* stream = nullptr;
    std::size_t pos = 0;
  };
  std::vector<Entry> sessions(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions[i].codec = StreamCodecs()[i % StreamCodecs().size()];
    sessions[i].stream = &ctx.streams[i % ctx.streams.size()];
    service::SessionConfig session;
    session.codec_name = sessions[i].codec;
    sessions[i].id = svc.OpenSession(session);
  }

  // Bulk: every session's first kAccesses in SUBMIT_STREAM-sized
  // batches, round robin, backing off 1 ms on a rejection like the
  // wire client does; then drain to quiescence.
  const auto submit = [&](Entry& e, std::size_t n) {
    service::ColumnBatch batch;
    batch.addresses.assign(e.stream->addresses.begin() + e.pos,
                           e.stream->addresses.begin() + e.pos + n);
    batch.sel.assign(e.stream->sel.begin() + e.pos,
                     e.stream->sel.begin() + e.pos + n);
    const service::Admission verdict =
        svc.SubmitColumns(e.id, std::move(batch));
    if (verdict == service::Admission::kRejected) return false;
    e.pos += n;
    return true;
  };
  std::size_t total = 0;
  const double cpu_start = ProcessCpuSeconds();
  const double start = Now();
  {
    ScopedSpan span(ctx.tracer, "service.EncodingService.SubmitDrain", 0);
    bool pending = true;
    while (pending) {
      pending = false;
      for (Entry& e : sessions) {
        const std::size_t limit = std::min(kAccesses, e.stream->size());
        if (e.pos >= limit) continue;
        pending = true;
        const std::size_t n = std::min(kBatch, limit - e.pos);
        if (!submit(e, n)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
    svc.Drain(std::chrono::milliseconds(60000));
  }
  const double wall = Now() - start;
  const double cpu = ProcessCpuSeconds() - cpu_start;
  for (const Entry& e : sessions) total += e.pos;
  out.Add("service.ns_per_access",
          wall * 1e9 / static_cast<double>(total), "ns");
  double evaluator = 0.0;
  for (const std::string& codec : StreamCodecs()) {
    evaluator += out.Get("core.evaluator.ns_per_access." + codec);
  }
  evaluator /= static_cast<double>(StreamCodecs().size());
  out.Add("service.self_ns_per_access",
          cpu * 1e9 / static_cast<double>(total) -
              out.Get("channel.transfer_ns_per_access") - evaluator,
          "ns");

  // Interactive: small lock-step batches to four sessions, then time
  // the service's own drain to quiescence.
  std::vector<double> quiescent_ms;
  for (std::size_t round = 0; round < kQuiescentRounds; ++round) {
    for (std::size_t j = 0; j < 4; ++j) {
      Entry& e = sessions[j];
      const std::size_t n = std::min(
          InteractiveBatch(ctx.seed, 9, j, round), e.stream->size() - e.pos);
      if (n > 0) submit(e, n);
    }
    ScopedSpan span(ctx.tracer, "service.EncodingService.Drain", round);
    const double t = Now();
    svc.Drain(std::chrono::milliseconds(5000));
    quiescent_ms.push_back((Now() - t) * 1e3);
  }
  out.Add("service.submit.rejected_batches",
          static_cast<double>(
              registry.GetCounter("service.submit.rejected_batches").value()),
          "count");
  out.Add("service.submit.slowdown_batches",
          static_cast<double>(
              registry.GetCounter("service.submit.slowdown_batches").value()),
          "count");
  out.Add("service.shard.steps",
          static_cast<double>(
              registry.GetCounter("service.shard.steps").value()),
          "count");
  out.Add("service.queue.high_watermark",
          registry.GetGauge("service.queue.high_watermark").value(), "count");
  out.Add("service.drain_to_quiescent_ms", Median(quiescent_ms), "ms");

  // Gate every session against the serial schedule oracle.
  for (const Entry& e : sessions) {
    ++out.attempted;
    const service::SessionReport report = svc.Report(e.id);
    const std::vector<BusAccess> rows = Rows(
        e.stream->addresses.data(), e.stream->sel.data(), 0, e.pos);
    const EvalResult want = abenc::EvaluateWithSchedule(
        e.codec, abenc::CodecOptions{}, rows, report.renegotiations,
        report.reset_points);
    if (!SameResult(report.result, want)) ++out.failed;
  }
  svc.Stop();
}

void ProbeProtocol(const ProbeContext& ctx, LayerReport& out) {
  namespace net = abenc::net;
  constexpr std::size_t kFrameAccesses = 256;
  constexpr int kIterations = 4000;
  const Stream& s = ctx.streams.front();
  const std::size_t n = std::min(kFrameAccesses, s.size());
  const std::vector<BusAccess> rows =
      Rows(s.addresses.data(), s.sel.data(), 0, n);

  net::StatsReply stats;
  stats.session_id = 7;
  stats.accepted = stats.stream_length = 1 << 20;
  stats.transitions = 123456789;
  stats.peak_transitions = 17;
  stats.in_sequence_percent = 61.25;
  stats.per_line.assign(kWidth + 2, 4242);
  stats.reset_points = {1000, 250000};
  stats.renegotiations = {{4096, "bus-invert"}, {65536, "gray"}};
  stats.active_codec = "gray";
  const std::uint32_t caps = net::kDefaultCapabilities;

  struct Case {
    std::string name;
    net::FrameType type;
    std::function<std::vector<std::uint8_t>()> encode;
    std::function<bool(std::span<const std::uint8_t>)> decode_ok;
  };
  const std::vector<Case> cases = {
      {"submit", net::FrameType::kSubmit,
       [&] { return net::EncodeSubmit(7, rows); },
       [&](std::span<const std::uint8_t> p) {
         const net::SubmitRequest r = net::DecodeSubmit(p);
         return r.batch.size() == rows.size() &&
                r.batch.back().address == rows.back().address;
       }},
      {"submit_stream", net::FrameType::kSubmitStream,
       [&] {
         return net::EncodeSubmitStream(7, 4096, true, s.addresses.data(),
                                        s.sel.data(), n);
       },
       [&](std::span<const std::uint8_t> p) {
         const net::SubmitStreamRequest r = net::DecodeSubmitStream(p);
         return r.columns.addresses ==
                std::vector<abenc::Word>(s.addresses.begin(),
                                         s.addresses.begin() + n);
       }},
      {"stats", net::FrameType::kStats,
       [&] { return net::EncodeStats(stats, caps); },
       [&](std::span<const std::uint8_t> p) {
         const net::StatsReply r = net::DecodeStats(p, caps);
         return r.per_line == stats.per_line &&
                r.renegotiations == stats.renegotiations;
       }},
  };
  for (const Case& c : cases) {
    const std::vector<std::uint8_t> frame =
        net::EncodeFrame(c.type, c.encode());
    std::size_t sink = 0;
    const double encode_s = MedianSeconds(5, [&] {
      ScopedSpan span(ctx.tracer, "net.protocol.Encode." + c.name, 0);
      for (int i = 0; i < kIterations; ++i) {
        sink += net::EncodeFrame(c.type, c.encode()).size();
      }
    });
    bool ok = sink > 0;
    std::vector<std::uint8_t> buffer;
    const double decode_s = MedianSeconds(5, [&] {
      ScopedSpan span(ctx.tracer, "net.protocol.Decode." + c.name, 0);
      for (int i = 0; i < kIterations; ++i) {
        buffer.assign(frame.begin(), frame.end());
        const std::optional<net::Frame> f =
            net::TryExtractFrame(buffer, net::kDefaultMaxFrameBytes);
        ok = ok && f && f->type == c.type && c.decode_ok(f->payload);
      }
    });
    ++out.attempted;
    if (!ok) ++out.failed;
    out.Add("net.protocol.encode_ns_per_frame." + c.name,
            encode_s * 1e9 / kIterations, "ns");
    out.Add("net.protocol.decode_ns_per_frame." + c.name,
            decode_s * 1e9 / kIterations, "ns");
    if (c.type == net::FrameType::kStats) {
      out.Add("net.protocol.bytes_per_frame.stats",
              static_cast<double>(frame.size()), "B");
    } else {
      out.Add("net.protocol.bytes_per_access." + c.name,
              static_cast<double>(frame.size()) / static_cast<double>(n),
              "B");
    }
  }
}

void ProbeNet(const ProbeContext& ctx, LayerReport& out) {
  namespace net = abenc::net;
  constexpr unsigned kConnection = 9;  // plan namespace of the probe
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kIdleSessions = 24;
  constexpr std::size_t kStreamed = 2;

  net::ServerConfig config;
  config.service.parallelism = 2;
  net::Server server(config);
  server.Start();
  std::map<std::string, std::vector<double>> us;
  const auto timed = [&](const std::string& call, std::uint64_t trace_id,
                         auto&& body) {
    ScopedSpan span(ctx.tracer, "net.client." + call, trace_id);
    const double start = Now();
    auto result = body();
    us[call].push_back((Now() - start) * 1e6);
    return result;
  };

  try {
    net::ClientOptions options;
    options.endpoint = server.endpoint();
    net::Client client(options);

    // Interactive exchange, the wire-interactive discipline in miniature.
    struct Chat {
      SessionPlan plan;
      std::uint64_t id = 0;
      std::size_t pos = 0;
      std::string codec;
      std::vector<abenc::CodecSwitchPoint> schedule;
      net::StatsReply last;
    };
    std::vector<Chat> chats(kSessions);
    for (std::size_t j = 0; j < kSessions; ++j) {
      chats[j].plan = InteractiveSessionPlan(ctx.seed, kConnection, j,
                                             ctx.streams);
      chats[j].codec = chats[j].plan.codec;
      net::OpenRequest open;
      open.codec = chats[j].codec;
      chats[j].id =
          timed("open", j, [&] { return client.Open(open); }).session_id;
    }
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t j = 0; j < kSessions; ++j) {
        Chat& c = chats[j];
        const Stream& s = ctx.streams[c.plan.stream];
        const std::size_t n = InteractiveBatch(ctx.seed, kConnection, j, round);
        std::vector<BusAccess> batch(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t at = (c.plan.start + c.pos + i) % s.size();
          batch[i] = BusAccess{s.addresses[at], s.sel[at] != 0};
        }
        ++out.attempted;
        const net::SubmitAck ack =
            timed("submit", c.id, [&] { return client.Submit(c.id, batch); });
        if (ack.status != net::Status::kOk &&
            ack.status != net::Status::kSlowDown) {
          ++out.failed;
          continue;
        }
        c.pos += n;
        c.last = timed("drain_stats", c.id,
                       [&] { return client.DrainStats(c.id, true); });
        const std::string next =
            InteractiveSwitch(ctx.seed, kConnection, j, round, c.codec);
        if (!next.empty()) {
          const net::RenegotiateReply reply =
              timed("renegotiate", c.id,
                    [&] { return client.Renegotiate(c.id, next); });
          c.schedule.push_back({reply.switch_index, next});
          c.codec = next;
        }
      }
    }
    // Short-lived sessions so OPEN and CLOSE have enough samples.
    for (std::size_t k = 0; k < kIdleSessions; ++k) {
      net::OpenRequest open;
      const std::uint64_t id =
          timed("open", 100 + k, [&] { return client.Open(open); }).session_id;
      timed("close", 100 + k, [&] { return client.Close(id); });
    }

    // Two streamed sessions through SUBMIT_STREAM from the mmap files.
    const net::ServerStats before = server.stats();
    std::uint64_t rejections = 0;
    std::size_t streamed = 0;
    std::vector<std::unique_ptr<abenc::MmapTraceSource>> sources;
    for (std::size_t k = 0; k < kStreamed; ++k) {
      const SessionPlan plan =
          StreamSessionPlan(ctx.seed, kConnection, k, ctx.streams);
      sources.push_back(
          std::make_unique<abenc::MmapTraceSource>(ctx.paths[plan.stream]));
      abenc::TraceColumns columns;
      const std::size_t n =
          std::min(plan.length, sources.back()->ViewColumns(
                                    plan.start, plan.length, &columns));
      net::OpenRequest open;
      open.codec = plan.codec;
      const std::uint64_t id = client.Open(open).session_id;
      ++out.attempted;
      const net::StreamSubmitResult result =
          timed("submit_columns", id, [&] {
            return client.SubmitColumns(id, columns.addresses, columns.sel,
                                        n, net::StreamSubmitOptions{});
          });
      rejections += result.rejections;
      const net::StatsReply stats = client.DrainStats(id, true);
      const std::vector<BusAccess> rows =
          Rows(columns.addresses, columns.sel, 0, n);
      const std::vector<std::size_t> resets(stats.reset_points.begin(),
                                            stats.reset_points.end());
      if (result.accepted != n ||
          !SameResult(stats, abenc::EvaluateWithSchedule(
                                 plan.codec, abenc::CodecOptions{}, rows,
                                 stats.renegotiations, resets))) {
        ++out.failed;
      }
      streamed += n;
      client.Close(id);
    }
    const net::ServerStats after = server.stats();

    for (Chat& c : chats) {
      ++out.attempted;
      c.last = client.DrainStats(c.id, true);  // includes the last switch
      const Stream& s = ctx.streams[c.plan.stream];
      std::vector<BusAccess> rows(c.pos);
      for (std::size_t i = 0; i < c.pos; ++i) {
        const std::size_t at = (c.plan.start + i) % s.size();
        rows[i] = BusAccess{s.addresses[at], s.sel[at] != 0};
      }
      const std::vector<std::size_t> resets(c.last.reset_points.begin(),
                                            c.last.reset_points.end());
      if (c.last.accepted != c.pos || c.last.renegotiations != c.schedule ||
          !SameResult(c.last, abenc::EvaluateWithSchedule(
                                  c.plan.codec, abenc::CodecOptions{}, rows,
                                  c.schedule, resets))) {
        ++out.failed;
      }
      client.Close(c.id);
    }

    for (const char* call : {"open", "submit", "drain_stats", "renegotiate",
                             "submit_columns", "close"}) {
      out.Add(std::string("net.client.") + call + "_us", MedianOr0(us[call]),
              "us");
    }
    out.Add("net.stats_deferral_ms",
            MedianOr0(us["drain_stats"]) / 1e3 -
                out.Get("service.drain_to_quiescent_ms"),
            "ms");
    out.Add("net.server.frames_per_kaccess",
            static_cast<double>(after.frames_received -
                                before.frames_received) *
                1e3 / static_cast<double>(streamed),
            "count");
    out.Add("net.rewound_accesses",
            static_cast<double>(rejections *
                                net::StreamSubmitOptions{}.chunk),
            "count");
  } catch (const std::exception&) {
    ++out.attempted;
    ++out.failed;
  }
  server.Stop();
}

}  // namespace perfbench
