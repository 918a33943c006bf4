#include "lib/inputs.h"

#include <algorithm>
#include <filesystem>

#include "sim/program_library.h"
#include "trace/mmap_trace.h"
#include "verify/stream_gen.h"

namespace perfbench {
namespace {

constexpr unsigned kWidth = 32;
constexpr Word kStride = 4;

void Append(Stream& s, Word address, bool instruction) {
  s.addresses.push_back(address);
  s.sel.push_back(instruction ? 1 : 0);
}

std::uint64_t Fnv(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t Fnv(std::uint64_t hash, std::uint64_t value) {
  return Fnv(hash, &value, sizeof value);
}

std::uint64_t Fnv(std::uint64_t hash, const std::string& text) {
  return Fnv(hash, text.data(), text.size());
}

}  // namespace

std::uint64_t Draw(std::uint64_t seed, Purpose purpose, std::uint64_t i,
                   std::uint64_t j) {
  using abenc::verify::MixSeed;
  return MixSeed(MixSeed(MixSeed(MixSeed(seed) ^
                                 static_cast<std::uint64_t>(purpose)) ^
                         i) ^
                 j);
}

std::vector<Stream> CaptureIssStreams() {
  std::vector<Stream> streams;
  for (const abenc::sim::BenchmarkProgram& program :
       abenc::sim::BenchmarkPrograms()) {
    const abenc::sim::ProgramTraces traces = abenc::sim::RunBenchmark(program);
    Stream s;
    s.name = program.name;
    s.addresses.reserve(traces.multiplexed.size());
    s.sel.reserve(traces.multiplexed.size());
    for (const abenc::TraceEntry& entry : traces.multiplexed) {
      Append(s, entry.address,
             entry.kind == abenc::AccessKind::kInstruction);
    }
    streams.push_back(std::move(s));
  }
  return streams;
}

Stream MixedThreeRegime(std::uint64_t seed, std::size_t cycles) {
  using abenc::verify::MixSeed;
  const Word mask = abenc::LowMask(kWidth);
  Stream s;
  s.name = "mixed-three-regime";
  std::uint64_t chain = Draw(seed, Purpose::kMixed);
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const Word seq_base = MixSeed(chain++) & ~Word{0xFFF};
    for (std::size_t i = 0; i < 512; ++i) {
      Append(s, (seq_base + kStride * i) & mask, true);
    }
    const Word scan_base = MixSeed(chain++) & ~Word{0xFFF};
    for (std::size_t i = 0; i < 512; ++i) {
      Append(s, (scan_base + i) & mask, true);
    }
    for (std::size_t i = 0; i < 512; ++i) {
      Append(s, MixSeed(chain++) & mask, true);
    }
  }
  return s;
}

std::vector<Stream> SeededStreams(const std::vector<Stream>& captured,
                                  std::uint64_t seed) {
  std::vector<Stream> streams;
  streams.reserve(captured.size() + 1);
  for (std::size_t i = 0; i < captured.size(); ++i) {
    const Stream& in = captured[i];
    Stream out;
    out.name = in.name;
    const std::size_t n = in.size();
    const std::size_t shift =
        n == 0 ? 0
               : static_cast<std::size_t>(
                     Draw(seed, Purpose::kRotation, i) % n);
    out.addresses.reserve(n);
    out.sel.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t from = (shift + k) % n;
      out.addresses.push_back(in.addresses[from]);
      out.sel.push_back(in.sel[from]);
    }
    streams.push_back(std::move(out));
  }
  streams.push_back(MixedThreeRegime(seed, 256));
  return streams;
}

std::vector<std::string> PackStreams(const std::vector<Stream>& streams,
                                     const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    abenc::AddressTrace trace(streams[i].name);
    trace.Reserve(streams[i].size());
    for (std::size_t k = 0; k < streams[i].size(); ++k) {
      trace.Append(streams[i].addresses[k],
                   streams[i].sel[k] != 0 ? abenc::AccessKind::kInstruction
                                          : abenc::AccessKind::kData);
    }
    paths.push_back(dir + "/" + std::to_string(i) + "-" + streams[i].name +
                    ".ctrace");
    abenc::WriteColumnarTrace(paths.back(), trace);
  }
  return paths;
}

std::vector<abenc::BusAccess> Rows(const Word* addresses,
                                   const std::uint8_t* sel, std::size_t from,
                                   std::size_t n) {
  std::vector<abenc::BusAccess> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = abenc::BusAccess{addresses[from + i], sel[from + i] != 0};
  }
  return rows;
}

SessionPlan StreamSessionPlan(std::uint64_t seed, unsigned connection,
                              std::size_t k,
                              const std::vector<Stream>& streams) {
  const std::size_t stream_count = streams.size();
  std::vector<std::size_t> order(stream_count);
  for (std::size_t i = 0; i < stream_count; ++i) order[i] = i;
  for (std::size_t i = stream_count; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        Draw(seed, Purpose::kStreamAssign, connection, i) % i);
    std::swap(order[i - 1], order[j]);
  }
  const std::vector<std::string>& codecs = StreamCodecs();
  SessionPlan plan;
  plan.stream = order[k % stream_count];
  plan.codec = codecs[(Draw(seed, Purpose::kCodec, connection) + k) %
                      codecs.size()];
  const std::size_t n = streams[plan.stream].size();
  plan.length = std::min(kStreamSessionAccesses, n);
  plan.start = static_cast<std::size_t>(
      Draw(seed, Purpose::kStartOffset, connection, k) % (n - plan.length + 1));
  return plan;
}

const std::vector<std::string>& GridCodecs() {
  // The costliest code first: the engine submits cells row by row in
  // this order, so its long cells start early instead of trailing the
  // pass.
  static const std::vector<std::string> codecs = {
      "adaptive", "gray",       "bus-invert", "t0",     "t0-bi",
      "dual-t0",  "dual-t0-bi", "offset",     "inc-xor"};
  return codecs;
}

const std::vector<std::string>& StreamCodecs() {
  static const std::vector<std::string> codecs = {"t0", "bus-invert",
                                                  "dual-t0-bi", "adaptive"};
  return codecs;
}

const std::vector<std::string>& InteractiveCodecs() {
  static const std::vector<std::string> codecs = {"t0", "bus-invert", "gray"};
  return codecs;
}

SessionPlan InteractiveSessionPlan(std::uint64_t seed, unsigned connection,
                                   std::size_t k,
                                   const std::vector<Stream>& streams) {
  SessionPlan plan;
  plan.stream = static_cast<std::size_t>(
      Draw(seed, Purpose::kStreamAssign, 100 + connection, k) %
      streams.size());
  const std::vector<std::string>& codecs = InteractiveCodecs();
  plan.codec =
      codecs[Draw(seed, Purpose::kCodec, 100 + connection, k) % codecs.size()];
  const std::size_t n = streams[plan.stream].size();
  plan.start = n == 0 ? 0
                      : static_cast<std::size_t>(
                            Draw(seed, Purpose::kStartOffset,
                                 100 + connection, k) %
                            n);
  return plan;
}

std::size_t InteractiveBatch(std::uint64_t seed, unsigned connection,
                             std::size_t session, std::size_t round) {
  return 16 + static_cast<std::size_t>(
                  Draw(seed, Purpose::kBatch, connection * 4096 + session,
                       round) %
                  49);
}

std::string InteractiveSwitch(std::uint64_t seed, unsigned connection,
                              std::size_t session, std::size_t round,
                              const std::string& current) {
  const std::uint64_t draw =
      Draw(seed, Purpose::kRenegotiate, connection * 4096 + session, round);
  if (draw % 4 != 0) return "";
  std::vector<std::string> others;
  for (const std::string& codec : InteractiveCodecs()) {
    if (codec != current) others.push_back(codec);
  }
  return others[(draw / 4) % others.size()];
}

std::uint64_t InputsDigest(std::uint64_t seed,
                           const std::vector<Stream>& streams) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const Stream& s : streams) {
    h = Fnv(h, s.name);
    h = Fnv(h, s.addresses.data(), s.addresses.size() * sizeof(Word));
    h = Fnv(h, s.sel.data(), s.sel.size());
  }
  for (unsigned c = 0; c < 2; ++c) {
    for (std::size_t k = 0; k < 64; ++k) {
      const SessionPlan stream = StreamSessionPlan(seed, c, k, streams);
      h = Fnv(Fnv(Fnv(h, stream.stream), stream.codec), stream.start);
      const SessionPlan chat = InteractiveSessionPlan(seed, c, k, streams);
      h = Fnv(Fnv(Fnv(h, chat.stream), chat.codec), chat.start);
      for (std::size_t r = 0; r < 64; ++r) {
        h = Fnv(h, InteractiveBatch(seed, c, k, r));
        h = Fnv(h, InteractiveSwitch(seed, c, k, r, chat.codec));
      }
    }
  }
  return h;
}

}  // namespace perfbench
