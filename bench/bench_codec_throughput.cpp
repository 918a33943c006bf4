// google-benchmark microbenchmarks: software encode/decode throughput of
// every code — the cost a simulator or trace-processing pipeline pays per
// address. (The hardware cost is what Tables 8/9 measure; this is the
// library-user cost.)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/codec_factory.h"
#include "core/codec_kernel.h"
#include "core/stream_evaluator.h"
#include "trace/synthetic.h"

namespace {

using namespace abenc;

const std::vector<BusAccess>& Stream() {
  static const std::vector<BusAccess> stream = [] {
    SyntheticGenerator gen(5);
    return gen.MultiplexedLike(1 << 14, 0.35, 4, 32).ToBusAccesses();
  }();
  return stream;
}

void EncodeThroughput(benchmark::State& state, const std::string& name) {
  CodecOptions options;
  auto codec = MakeCodec(name, options);
  const auto& stream = Stream();
  std::size_t i = 0;
  for (auto _ : state) {
    const BusAccess& access = stream[i];
    benchmark::DoNotOptimize(codec->Encode(access.address, access.sel));
    i = (i + 1) & (stream.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

// The batched hot path: one virtual EncodeBatch dispatch per chunk of
// kDefaultChunkSize words instead of one virtual Encode per word. The
// items/s ratio of encode-block/<name> over encode/<name> is the
// devirtualization win (the regression gate wants >= 3x for the
// hand-specialized binary/gray/t0 kernels).
void EncodeBatchThroughput(benchmark::State& state, const std::string& name) {
  CodecOptions options;
  auto codec = MakeCodec(name, options);
  const auto& stream = Stream();
  std::vector<BusState> out(kDefaultChunkSize);
  for (auto _ : state) {
    for (std::size_t offset = 0; offset < stream.size();
         offset += kDefaultChunkSize) {
      const std::size_t n =
          std::min(kDefaultChunkSize, stream.size() - offset);
      codec->EncodeBatch(
          AccessBatch::Rows(std::span(stream).subspan(offset, n)),
          std::span(out).first(n));
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}

void RoundTripThroughput(benchmark::State& state, const std::string& name) {
  CodecOptions options;
  auto codec = MakeCodec(name, options);
  const auto& stream = Stream();
  std::size_t i = 0;
  for (auto _ : state) {
    const BusAccess& access = stream[i];
    const BusState bus = codec->Encode(access.address, access.sel);
    benchmark::DoNotOptimize(codec->Decode(bus, access.sel));
    i = (i + 1) & (stream.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& name : abenc::AllCodecNames()) {
    benchmark::RegisterBenchmark(("encode/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   EncodeThroughput(s, name);
                                 });
    benchmark::RegisterBenchmark(("encode-block/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   EncodeBatchThroughput(s, name);
                                 });
    benchmark::RegisterBenchmark(("roundtrip/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   RoundTripThroughput(s, name);
                                 });
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
