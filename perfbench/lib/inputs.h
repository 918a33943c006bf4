// Workload inputs, all derived from the run's --seed: the nine paper
// ISS streams rotated by seeded offsets, a seeded mixed-three-regime
// stream, their packed `.ctrace` files, and the wire sessions' plans
// (stream assignment, codec mix, batch sizes, renegotiation points).
//
// Every seeded choice is a pure function Draw(seed, purpose, i, j) of
// SplitMix64, so the same seed gives byte-identical inputs in any order
// of evaluation and a different seed changes them (InputsDigest pins
// both).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace perfbench {

using abenc::Word;

/// One address stream in the columnar `.ctrace` layout.
struct Stream {
  std::string name;
  std::vector<Word> addresses;
  std::vector<std::uint8_t> sel;  // nonzero = instruction slot

  std::size_t size() const { return addresses.size(); }
};

/// What a Draw is for; keeps independent choices uncorrelated.
enum class Purpose : std::uint64_t {
  kRotation = 1,
  kMixed,
  kStreamAssign,
  kCodec,
  kBatch,
  kRenegotiate,
  kStartOffset,
};

/// Deterministic 64-bit draw for (seed, purpose, i, j).
std::uint64_t Draw(std::uint64_t seed, Purpose purpose, std::uint64_t i = 0,
                   std::uint64_t j = 0);

/// The nine paper benchmarks' multiplexed bus streams from the ISS.
std::vector<Stream> CaptureIssStreams();

/// bench_adaptive's mixed-three-regime construction (stride-4 run,
/// stride-1 run, uniform noise; 512 accesses each per cycle), seeded.
Stream MixedThreeRegime(std::uint64_t seed, std::size_t cycles);

/// The seeded input set: each capture rotated by a seeded offset (same
/// accesses, different phase), plus the seeded mixed-three-regime
/// stream.
std::vector<Stream> SeededStreams(const std::vector<Stream>& captured,
                                  std::uint64_t seed);

/// Write each stream as `<dir>/<index>-<name>.ctrace`; returns the paths.
std::vector<std::string> PackStreams(const std::vector<Stream>& streams,
                                     const std::string& dir);

/// Rows [from, from + n) of a columnar stream, for the serial oracles.
std::vector<abenc::BusAccess> Rows(const Word* addresses,
                                   const std::uint8_t* sel, std::size_t from,
                                   std::size_t n);

/// One wire session's seeded plan.
struct SessionPlan {
  std::size_t stream = 0;  // index into the input set
  std::string codec;       // codec OPENed with
  std::size_t start = 0;   // stream position of lifetime index 0
  std::size_t length = 0;  // accesses to stream (wire-stream only)
};

/// Accesses one wire-stream session streams (less if its input is
/// shorter).
inline constexpr std::size_t kStreamSessionAccesses = 1 << 17;

/// wire-stream: session k of connection c streams a seeded window of
/// kStreamSessionAccesses from one input under a codec from {t0,
/// bus-invert, dual-t0-bi, adaptive}. Each connection walks a seeded
/// permutation of the inputs and a seeded rotation of the codecs, so
/// every seed streams the same mix of work in a different order and
/// pairing.
SessionPlan StreamSessionPlan(std::uint64_t seed, unsigned connection,
                              std::size_t k,
                              const std::vector<Stream>& streams);

/// wire-interactive: session k of connection c reads its input from a
/// seeded start position under a codec from {t0, bus-invert, gray}.
SessionPlan InteractiveSessionPlan(std::uint64_t seed, unsigned connection,
                                   std::size_t k,
                                   const std::vector<Stream>& streams);

/// offline-sweep's codes besides the binary reference row.
const std::vector<std::string>& GridCodecs();

/// The wire-stream session codec mix.
const std::vector<std::string>& StreamCodecs();

/// The codecs wire-interactive renegotiates among.
const std::vector<std::string>& InteractiveCodecs();

/// Accesses in round `round`'s lock-step SUBMIT of a session (16..64).
std::size_t InteractiveBatch(std::uint64_t seed, unsigned connection,
                             std::size_t session, std::size_t round);

/// Codec to renegotiate to after round `round`, or "" for none (about
/// one round in four); never the session's current codec.
std::string InteractiveSwitch(std::uint64_t seed, unsigned connection,
                              std::size_t session, std::size_t round,
                              const std::string& current);

/// FNV-1a digest of everything the seed decides: the input streams and
/// the first sessions/rounds of both wire plans.
std::uint64_t InputsDigest(std::uint64_t seed,
                           const std::vector<Stream>& streams);

}  // namespace perfbench
