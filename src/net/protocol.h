// The encoding service's wire protocol: a versioned, length-prefixed
// binary framing that carries session admission — including backpressure
// — across a socket (docs/PROTOCOL.md is the normative spec).
//
// Shape of a conversation:
//
//   client                                server (abenc_serve)
//   HELLO  {magic, version range}  ─────►
//          ◄─────  HELLO_OK {version, frame cap}   (or ERROR + close)
//   OPEN   {codec, palette, knobs} ─────►
//          ◄─────  OPEN_OK {session id, token}
//   SUBMIT {id, addresses, SEL}    ─────►
//          ◄─────  SUBMIT_ACK {status, accepted}   status maps Admission:
//                                                  kSlowDown / kRejected
//                                                  are client-visible
//                                                  flow control
//   DRAIN_STATS {id, wait}         ─────►
//          ◄─────  STATS {accounting, transport, reset points}
//   CLOSE  {id}                    ─────►
//          ◄─────  CLOSE_OK
//
// A connection that dies (including mid-frame) leaves its sessions
// intact but detached; ATTACH {id, token} from a new connection resumes
// them and reports how many accesses were already admitted, so a client
// can continue a stream exactly-once after a disconnect.
//
// Framing: every frame is a little-endian u32 payload length L
// (1 <= L <= negotiated cap), then L bytes: a 1-byte frame type plus the
// typed payload. Frames are atomic — a partial frame at disconnect is
// discarded whole, never half-applied. Malformed, truncated, oversized
// or unknown frames produce an ERROR frame with a status code (and, for
// framing-level violations, a close), never a crash or a wedged shard —
// the contract tests/net_test.cpp and the wire soak's fuzz swarm pin.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "service/session.h"

namespace abenc::net {

/// First payload word of HELLO; bytes "ABNC" on the wire.
inline constexpr std::uint32_t kHelloMagic = 0x434E4241u;

/// The newest protocol revision this library speaks. HELLO carries the
/// client's [min, max] supported range; the server answers with the
/// highest version both sides support and ERROR kBadVersion when the
/// ranges do not overlap.
///
/// v1: the PR 9 baseline (HELLO..ERROR, frames 1-12 and 15).
/// v2: adds capability negotiation in HELLO/HELLO_OK plus the
///     capability-gated RENEGOTIATE / RENEGOTIATE_ACK / SUBMIT_STREAM
///     frames and field extensions below. A v1 conversation is
///     byte-identical to PR 9 — old clients are untouched.
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::uint16_t kProtocolVersionMin = 1;

/// Capability bits carried in HELLO/HELLO_OK from v2 on. A capability
/// is in force only when both sides advertised it (the server replies
/// with the intersection); frames/fields gated on an absent capability
/// must never appear on the connection (kBadFrame).
inline constexpr std::uint32_t kCapRenegotiate = 1u << 0;
inline constexpr std::uint32_t kCapPipeline = 1u << 1;
inline constexpr std::uint32_t kDefaultCapabilities =
    kCapRenegotiate | kCapPipeline;

/// Default hard cap on one frame's payload (type byte + body). The
/// server enforces its own configured cap as soon as a length prefix is
/// parsed and advertises it in HELLO_OK so clients can size batches.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

/// Bytes of the length prefix preceding every frame.
inline constexpr std::size_t kFrameLengthBytes = 4;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kOpen = 3,
  kOpenOk = 4,
  kAttach = 5,
  kAttachOk = 6,
  kSubmit = 7,
  kSubmitAck = 8,
  kDrainStats = 9,
  kStats = 10,
  kClose = 11,
  kCloseOk = 12,
  kRenegotiate = 13,     // v2, kCapRenegotiate
  kRenegotiateAck = 14,  // v2, kCapRenegotiate
  kError = 15,
  kSubmitStream = 16,    // v2, kCapPipeline
};

std::string FrameTypeName(FrameType type);

/// Protocol status codes. 0..15 map session admission (flow control);
/// 16+ are protocol errors carried by ERROR frames. Codes through
/// kFrameTooLarge (and kBadMagic/kBadVersion) are connection-fatal —
/// the server sends ERROR and closes; the request-scoped codes keep the
/// connection usable.
enum class Status : std::uint16_t {
  kOk = 0,         // Admission::kAccepted
  kSlowDown = 1,   // Admission::kSlowDown — pace yourself
  kRejected = 2,   // Admission::kRejected — nothing queued, back off
  kClosed = 3,     // Admission::kClosed — session input closed
  kBadMagic = 16,  // HELLO magic mismatch (fatal)
  kBadVersion = 17,    // no protocol version overlap (fatal)
  kBadFrame = 18,      // malformed/truncated/unknown frame (fatal)
  kFrameTooLarge = 19,  // length prefix above the cap (fatal)
  kUnknownSession = 20,  // no such session id
  kBadConfig = 21,       // OPEN rejected (codec/palette/options)
  kBadToken = 22,        // ATTACH token mismatch
  kNotAttached = 23,  // session not opened/attached on this connection
  kInternal = 24,     // unexpected server-side failure
  kRenegotiateRefused = 25,  // switch refused (degraded / recovering /
                             // pending / unchanged); connection usable
};

std::string StatusName(Status status);

/// Whether an ERROR with this status is followed by a server-side close.
bool StatusIsFatal(Status status);

Status AdmissionToStatus(service::Admission admission);

/// Thrown by the decoders (and the client) on malformed wire data.
class WireError : public std::runtime_error {
 public:
  WireError(Status status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

/// Little-endian append-only payload builder.
class Writer {
 public:
  Writer() = default;
  /// Appends to `sink` instead of an owned buffer, so a frame can be
  /// encoded in place at the end of a connection's out buffer.
  explicit Writer(std::vector<std::uint8_t>& sink) : bytes_(sink) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void U8(std::uint8_t v) { bytes_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void F64(double v);
  void Bytes(std::span<const std::uint8_t> bytes);
  /// u16 length + raw bytes; throws WireError if longer than 65535.
  void Str16(std::string_view text);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>& bytes_ = own_;
};

/// Little-endian payload consumer; every under-run throws
/// WireError(kBadFrame) so a truncated payload can never be
/// half-applied.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  double F64();
  std::string Str16();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Throws WireError(kBadFrame) if payload bytes are left over —
  /// trailing garbage means the sender and receiver disagree about the
  /// layout, which must never be silently ignored.
  void ExpectEnd() const;

 private:
  void Need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

/// Wrap a typed payload in the length-prefixed framing.
std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      std::span<const std::uint8_t> payload);
/// The same bytes appended to `out` (no intermediate frame vector).
void AppendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 std::span<const std::uint8_t> payload);

/// Pop one complete frame off the front of an accumulating receive
/// buffer, or nullopt if more bytes are needed. Throws
/// WireError(kFrameTooLarge) for a length prefix above `max_frame_bytes`
/// and WireError(kBadFrame) for a zero length — both before waiting for
/// the (hostile) payload to arrive.
std::optional<Frame> TryExtractFrame(std::vector<std::uint8_t>& buffer,
                                     std::size_t max_frame_bytes);

// ---- typed payloads -------------------------------------------------

struct HelloRequest {
  std::uint32_t magic = kHelloMagic;
  std::uint16_t version_min = kProtocolVersionMin;
  std::uint16_t version_max = kProtocolVersion;
  /// v2+: capability bits offered by the client. Encoded only when
  /// version_max >= 2 (a v1 HELLO is byte-identical to PR 9); decoded
  /// as 0 when absent, so v1 clients implicitly offer nothing.
  std::uint32_t capabilities = kDefaultCapabilities;
};

struct HelloReply {
  std::uint16_t version = kProtocolVersion;
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Capabilities in force: client ∩ server. Present on the wire only
  /// when the negotiated `version` >= 2 — the layout is self-describing
  /// and a v1 HELLO_OK stays byte-identical to PR 9.
  std::uint32_t capabilities = 0;
};

/// Codec + palette negotiation plus the session's robustness knobs —
/// the wire image of service::SessionConfig. `fault_seed` is a test
/// hook: a server configured with a fault planner maps it to a
/// deterministic channel fault installer (the wire soak); production
/// servers reject a nonzero seed with kBadConfig.
struct OpenRequest {
  std::string codec = "t0";
  std::uint16_t width = 32;
  std::uint64_t stride = 4;
  std::uint8_t protection = 2;  // 0 none, 1 parity, 2 SECDED
  std::uint64_t queue_capacity = 4096;
  std::uint64_t slowdown_watermark = 3072;
  std::uint32_t max_retries = 3;
  std::uint64_t access_budget = 0;
  std::uint64_t adaptive_window = 64;
  std::int64_t adaptive_hysteresis = 16;
  std::string adaptive_palette;  // comma-separated; empty = default
  std::uint64_t fault_seed = 0;
};

struct OpenReply {
  std::uint64_t session_id = 0;
  /// Capability for ATTACH after a disconnect; issued once at OPEN.
  std::uint64_t token = 0;
};

struct AttachRequest {
  std::uint64_t session_id = 0;
  std::uint64_t token = 0;
};

struct AttachReply {
  std::uint64_t session_id = 0;
  /// Accesses admitted over the session's lifetime — the resume point
  /// for exactly-once submission after a disconnect.
  std::uint64_t accepted = 0;
  /// kCapRenegotiate extension: how many codec switches have applied
  /// and which codec is active now, so a resuming client knows whether
  /// a switch it acked before the disconnect landed (the full pinned
  /// schedule arrives with STATS).
  std::uint32_t renegotiations = 0;
  std::string active_codec;
};

struct SubmitRequest {
  std::uint64_t session_id = 0;
  std::vector<BusAccess> batch;
};

struct SubmitAck {
  std::uint64_t session_id = 0;
  Status status = Status::kOk;
  std::uint64_t accepted = 0;  // lifetime admitted-access count
  /// kCapRenegotiate extension: the server policy's codec proposal for
  /// this session's observed traffic ("" = no proposal). Advisory — the
  /// client switches only by sending RENEGOTIATE.
  std::string recommended_codec;
};

/// v2 kCapPipeline: the streaming bulk-transfer frame. Columnar like
/// SUBMIT, plus the sender's expected lifetime admitted count (`offset`)
/// — the guard that makes pipelining safe: a frame whose offset does not
/// match the server's count (because an earlier in-flight frame was
/// rejected) is itself rejected whole, so a rejection can never punch a
/// gap into the admitted stream. Acked only when `want_ack` is set or
/// the verdict is not kOk, so a bulk replay pays one ack per window, not
/// per frame.
struct SubmitStreamRequest {
  std::uint64_t session_id = 0;
  std::uint64_t offset = 0;
  bool want_ack = false;
  service::ColumnBatch columns;  // decoded straight off the wire
};

/// v2 kCapRenegotiate: request a codec switch for an attached session.
/// An empty codec asks the server's renegotiation policy to pick from
/// its palette. Refusals are answered with ERROR (kRenegotiateRefused /
/// kBadConfig), success with RENEGOTIATE_ACK.
struct RenegotiateRequest {
  std::uint64_t session_id = 0;
  std::string codec;  // "" = server policy's choice
};

struct RenegotiateReply {
  std::uint64_t session_id = 0;
  /// Lifetime admitted-access index the switch is pinned to — the exact
  /// contract of the adaptive codec's ESC line: both ends replay the
  /// decision from this index alone.
  std::uint64_t switch_index = 0;
  std::string codec;  // the codec that will be active from switch_index
};

struct DrainStatsRequest {
  std::uint64_t session_id = 0;
  /// When set the server defers the STATS reply until the session's
  /// queue is empty and every popped batch has been processed, so the
  /// snapshot is complete (Session::Report's quiescence caveat).
  bool wait_drained = false;
};

/// The full server-side accounting of one session — enough for a client
/// to recompute the serial EvaluateWithResets oracle bit-for-bit.
struct StatsReply {
  std::uint64_t session_id = 0;
  std::uint8_t state = 0;  // 0 active, 1 evicted
  bool input_closed = false;
  bool degraded = false;
  std::uint64_t accepted = 0;
  std::uint64_t stream_length = 0;
  std::int64_t transitions = 0;
  std::int32_t peak_transitions = 0;
  double in_sequence_percent = 0.0;
  std::vector<long long> per_line;
  std::vector<std::uint64_t> reset_points;
  service::TransportCounters transport;
  std::uint64_t readmissions = 0;
  std::uint64_t rejected_batches = 0;
  std::uint64_t peak_queue_depth = 0;
  /// kCapRenegotiate extension: the applied switch schedule (pinned
  /// lifetime indices + factory names, stream order) and the active
  /// codec — with reset_points this is everything a client needs to
  /// replay EvaluateWithSchedule bit-for-bit.
  std::vector<CodecSwitchPoint> renegotiations;
  std::string active_codec;
};

struct CloseRequest {
  std::uint64_t session_id = 0;
};

struct CloseReply {
  std::uint64_t session_id = 0;
};

struct ErrorReply {
  Status status = Status::kInternal;
  std::string message;
};

std::vector<std::uint8_t> EncodeHello(const HelloRequest& hello);
HelloRequest DecodeHello(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeHelloOk(const HelloReply& reply);
HelloReply DecodeHelloOk(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeOpen(const OpenRequest& open);
OpenRequest DecodeOpen(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeOpenOk(const OpenReply& reply);
OpenReply DecodeOpenOk(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeAttach(const AttachRequest& attach);
AttachRequest DecodeAttach(std::span<const std::uint8_t> payload);

// ATTACH_OK, SUBMIT_ACK and STATS carry kCapRenegotiate-gated trailing
// fields; encoder and decoder must agree on the connection's negotiated
// capabilities (strict both ways: the extension is present iff the
// capability is in force — ExpectEnd still rejects any other shape).
std::vector<std::uint8_t> EncodeAttachOk(const AttachReply& reply,
                                         std::uint32_t capabilities = 0);
AttachReply DecodeAttachOk(std::span<const std::uint8_t> payload,
                           std::uint32_t capabilities = 0);

std::vector<std::uint8_t> EncodeSubmit(std::uint64_t session_id,
                                       std::span<const BusAccess> batch);
SubmitRequest DecodeSubmit(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeSubmitAck(const SubmitAck& ack,
                                          std::uint32_t capabilities = 0);
SubmitAck DecodeSubmitAck(std::span<const std::uint8_t> payload,
                          std::uint32_t capabilities = 0);

std::vector<std::uint8_t> EncodeSubmitStream(const SubmitStreamRequest& request);
/// Pointer-column overload: encodes straight from caller-owned columns
/// (e.g. a ViewColumns slice of an mmap-backed `.ctrace`), so a bulk
/// replay never materializes a ColumnBatch per frame.
std::vector<std::uint8_t> EncodeSubmitStream(std::uint64_t session_id,
                                             std::uint64_t offset,
                                             bool want_ack,
                                             const Word* addresses,
                                             const std::uint8_t* sel,
                                             std::size_t count);
/// Decodes the columns by bulk move into the returned ColumnBatch — the
/// zero-copy entry into Session::SubmitColumns.
SubmitStreamRequest DecodeSubmitStream(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeRenegotiate(const RenegotiateRequest& request);
RenegotiateRequest DecodeRenegotiate(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeRenegotiateAck(const RenegotiateReply& reply);
RenegotiateReply DecodeRenegotiateAck(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeDrainStats(const DrainStatsRequest& request);
DrainStatsRequest DecodeDrainStats(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeStats(const StatsReply& stats,
                                      std::uint32_t capabilities = 0);
/// Appends EncodeFrame(kStats, EncodeStats(StatsFromReport(report,
/// accepted), capabilities)) to `out`, encoding straight from the report:
/// a STATS reply carries the whole switch schedule and reset points, so
/// the server copies them into no StatsReply, payload or frame vector.
void AppendStatsFrame(std::vector<std::uint8_t>& out,
                      const service::SessionReport& report,
                      std::uint64_t accepted, std::uint32_t capabilities = 0);
StatsReply DecodeStats(std::span<const std::uint8_t> payload,
                       std::uint32_t capabilities = 0);

std::vector<std::uint8_t> EncodeClose(const CloseRequest& request);
CloseRequest DecodeClose(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeCloseOk(const CloseReply& reply);
CloseReply DecodeCloseOk(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> EncodeError(const ErrorReply& error);
ErrorReply DecodeError(std::span<const std::uint8_t> payload);

/// Build a STATS payload from a session report.
StatsReply StatsFromReport(const service::SessionReport& report,
                           std::uint64_t accepted);

}  // namespace abenc::net
