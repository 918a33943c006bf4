#include "net/protocol.h"

#include <bit>
#include <cstring>
#include <utility>

namespace abenc::net {

std::string FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:      return "HELLO";
    case FrameType::kHelloOk:    return "HELLO_OK";
    case FrameType::kOpen:       return "OPEN";
    case FrameType::kOpenOk:     return "OPEN_OK";
    case FrameType::kAttach:     return "ATTACH";
    case FrameType::kAttachOk:   return "ATTACH_OK";
    case FrameType::kSubmit:     return "SUBMIT";
    case FrameType::kSubmitAck:  return "SUBMIT_ACK";
    case FrameType::kDrainStats: return "DRAIN_STATS";
    case FrameType::kStats:      return "STATS";
    case FrameType::kClose:      return "CLOSE";
    case FrameType::kCloseOk:    return "CLOSE_OK";
    case FrameType::kRenegotiate:    return "RENEGOTIATE";
    case FrameType::kRenegotiateAck: return "RENEGOTIATE_ACK";
    case FrameType::kError:      return "ERROR";
    case FrameType::kSubmitStream:   return "SUBMIT_STREAM";
  }
  return "?";
}

std::string StatusName(Status status) {
  switch (status) {
    case Status::kOk:             return "ok";
    case Status::kSlowDown:       return "slow-down";
    case Status::kRejected:       return "rejected";
    case Status::kClosed:         return "closed";
    case Status::kBadMagic:       return "bad-magic";
    case Status::kBadVersion:     return "bad-version";
    case Status::kBadFrame:       return "bad-frame";
    case Status::kFrameTooLarge:  return "frame-too-large";
    case Status::kUnknownSession: return "unknown-session";
    case Status::kBadConfig:      return "bad-config";
    case Status::kBadToken:       return "bad-token";
    case Status::kNotAttached:    return "not-attached";
    case Status::kInternal:       return "internal";
    case Status::kRenegotiateRefused: return "renegotiate-refused";
  }
  return "?";
}

bool StatusIsFatal(Status status) {
  switch (status) {
    case Status::kBadMagic:
    case Status::kBadVersion:
    case Status::kBadFrame:
    case Status::kFrameTooLarge:
      return true;
    default:
      return false;
  }
}

Status AdmissionToStatus(service::Admission admission) {
  switch (admission) {
    case service::Admission::kAccepted: return Status::kOk;
    case service::Admission::kSlowDown: return Status::kSlowDown;
    case service::Admission::kRejected: return Status::kRejected;
    case service::Admission::kClosed:   return Status::kClosed;
  }
  return Status::kInternal;
}

void Writer::U16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::U32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::U64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

void Writer::Bytes(std::span<const std::uint8_t> bytes) {
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

void Writer::Str16(std::string_view text) {
  if (text.size() > 0xFFFF) {
    throw WireError(Status::kBadFrame,
                    "string field longer than 65535 bytes");
  }
  U16(static_cast<std::uint16_t>(text.size()));
  bytes_.insert(bytes_.end(), text.begin(), text.end());
}

void Reader::Need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw WireError(Status::kBadFrame,
                    "truncated payload: need " + std::to_string(n) +
                        " more byte(s) at offset " + std::to_string(pos_) +
                        " of " + std::to_string(bytes_.size()));
  }
}

std::uint8_t Reader::U8() {
  Need(1);
  return bytes_[pos_++];
}

std::uint16_t Reader::U16() {
  Need(2);
  std::uint16_t v = static_cast<std::uint16_t>(bytes_[pos_]) |
                    static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::U32() {
  Need(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | bytes_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t Reader::U64() {
  Need(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | bytes_[pos_ + i];
  pos_ += 8;
  return v;
}

double Reader::F64() { return std::bit_cast<double>(U64()); }

std::string Reader::Str16() {
  const std::uint16_t len = U16();
  Need(len);
  std::string text(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return text;
}

void Reader::ExpectEnd() const {
  if (remaining() != 0) {
    throw WireError(Status::kBadFrame,
                    std::to_string(remaining()) +
                        " trailing byte(s) after the payload");
  }
}

std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameLengthBytes + 1 + payload.size());
  AppendFrame(frame, type, payload);
  return frame;
}

void AppendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 std::span<const std::uint8_t> payload) {
  Writer w(out);
  w.U32(static_cast<std::uint32_t>(payload.size() + 1));
  w.U8(static_cast<std::uint8_t>(type));
  w.Bytes(payload);
}

std::optional<Frame> TryExtractFrame(std::vector<std::uint8_t>& buffer,
                                     std::size_t max_frame_bytes) {
  if (buffer.size() < kFrameLengthBytes) return std::nullopt;
  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i) length = (length << 8) | buffer[i];
  if (length == 0) {
    throw WireError(Status::kBadFrame, "zero-length frame");
  }
  if (length > max_frame_bytes) {
    throw WireError(Status::kFrameTooLarge,
                    "frame of " + std::to_string(length) +
                        " bytes exceeds the cap of " +
                        std::to_string(max_frame_bytes));
  }
  if (buffer.size() < kFrameLengthBytes + length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(buffer[kFrameLengthBytes]);
  frame.payload.assign(
      buffer.begin() + static_cast<std::ptrdiff_t>(kFrameLengthBytes + 1),
      buffer.begin() +
          static_cast<std::ptrdiff_t>(kFrameLengthBytes + length));
  buffer.erase(buffer.begin(),
               buffer.begin() +
                   static_cast<std::ptrdiff_t>(kFrameLengthBytes + length));
  return frame;
}

std::vector<std::uint8_t> EncodeHello(const HelloRequest& hello) {
  Writer w;
  w.U32(hello.magic);
  w.U16(hello.version_min);
  w.U16(hello.version_max);
  // A client that cannot speak v2 emits the PR 9 byte layout exactly;
  // the capability word exists only where someone can understand it.
  if (hello.version_max >= 2) w.U32(hello.capabilities);
  return w.Take();
}

HelloRequest DecodeHello(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  HelloRequest hello;
  hello.magic = r.U32();
  hello.version_min = r.U16();
  hello.version_max = r.U16();
  // v1 clients offer no capabilities; absent word decodes as 0.
  hello.capabilities = r.remaining() > 0 ? r.U32() : 0;
  r.ExpectEnd();
  return hello;
}

std::vector<std::uint8_t> EncodeHelloOk(const HelloReply& reply) {
  Writer w;
  w.U16(reply.version);
  w.U64(reply.max_frame_bytes);
  // Self-describing: the capability word rides only on a v2+ HELLO_OK,
  // so a v1 negotiation stays byte-identical to PR 9.
  if (reply.version >= 2) w.U32(reply.capabilities);
  return w.Take();
}

HelloReply DecodeHelloOk(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  HelloReply reply;
  reply.version = r.U16();
  reply.max_frame_bytes = r.U64();
  reply.capabilities = reply.version >= 2 ? r.U32() : 0;
  r.ExpectEnd();
  return reply;
}

std::vector<std::uint8_t> EncodeOpen(const OpenRequest& open) {
  Writer w;
  w.U16(open.width);
  w.U64(open.stride);
  w.U8(open.protection);
  w.U64(open.queue_capacity);
  w.U64(open.slowdown_watermark);
  w.U32(open.max_retries);
  w.U64(open.access_budget);
  w.U64(open.adaptive_window);
  w.I64(open.adaptive_hysteresis);
  w.U64(open.fault_seed);
  w.Str16(open.codec);
  w.Str16(open.adaptive_palette);
  return w.Take();
}

OpenRequest DecodeOpen(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  OpenRequest open;
  open.width = r.U16();
  open.stride = r.U64();
  open.protection = r.U8();
  open.queue_capacity = r.U64();
  open.slowdown_watermark = r.U64();
  open.max_retries = r.U32();
  open.access_budget = r.U64();
  open.adaptive_window = r.U64();
  open.adaptive_hysteresis = r.I64();
  open.fault_seed = r.U64();
  open.codec = r.Str16();
  open.adaptive_palette = r.Str16();
  r.ExpectEnd();
  return open;
}

std::vector<std::uint8_t> EncodeOpenOk(const OpenReply& reply) {
  Writer w;
  w.U64(reply.session_id);
  w.U64(reply.token);
  return w.Take();
}

OpenReply DecodeOpenOk(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  OpenReply reply;
  reply.session_id = r.U64();
  reply.token = r.U64();
  r.ExpectEnd();
  return reply;
}

std::vector<std::uint8_t> EncodeAttach(const AttachRequest& attach) {
  Writer w;
  w.U64(attach.session_id);
  w.U64(attach.token);
  return w.Take();
}

AttachRequest DecodeAttach(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  AttachRequest attach;
  attach.session_id = r.U64();
  attach.token = r.U64();
  r.ExpectEnd();
  return attach;
}

std::vector<std::uint8_t> EncodeAttachOk(const AttachReply& reply,
                                         std::uint32_t capabilities) {
  Writer w;
  w.U64(reply.session_id);
  w.U64(reply.accepted);
  if (capabilities & kCapRenegotiate) {
    w.U32(reply.renegotiations);
    w.Str16(reply.active_codec);
  }
  return w.Take();
}

AttachReply DecodeAttachOk(std::span<const std::uint8_t> payload,
                           std::uint32_t capabilities) {
  Reader r(payload);
  AttachReply reply;
  reply.session_id = r.U64();
  reply.accepted = r.U64();
  if (capabilities & kCapRenegotiate) {
    reply.renegotiations = r.U32();
    reply.active_codec = r.Str16();
  }
  r.ExpectEnd();
  return reply;
}

std::vector<std::uint8_t> EncodeSubmit(std::uint64_t session_id,
                                       std::span<const BusAccess> batch) {
  Writer w;
  w.U64(session_id);
  w.U32(static_cast<std::uint32_t>(batch.size()));
  for (const BusAccess& access : batch) w.U64(access.address);
  for (const BusAccess& access : batch) w.U8(access.sel ? 1 : 0);
  return w.Take();
}

SubmitRequest DecodeSubmit(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  SubmitRequest request;
  request.session_id = r.U64();
  const std::uint32_t count = r.U32();
  // The columnar body must match the declared count exactly; checking
  // before the per-access loop turns a hostile count into one clean
  // error instead of a large partial parse.
  const std::size_t body = static_cast<std::size_t>(count) * 9;
  if (r.remaining() != body) {
    throw WireError(Status::kBadFrame,
                    "SUBMIT declares " + std::to_string(count) +
                        " accesses (" + std::to_string(body) +
                        " body bytes) but carries " +
                        std::to_string(r.remaining()));
  }
  request.batch.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    request.batch[i].address = r.U64();
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    request.batch[i].sel = r.U8() != 0;
  }
  r.ExpectEnd();
  return request;
}

std::vector<std::uint8_t> EncodeSubmitAck(const SubmitAck& ack,
                                          std::uint32_t capabilities) {
  Writer w;
  w.U64(ack.session_id);
  w.U16(static_cast<std::uint16_t>(ack.status));
  w.U64(ack.accepted);
  if (capabilities & kCapRenegotiate) w.Str16(ack.recommended_codec);
  return w.Take();
}

SubmitAck DecodeSubmitAck(std::span<const std::uint8_t> payload,
                          std::uint32_t capabilities) {
  Reader r(payload);
  SubmitAck ack;
  ack.session_id = r.U64();
  ack.status = static_cast<Status>(r.U16());
  ack.accepted = r.U64();
  if (capabilities & kCapRenegotiate) ack.recommended_codec = r.Str16();
  r.ExpectEnd();
  return ack;
}

std::vector<std::uint8_t> EncodeSubmitStream(
    const SubmitStreamRequest& request) {
  return EncodeSubmitStream(request.session_id, request.offset,
                            request.want_ack,
                            request.columns.addresses.data(),
                            request.columns.sel.data(),
                            request.columns.size());
}

std::vector<std::uint8_t> EncodeSubmitStream(std::uint64_t session_id,
                                             std::uint64_t offset,
                                             bool want_ack,
                                             const Word* addresses,
                                             const std::uint8_t* sel,
                                             std::size_t count) {
  Writer w;
  w.U64(session_id);
  w.U64(offset);
  w.U8(want_ack ? 1 : 0);
  w.U32(static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) w.U64(addresses[i]);
  w.Bytes(std::span<const std::uint8_t>(sel, count));
  return w.Take();
}

SubmitStreamRequest DecodeSubmitStream(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  SubmitStreamRequest request;
  request.session_id = r.U64();
  request.offset = r.U64();
  request.want_ack = r.U8() != 0;
  const std::uint32_t count = r.U32();
  // Same pre-check as SUBMIT: a hostile count is one clean error, not a
  // large partial parse.
  const std::size_t body = static_cast<std::size_t>(count) * 9;
  if (r.remaining() != body) {
    throw WireError(Status::kBadFrame,
                    "SUBMIT_STREAM declares " + std::to_string(count) +
                        " accesses (" + std::to_string(body) +
                        " body bytes) but carries " +
                        std::to_string(r.remaining()));
  }
  request.columns.addresses.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    request.columns.addresses[i] = r.U64();
  }
  request.columns.sel.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    request.columns.sel[i] = r.U8();
  }
  r.ExpectEnd();
  return request;
}

std::vector<std::uint8_t> EncodeRenegotiate(const RenegotiateRequest& request) {
  Writer w;
  w.U64(request.session_id);
  w.Str16(request.codec);
  return w.Take();
}

RenegotiateRequest DecodeRenegotiate(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  RenegotiateRequest request;
  request.session_id = r.U64();
  request.codec = r.Str16();
  r.ExpectEnd();
  return request;
}

std::vector<std::uint8_t> EncodeRenegotiateAck(const RenegotiateReply& reply) {
  Writer w;
  w.U64(reply.session_id);
  w.U64(reply.switch_index);
  w.Str16(reply.codec);
  return w.Take();
}

RenegotiateReply DecodeRenegotiateAck(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  RenegotiateReply reply;
  reply.session_id = r.U64();
  reply.switch_index = r.U64();
  reply.codec = r.Str16();
  r.ExpectEnd();
  return reply;
}

std::vector<std::uint8_t> EncodeDrainStats(const DrainStatsRequest& request) {
  Writer w;
  w.U64(request.session_id);
  w.U8(request.wait_drained ? 1 : 0);
  return w.Take();
}

DrainStatsRequest DecodeDrainStats(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  DrainStatsRequest request;
  request.session_id = r.U64();
  request.wait_drained = r.U8() != 0;
  r.ExpectEnd();
  return request;
}

namespace {

/// The STATS payload layout, written from the scalar fields of `head`
/// and the history passed beside it — so the server can encode straight
/// from a SessionReport without first copying its vectors into a
/// StatsReply.
template <class ResetPoints>
void WriteStats(Writer& w, const StatsReply& head,
                std::span<const long long> per_line,
                const ResetPoints& reset_points,
                std::span<const CodecSwitchPoint> renegotiations,
                std::string_view active_codec, std::uint32_t capabilities) {
  w.U64(head.session_id);
  w.U8(head.state);
  w.U8(head.input_closed ? 1 : 0);
  w.U8(head.degraded ? 1 : 0);
  w.U64(head.accepted);
  w.U64(head.stream_length);
  w.I64(head.transitions);
  w.I32(head.peak_transitions);
  w.F64(head.in_sequence_percent);
  w.U64(head.readmissions);
  w.U64(head.rejected_batches);
  w.U64(head.peak_queue_depth);
  w.U64(head.transport.transfers);
  w.U64(head.transport.clean);
  w.U64(head.transport.corrected);
  w.U64(head.transport.recovered);
  w.U64(head.transport.degraded_deliveries);
  w.U64(head.transport.retries);
  w.U64(head.transport.forced_resyncs);
  w.U32(static_cast<std::uint32_t>(per_line.size()));
  for (long long line : per_line) w.I64(line);
  w.U32(static_cast<std::uint32_t>(reset_points.size()));
  for (const auto point : reset_points) w.U64(point);
  if (capabilities & kCapRenegotiate) {
    w.U32(static_cast<std::uint32_t>(renegotiations.size()));
    for (const CodecSwitchPoint& point : renegotiations) {
      w.U64(point.index);
      w.Str16(point.codec_name);
    }
    w.Str16(active_codec);
  }
}

/// StatsFromReport without the history vectors.
StatsReply StatsHead(const service::SessionReport& report,
                     std::uint64_t accepted) {
  StatsReply stats;
  stats.session_id = report.id;
  stats.state = report.state == service::SessionState::kEvicted ? 1 : 0;
  stats.input_closed = report.input_closed;
  stats.degraded = report.degraded;
  stats.accepted = accepted;
  stats.stream_length = report.result.stream_length;
  stats.transitions = report.result.transitions;
  stats.peak_transitions = report.result.peak_transitions;
  stats.in_sequence_percent = report.result.in_sequence_percent;
  stats.transport = report.transport;
  stats.readmissions = report.readmissions;
  stats.rejected_batches = report.rejected_batches;
  stats.peak_queue_depth = report.peak_queue_depth;
  return stats;
}

}  // namespace

std::vector<std::uint8_t> EncodeStats(const StatsReply& stats,
                                      std::uint32_t capabilities) {
  Writer w;
  WriteStats(w, stats, stats.per_line, stats.reset_points,
             stats.renegotiations, stats.active_codec, capabilities);
  return w.Take();
}

void AppendStatsFrame(std::vector<std::uint8_t>& out,
                      const service::SessionReport& report,
                      std::uint64_t accepted, std::uint32_t capabilities) {
  const std::size_t start = out.size();
  Writer w(out);
  w.U32(0);  // length prefix, patched once the payload is in place
  w.U8(static_cast<std::uint8_t>(FrameType::kStats));
  WriteStats(w, StatsHead(report, accepted), report.result.per_line,
             report.reset_points, report.renegotiations, report.active_codec,
             capabilities);
  const std::uint32_t length =
      static_cast<std::uint32_t>(out.size() - start - kFrameLengthBytes);
  for (std::size_t i = 0; i < kFrameLengthBytes; ++i) {
    out[start + i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
}

StatsReply DecodeStats(std::span<const std::uint8_t> payload,
                       std::uint32_t capabilities) {
  Reader r(payload);
  StatsReply stats;
  stats.session_id = r.U64();
  stats.state = r.U8();
  stats.input_closed = r.U8() != 0;
  stats.degraded = r.U8() != 0;
  stats.accepted = r.U64();
  stats.stream_length = r.U64();
  stats.transitions = r.I64();
  stats.peak_transitions = r.I32();
  stats.in_sequence_percent = r.F64();
  stats.readmissions = r.U64();
  stats.rejected_batches = r.U64();
  stats.peak_queue_depth = r.U64();
  stats.transport.transfers = r.U64();
  stats.transport.clean = r.U64();
  stats.transport.corrected = r.U64();
  stats.transport.recovered = r.U64();
  stats.transport.degraded_deliveries = r.U64();
  stats.transport.retries = r.U64();
  stats.transport.forced_resyncs = r.U64();
  const std::uint32_t lines = r.U32();
  if (static_cast<std::size_t>(lines) * 8 > r.remaining()) {
    throw WireError(Status::kBadFrame,
                    "STATS per-line count exceeds the payload");
  }
  stats.per_line.resize(lines);
  for (std::uint32_t i = 0; i < lines; ++i) stats.per_line[i] = r.I64();
  const std::uint32_t resets = r.U32();
  if (static_cast<std::size_t>(resets) * 8 > r.remaining()) {
    throw WireError(Status::kBadFrame,
                    "STATS reset-point count exceeds the payload");
  }
  stats.reset_points.resize(resets);
  for (std::uint32_t i = 0; i < resets; ++i) stats.reset_points[i] = r.U64();
  if (capabilities & kCapRenegotiate) {
    const std::uint32_t switches = r.U32();
    // Each entry is at least 10 bytes (u64 index + empty str16); bound
    // the count before resizing so a hostile value cannot force a huge
    // allocation.
    if (static_cast<std::size_t>(switches) * 10 > r.remaining()) {
      throw WireError(Status::kBadFrame,
                      "STATS switch-schedule count exceeds the payload");
    }
    stats.renegotiations.resize(switches);
    for (std::uint32_t i = 0; i < switches; ++i) {
      stats.renegotiations[i].index = r.U64();
      stats.renegotiations[i].codec_name = r.Str16();
    }
    stats.active_codec = r.Str16();
  }
  r.ExpectEnd();
  return stats;
}

std::vector<std::uint8_t> EncodeClose(const CloseRequest& request) {
  Writer w;
  w.U64(request.session_id);
  return w.Take();
}

CloseRequest DecodeClose(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  CloseRequest request;
  request.session_id = r.U64();
  r.ExpectEnd();
  return request;
}

std::vector<std::uint8_t> EncodeCloseOk(const CloseReply& reply) {
  Writer w;
  w.U64(reply.session_id);
  return w.Take();
}

CloseReply DecodeCloseOk(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  CloseReply reply;
  reply.session_id = r.U64();
  r.ExpectEnd();
  return reply;
}

std::vector<std::uint8_t> EncodeError(const ErrorReply& error) {
  Writer w;
  w.U16(static_cast<std::uint16_t>(error.status));
  w.Str16(error.message);
  return w.Take();
}

ErrorReply DecodeError(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ErrorReply error;
  error.status = static_cast<Status>(r.U16());
  error.message = r.Str16();
  r.ExpectEnd();
  return error;
}

StatsReply StatsFromReport(const service::SessionReport& report,
                           std::uint64_t accepted) {
  StatsReply stats = StatsHead(report, accepted);
  stats.per_line = report.result.per_line;
  stats.reset_points.assign(report.reset_points.begin(),
                            report.reset_points.end());
  stats.renegotiations = report.renegotiations;
  stats.active_codec = report.active_codec;
  return stats;
}

}  // namespace abenc::net
