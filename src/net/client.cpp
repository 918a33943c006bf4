#include "net/client.h"

#include <sys/socket.h>

#include <algorithm>
#include <deque>
#include <string>
#include <utility>

namespace abenc::net {

Client::Client(ClientOptions options) {
  const Endpoint endpoint = ParseEndpoint(options.endpoint);
  fd_ = DialEndpoint(endpoint, options.io_timeout);
  try {
    HelloRequest hello;
    hello.version_max = options.version_max;
    hello.capabilities = options.capabilities;
    const Frame frame = Transact(FrameType::kHello, EncodeHello(hello),
                                 FrameType::kHelloOk);
    const HelloReply reply = DecodeHelloOk(frame.payload);
    max_frame_bytes_ = reply.max_frame_bytes;
    version_ = reply.version;
    caps_ = reply.capabilities;
  } catch (...) {
    Abort();
    throw;
  }
}

Client::~Client() { Abort(); }

OpenReply Client::Open(const OpenRequest& request) {
  const Frame reply =
      Transact(FrameType::kOpen, EncodeOpen(request), FrameType::kOpenOk);
  return DecodeOpenOk(reply.payload);
}

AttachReply Client::Attach(std::uint64_t session_id, std::uint64_t token) {
  AttachRequest request;
  request.session_id = session_id;
  request.token = token;
  const Frame reply = Transact(FrameType::kAttach, EncodeAttach(request),
                               FrameType::kAttachOk);
  return DecodeAttachOk(reply.payload, caps_);
}

SubmitAck Client::Submit(std::uint64_t session_id,
                         std::span<const BusAccess> batch) {
  const Frame reply = Transact(FrameType::kSubmit,
                               EncodeSubmit(session_id, batch),
                               FrameType::kSubmitAck);
  return DecodeSubmitAck(reply.payload, caps_);
}

StatsReply Client::DrainStats(std::uint64_t session_id, bool wait_drained) {
  DrainStatsRequest request;
  request.session_id = session_id;
  request.wait_drained = wait_drained;
  const Frame reply = Transact(FrameType::kDrainStats,
                               EncodeDrainStats(request), FrameType::kStats);
  return DecodeStats(reply.payload, caps_);
}

RenegotiateReply Client::Renegotiate(std::uint64_t session_id,
                                     const std::string& codec) {
  if ((caps_ & kCapRenegotiate) == 0) {
    throw WireError(Status::kBadFrame,
                    "RENEGOTIATE requires the renegotiate capability");
  }
  RenegotiateRequest request;
  request.session_id = session_id;
  request.codec = codec;
  const Frame reply = Transact(FrameType::kRenegotiate,
                               EncodeRenegotiate(request),
                               FrameType::kRenegotiateAck);
  return DecodeRenegotiateAck(reply.payload);
}

StreamSubmitResult Client::SubmitColumns(std::uint64_t session_id,
                                         const Word* addresses,
                                         const std::uint8_t* sel,
                                         std::uint64_t count,
                                         const StreamSubmitOptions& options) {
  if ((caps_ & kCapPipeline) == 0) {
    throw WireError(Status::kBadFrame,
                    "SUBMIT_STREAM requires the pipeline capability");
  }
  const std::size_t chunk = std::max<std::size_t>(1, options.chunk);
  const std::size_t window = std::max<std::size_t>(1, options.window);
  const std::size_t ack_interval =
      std::max<std::size_t>(1, options.ack_interval);

  struct InFlight {
    std::uint64_t offset = 0;
    std::size_t count = 0;
  };
  std::deque<InFlight> inflight;
  StreamSubmitResult result;
  std::uint64_t next = options.start;  // next lifetime index to send
  result.accepted = options.start;
  std::size_t since_ack = 0;

  // Receive one SUBMIT_ACK and fold it into the window state. Returns
  // false once the stream should stop (input closed server-side).
  const auto consume_ack = [&]() -> bool {
    Frame frame = ReadFrame();
    if (frame.type == FrameType::kError) {
      const ErrorReply error = DecodeError(frame.payload);
      throw WireError(error.status, error.message);
    }
    if (frame.type != FrameType::kSubmitAck) {
      throw WireError(Status::kBadFrame,
                      "expected SUBMIT_ACK, got " +
                          FrameTypeName(frame.type));
    }
    const SubmitAck ack = DecodeSubmitAck(frame.payload, caps_);
    if (!ack.recommended_codec.empty()) {
      result.last_recommendation = ack.recommended_codec;
    }
    result.accepted = ack.accepted;
    // Everything the server's count covers was admitted — including
    // unacked frames that preceded an acked one.
    while (!inflight.empty() &&
           inflight.front().offset + inflight.front().count <=
               ack.accepted) {
      inflight.pop_front();
    }
    if (ack.status == Status::kOk) return true;
    if (ack.status == Status::kSlowDown) {
      ++result.slowdowns;
      return true;
    }
    // kRejected (admission or offset guard) / kClosed: the acked frame
    // is the front of the deque — nothing of it was queued. Every frame
    // still in flight behind it will fail the offset guard, and each
    // such rejection is acked; drain those acks so the connection stays
    // in sync, then rewind to the server's authoritative count.
    ++result.rejections;
    // A server that holds full-queue frames (see docs/PROTOCOL.md)
    // rejects a frame at its own count only when the batch is larger
    // than the whole queue: resending it could never succeed.
    std::size_t oversize = 0;
    if (!inflight.empty()) {
      if (ack.status == Status::kRejected &&
          inflight.front().offset == ack.accepted) {
        oversize = inflight.front().count;
      }
      inflight.pop_front();
    }
    const std::size_t trailing = inflight.size();
    inflight.clear();
    for (std::size_t i = 0; i < trailing; ++i) {
      Frame f = ReadFrame();
      if (f.type == FrameType::kError) {
        const ErrorReply error = DecodeError(f.payload);
        throw WireError(error.status, error.message);
      }
      if (f.type != FrameType::kSubmitAck) {
        throw WireError(Status::kBadFrame,
                        "expected SUBMIT_ACK, got " + FrameTypeName(f.type));
      }
      const SubmitAck trailer = DecodeSubmitAck(f.payload, caps_);
      result.accepted = trailer.accepted;
      ++result.rejections;
    }
    next = result.accepted;
    since_ack = 0;
    if (ack.status == Status::kClosed) {
      result.closed = true;
      return false;
    }
    if (oversize != 0) {
      throw WireError(Status::kRejected,
                      "SUBMIT_STREAM batch of " + std::to_string(oversize) +
                          " accesses exceeds the session's queue capacity");
    }
    return true;  // a stale offset: resend from the rewound count at once
  };

  bool streaming = true;
  while (streaming && (next < count || !inflight.empty())) {
    while (next < count && inflight.size() < window) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk, count - next));
      ++since_ack;
      // The frame that fills the window and the final frame always ask
      // for an ack — otherwise a sparse ack_interval could leave the
      // loop waiting on an ack nobody owes it.
      const bool want_ack = since_ack >= ack_interval ||
                            inflight.size() + 1 == window ||
                            next + n == count;
      if (want_ack) since_ack = 0;
      SendRaw(EncodeFrame(FrameType::kSubmitStream,
                          EncodeSubmitStream(session_id, next, want_ack,
                                             addresses + next, sel + next,
                                             n)));
      inflight.push_back({next, n});
      next += n;
    }
    if (inflight.empty()) break;
    streaming = consume_ack();
  }
  return result;
}

CloseReply Client::Close(std::uint64_t session_id) {
  CloseRequest request;
  request.session_id = session_id;
  const Frame reply = Transact(FrameType::kClose, EncodeClose(request),
                               FrameType::kCloseOk);
  return DecodeCloseOk(reply.payload);
}

void Client::SendRaw(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) throw NetError("Client: socket already closed");
  SendAll(fd_, bytes.data(), bytes.size());
}

Frame Client::ReadFrame() {
  if (fd_ < 0) throw NetError("Client: socket already closed");
  for (;;) {
    std::optional<Frame> frame =
        TryExtractFrame(in_, static_cast<std::size_t>(max_frame_bytes_));
    if (frame.has_value()) return std::move(*frame);
    std::uint8_t chunk[65536];
    const std::size_t n = RecvSome(fd_, chunk, sizeof(chunk));
    if (n == 0) throw NetError("connection closed by server");
    in_.insert(in_.end(), chunk, chunk + n);
  }
}

void Client::ShutdownSend() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::Abort() {
  CloseFd(fd_);
  fd_ = -1;
}

Frame Client::Transact(FrameType type,
                       std::span<const std::uint8_t> payload,
                       FrameType expected) {
  const std::vector<std::uint8_t> bytes = EncodeFrame(type, payload);
  SendRaw(bytes);
  Frame reply = ReadFrame();
  if (reply.type == FrameType::kError) {
    const ErrorReply error = DecodeError(reply.payload);
    throw WireError(error.status, error.message);
  }
  if (reply.type != expected) {
    throw WireError(Status::kBadFrame,
                    "expected " + FrameTypeName(expected) + ", got " +
                        FrameTypeName(reply.type));
  }
  return reply;
}

}  // namespace abenc::net
