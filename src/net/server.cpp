#include "net/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

namespace abenc::net {
namespace {

using Clock = std::chrono::steady_clock;

/// SplitMix64 — session-token derivation (capability, not a secret key).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// The loop's self-pipe: stop requests and the service's quiescence
/// notices wake poll() through it.
class WakePipe {
 public:
  WakePipe() {
    if (::pipe(fds_) != 0) {
      throw NetError(std::string("pipe: ") + std::strerror(errno));
    }
    SetNonBlocking(fds_[0]);
    SetNonBlocking(fds_[1]);
  }
  ~WakePipe() {
    CloseFd(fds_[0]);
    CloseFd(fds_[1]);
  }
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int read_fd() const { return fds_[0]; }

  /// A full pipe (EAGAIN) already holds a pending wake-up.
  void Signal() const {
    const std::uint8_t byte = 1;
    [[maybe_unused]] ssize_t n = ::write(fds_[1], &byte, 1);
  }

  void Drain() const {
    std::uint8_t sink[64];
    while (::read(fds_[0], sink, sizeof(sink)) > 0) {
    }
  }

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace

/// One accepted connection. Owned and touched exclusively by the event
/// loop thread, so it carries no locks.
struct Server::Conn {
  int fd = -1;
  bool hello_done = false;
  std::uint16_t version = kProtocolVersion;  // negotiated at HELLO
  std::uint32_t caps = 0;                    // capabilities in force
  bool close_after_flush = false;  // fatal error sent; drop once flushed
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  Clock::time_point last_in;
  Clock::time_point last_out_progress;
  /// Sessions opened or attached on this connection.
  std::set<std::uint64_t> sessions;
  /// DRAIN_STATS with wait_drained: replies deferred until quiescent.
  std::vector<std::uint64_t> pending_stats;
  /// A SUBMIT_STREAM waiting for queue space. While set, the socket is
  /// not read and no later frame is dispatched, so frames still apply
  /// in order and the sender is paced by TCP rather than by rejections.
  std::optional<Frame> held;
};

class Server::Loop {
 public:
  Loop(const ServerConfig& config, service::EncodingService& service)
      : config_(config), service_(service) {}

  ~Loop() {
    // The service runs the hook under its own mutex, so once this
    // returns no shard thread can still be writing to wake_.
    service_.SetQuiescenceHook({});
    for (auto& [fd, conn] : conns_) CloseFd(conn.fd);
    CloseFd(listen_fd_);
    CloseFd(reserve_fd_);
    if (bound_.is_unix) ::unlink(bound_.path.c_str());
  }

  void Bind() {
    bound_ = ParseEndpoint(config_.endpoint);
    listen_fd_ = ListenOn(bound_);
    reserve_fd_ = OpenReserveFd();
    // Deferred DRAIN_STATS replies: a shard that drains a watched
    // session wakes poll() at once (see HandleDrainStats).
    service_.SetQuiescenceHook([wake = &wake_]() { wake->Signal(); });
  }

  std::string endpoint() const { return bound_.ToString(); }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    wake_.Signal();
  }

  ServerStats stats() const {
    ServerStats s;
    s.connections_accepted =
        connections_accepted_.load(std::memory_order_relaxed);
    s.connections_dropped =
        connections_dropped_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.timeouts = timeouts_.load(std::memory_order_relaxed);
    s.frames_received = frames_received_.load(std::memory_order_relaxed);
    s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    s.submitted_accesses =
        submitted_accesses_.load(std::memory_order_relaxed);
    s.renegotiations = renegotiations_.load(std::memory_order_relaxed);
    return s;
  }

  void Run() {
    while (!stop_.load(std::memory_order_acquire)) {
      PollOnce();
      ServeHeldSubmits();
      ServePendingStats();
      EnforceTimeouts();
    }
  }

 private:
  /// Session bookkeeping the wire protocol adds on top of the service:
  /// the ATTACH capability and the admitted-access count that makes
  /// resume-after-disconnect exactly-once.
  struct SessionSlot {
    std::uint64_t token = 0;
    std::uint64_t accepted = 0;  // lifetime accesses admitted
    int attached_fd = -1;        // -1 = detached (connection died)
  };

  void PollOnce() {
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_.read_fd(), POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = conn.held ? 0 : POLLIN;  // hangups are still seen
      if (conn.out_pos < conn.out.size()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(),
                             static_cast<int>(kLoopPollPeriod.count()));
    if (ready <= 0) return;

    if ((fds[0].revents & POLLIN) != 0) AcceptPending();
    if ((fds[1].revents & POLLIN) != 0) wake_.Drain();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      auto it = conns_.find(fds[i].fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      if ((fds[i].revents & POLLOUT) != 0) FlushOut(conn);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!ReadFromConn(conn)) {
          DropConn(conn.fd);
          continue;
        }
      }
      if (conn.close_after_flush && conn.out_pos >= conn.out.size()) {
        DropConn(conn.fd);
      }
    }
  }

  void AcceptPending() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if ((errno == EMFILE || errno == ENFILE) && ShedOne()) continue;
        return;  // EAGAIN or transient failure: next poll
      }
      SetNonBlocking(fd);
      SetNoDelay(fd);
      Conn conn;
      conn.fd = fd;
      conn.last_in = Clock::now();
      conn.last_out_progress = conn.last_in;
      conns_.emplace(fd, std::move(conn));
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Out of descriptors, a pending connection would stay in the backlog
  /// and keep the listen fd readable, so poll() would spin. Spend the
  /// reserve descriptor to accept it and close it at once — the client
  /// sees EOF — then take the reserve again.
  bool ShedOne() {
    if (reserve_fd_ < 0) return false;
    CloseFd(reserve_fd_);
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    CloseFd(fd);
    reserve_fd_ = OpenReserveFd();
    return fd >= 0;
  }

  static int OpenReserveFd() {
    return ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  }

  /// Pull bytes and dispatch complete frames. Returns false when the
  /// connection is gone (peer closed or hard error): any partially
  /// received frame in `conn.in` is discarded whole — frames are
  /// atomic, so a mid-frame disconnect can never half-apply a batch.
  bool ReadFromConn(Conn& conn) {
    std::uint8_t chunk[65536];
    bool peer_eof = false;
    for (;;) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n == 0) {  // orderly close — but the peer may still be reading
        peer_eof = true;
        break;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;  // reset / hard error
      }
      conn.last_in = Clock::now();
      conn.in.insert(conn.in.end(), chunk, chunk + n);
      if (conn.in.size() >= sizeof(chunk)) break;  // fairness: next poll
    }
    // Frames already buffered are dispatched even when EOF arrived in
    // the same poll cycle: a client that sends a violation and
    // half-closes still gets its protocol ERROR before the close. Only
    // a trailing *partial* frame is discarded whole.
    DispatchBuffered(conn);
    if (peer_eof) conn.close_after_flush = true;
    return true;
  }

  /// Extract and dispatch the complete frames in `conn.in`, stopping at
  /// a held SUBMIT_STREAM.
  void DispatchBuffered(Conn& conn) {
    while (!conn.close_after_flush && !conn.held) {
      std::optional<Frame> frame;
      try {
        frame = TryExtractFrame(conn.in, config_.max_frame_bytes);
      } catch (const WireError& e) {
        SendError(conn, e.status(), e.what());
        break;
      }
      if (!frame.has_value()) break;
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      DispatchFrame(conn, *frame);
    }
  }

  void DispatchFrame(Conn& conn, const Frame& frame) {
    try {
      HandleFrame(conn, frame);
    } catch (const WireError& e) {
      // Malformed payload (or an oversized string field): the framing
      // itself is suspect, so these are connection-fatal.
      SendError(conn, e.status(), e.what());
    } catch (const std::exception& e) {
      SendError(conn, Status::kInternal, e.what());
    }
  }

  void HandleFrame(Conn& conn, const Frame& frame) {
    if (!conn.hello_done) {
      if (frame.type != FrameType::kHello) {
        throw WireError(Status::kBadFrame,
                        FrameTypeName(frame.type) + " before HELLO");
      }
      const HelloRequest hello = DecodeHello(frame.payload);
      if (hello.magic != kHelloMagic) {
        SendError(conn, Status::kBadMagic,
                  "HELLO magic mismatch (not an abenc client?)");
        return;
      }
      // Highest version both sides speak; no overlap is fatal.
      if (hello.version_min > kProtocolVersion ||
          hello.version_max < kProtocolVersionMin) {
        SendError(conn, Status::kBadVersion,
                  "server speaks versions [" +
                      std::to_string(kProtocolVersionMin) + ", " +
                      std::to_string(kProtocolVersion) +
                      "], client supports [" +
                      std::to_string(hello.version_min) + ", " +
                      std::to_string(hello.version_max) + "]");
        return;
      }
      conn.hello_done = true;
      conn.version = std::min(kProtocolVersion, hello.version_max);
      // Capabilities exist from v2 on and only where both sides agree;
      // a v1 negotiation leaves every v2 frame/field off this
      // connection for good.
      conn.caps = conn.version >= 2
                      ? (hello.capabilities & config_.capabilities)
                      : 0;
      HelloReply reply;
      reply.version = conn.version;
      reply.max_frame_bytes = config_.max_frame_bytes;
      reply.capabilities = conn.caps;
      SendFrame(conn, FrameType::kHelloOk, EncodeHelloOk(reply));
      return;
    }
    switch (frame.type) {
      case FrameType::kOpen:       HandleOpen(conn, frame); return;
      case FrameType::kAttach:     HandleAttach(conn, frame); return;
      case FrameType::kSubmit:     HandleSubmit(conn, frame); return;
      case FrameType::kDrainStats: HandleDrainStats(conn, frame); return;
      case FrameType::kClose:      HandleClose(conn, frame); return;
      case FrameType::kRenegotiate:
        RequireCap(conn, kCapRenegotiate, "RENEGOTIATE");
        HandleRenegotiate(conn, frame);
        return;
      case FrameType::kSubmitStream:
        RequireCap(conn, kCapPipeline, "SUBMIT_STREAM");
        HandleSubmitStream(conn, frame);
        return;
      case FrameType::kHello:
        throw WireError(Status::kBadFrame, "repeated HELLO");
      default:
        throw WireError(Status::kBadFrame,
                        "unexpected frame type " +
                            std::to_string(static_cast<int>(frame.type)));
    }
  }

  /// A frame gated on a capability the connection did not negotiate is
  /// a framing violation, exactly like an unknown frame type — fatal.
  void RequireCap(const Conn& conn, std::uint32_t cap,
                  const char* frame_name) {
    if ((conn.caps & cap) == 0) {
      throw WireError(Status::kBadFrame,
                      std::string(frame_name) +
                          " without the negotiated capability");
    }
  }

  void HandleOpen(Conn& conn, const Frame& frame) {
    const OpenRequest open = DecodeOpen(frame.payload);
    service::SessionConfig session = config_.service.session;
    session.codec_name = open.codec;
    session.codec_options.width = open.width;
    session.codec_options.stride = open.stride;
    session.codec_options.adaptive_window =
        static_cast<std::size_t>(open.adaptive_window);
    session.codec_options.adaptive_hysteresis = open.adaptive_hysteresis;
    session.codec_options.adaptive_palette = open.adaptive_palette;
    session.queue_capacity =
        static_cast<std::size_t>(open.queue_capacity);
    session.slowdown_watermark =
        static_cast<std::size_t>(open.slowdown_watermark);
    session.max_retries = open.max_retries;
    session.access_budget = open.access_budget;
    switch (open.protection) {
      case 0: session.protection = Protection::kNone; break;
      case 1: session.protection = Protection::kParity; break;
      case 2: session.protection = Protection::kSecded; break;
      default:
        SendError(conn, Status::kBadConfig,
                  "unknown protection code " +
                      std::to_string(int{open.protection}));
        return;
    }
    if (open.fault_seed != 0) {
      if (!config_.fault_planner) {
        SendError(conn, Status::kBadConfig,
                  "this server accepts no wire-specified fault seeds");
        return;
      }
      session.fault_installer = config_.fault_planner(open.fault_seed);
    }
    std::uint64_t id = 0;
    try {
      id = service_.OpenSession(session);
    } catch (const std::invalid_argument& e) {
      // CodecConfigError / ChannelConfigError: the negotiated codec or
      // palette is invalid — request-scoped, the connection survives.
      SendError(conn, Status::kBadConfig, e.what());
      return;
    }
    SessionSlot slot;
    slot.token = Mix64(0xABE5C0DE00000000ULL ^ id);
    slot.attached_fd = conn.fd;
    sessions_.emplace(id, slot);
    conn.sessions.insert(id);
    OpenReply reply;
    reply.session_id = id;
    reply.token = slot.token;
    SendFrame(conn, FrameType::kOpenOk, EncodeOpenOk(reply));
  }

  void HandleAttach(Conn& conn, const Frame& frame) {
    const AttachRequest attach = DecodeAttach(frame.payload);
    auto it = sessions_.find(attach.session_id);
    if (it == sessions_.end()) {
      SendError(conn, Status::kUnknownSession,
                "no session " + std::to_string(attach.session_id));
      return;
    }
    SessionSlot& slot = it->second;
    if (slot.token != attach.token) {
      SendError(conn, Status::kBadToken,
                "token mismatch for session " +
                    std::to_string(attach.session_id));
      return;
    }
    // Takeover: a reconnecting client may attach before the server has
    // noticed its old connection die; the newest attach wins and the
    // stale connection loses the session.
    if (slot.attached_fd >= 0 && slot.attached_fd != conn.fd) {
      auto old = conns_.find(slot.attached_fd);
      if (old != conns_.end()) old->second.sessions.erase(attach.session_id);
    }
    slot.attached_fd = conn.fd;
    conn.sessions.insert(attach.session_id);
    AttachReply reply;
    reply.session_id = attach.session_id;
    reply.accepted = slot.accepted;
    if ((conn.caps & kCapRenegotiate) != 0) {
      // Resume context: whether switches the client acked before the
      // disconnect actually landed, and the codec encoding right now.
      const service::SessionReport report =
          service_.Report(attach.session_id);
      reply.renegotiations =
          static_cast<std::uint32_t>(report.renegotiations.size());
      reply.active_codec = report.active_codec;
    }
    SendFrame(conn, FrameType::kAttachOk,
              EncodeAttachOk(reply, conn.caps));
  }

  /// Shared SUBMIT/DRAIN_STATS/CLOSE precondition: the session exists
  /// and is attached to this connection. Returns nullptr after sending
  /// the appropriate ERROR.
  SessionSlot* RequireAttached(Conn& conn, std::uint64_t session_id) {
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      SendError(conn, Status::kUnknownSession,
                "no session " + std::to_string(session_id));
      return nullptr;
    }
    if (it->second.attached_fd != conn.fd) {
      SendError(conn, Status::kNotAttached,
                "session " + std::to_string(session_id) +
                    " is not attached to this connection");
      return nullptr;
    }
    return &it->second;
  }

  void HandleSubmit(Conn& conn, const Frame& frame) {
    const SubmitRequest request = DecodeSubmit(frame.payload);
    SessionSlot* slot = RequireAttached(conn, request.session_id);
    if (slot == nullptr) return;
    const service::Admission admission =
        service_.Submit(request.session_id, request.batch);
    if (admission == service::Admission::kAccepted ||
        admission == service::Admission::kSlowDown) {
      slot->accepted += request.batch.size();
      submitted_accesses_.fetch_add(request.batch.size(),
                                    std::memory_order_relaxed);
    }
    SendSubmitAck(conn, request.session_id, AdmissionToStatus(admission),
                  slot->accepted);
  }

  /// kCapPipeline: the streaming/pipelined submission path. The offset
  /// guard makes in-flight rejection safe — a frame whose expected
  /// lifetime admitted count disagrees with the server's is rejected
  /// whole (an earlier pipelined frame must have been rejected), so a
  /// rejection can never punch a gap into the admitted stream.
  void HandleSubmitStream(Conn& conn, const Frame& frame) {
    SubmitStreamRequest request = DecodeSubmitStream(frame.payload);
    SessionSlot* slot = RequireAttached(conn, request.session_id);
    if (slot == nullptr) return;
    const std::size_t count = request.columns.size();
    Status status;
    if (request.offset != slot->accepted) {
      status = Status::kRejected;  // stale offset: nothing queued
    } else if (!service_.WatchRoom(request.session_id, count)) {
      // The queue is too full for the batch, but a shard is draining
      // it: hold the frame and retry when the shard reports room,
      // instead of rejecting a pipelined window the sender would have
      // to rewind and resend.
      conn.held = frame;
      return;
    } else {
      const service::Admission admission = service_.SubmitColumns(
          request.session_id, std::move(request.columns));
      status = AdmissionToStatus(admission);
      if (admission == service::Admission::kAccepted ||
          admission == service::Admission::kSlowDown) {
        slot->accepted += count;
        submitted_accesses_.fetch_add(count, std::memory_order_relaxed);
      }
    }
    // One ack per requested window; any non-kOk verdict is always acked
    // so the sender can rewind from the authoritative count.
    if (request.want_ack || status != Status::kOk) {
      SendSubmitAck(conn, request.session_id, status, slot->accepted);
    }
  }

  /// kCapRenegotiate: switch an attached session's codec, pinned to the
  /// lifetime admitted index. An empty codec asks the server policy.
  void HandleRenegotiate(Conn& conn, const Frame& frame) {
    const RenegotiateRequest request = DecodeRenegotiate(frame.payload);
    SessionSlot* slot = RequireAttached(conn, request.session_id);
    if (slot == nullptr) return;
    std::string codec = request.codec;
    if (codec.empty()) {
      codec = Recommendation(request.session_id);
      if (codec.empty()) {
        SendError(conn, Status::kRenegotiateRefused,
                  "policy has no recommendation for session " +
                      std::to_string(request.session_id));
        return;
      }
    }
    const service::RenegotiateOutcome outcome =
        service_.Renegotiate(request.session_id, codec);
    if (!outcome.ok()) {
      const Status status =
          outcome.status == service::RenegotiateStatus::kRefusedBadCodec
              ? Status::kBadConfig
              : Status::kRenegotiateRefused;
      SendError(conn, status,
                "renegotiation refused: " +
                    service::RenegotiateStatusName(outcome.status));
      return;
    }
    renegotiations_.fetch_add(1, std::memory_order_relaxed);
    RenegotiateReply reply;
    reply.session_id = request.session_id;
    reply.switch_index = outcome.switch_index;
    reply.codec = outcome.codec_name;
    SendFrame(conn, FrameType::kRenegotiateAck,
              EncodeRenegotiateAck(reply));
  }

  void SendSubmitAck(Conn& conn, std::uint64_t session_id, Status status,
                     std::uint64_t accepted) {
    SubmitAck ack;
    ack.session_id = session_id;
    ack.status = status;
    ack.accepted = accepted;
    if ((conn.caps & kCapRenegotiate) != 0) {
      ack.recommended_codec = Recommendation(session_id);
    }
    SendFrame(conn, FrameType::kSubmitAck,
              EncodeSubmitAck(ack, conn.caps));
  }

  /// The policy's advisory proposal for a session, or "" when the drain
  /// lock is busy, the tracker has no completed window yet, or no switch
  /// would currently be admissible anyway.
  std::string Recommendation(std::uint64_t session_id) {
    const std::optional<service::RenegotiationSnapshot> snapshot =
        service_.StatsSnapshot(session_id);
    if (!snapshot.has_value() || snapshot->windows_completed == 0 ||
        snapshot->switch_pending || snapshot->degraded) {
      return "";
    }
    return config_.renegotiation.Recommend(snapshot->window,
                                           snapshot->width,
                                           snapshot->active_codec);
  }

  void HandleDrainStats(Conn& conn, const Frame& frame) {
    const DrainStatsRequest request = DecodeDrainStats(frame.payload);
    SessionSlot* slot = RequireAttached(conn, request.session_id);
    if (slot == nullptr) return;
    // Not yet drained: the reply waits for the shard's quiescence
    // notice, which wakes poll() — no timer is involved.
    if (request.wait_drained && !service_.WatchDrained(request.session_id)) {
      conn.pending_stats.push_back(request.session_id);
      return;
    }
    SendStats(conn, request.session_id, *slot);
  }

  void HandleClose(Conn& conn, const Frame& frame) {
    const CloseRequest request = DecodeClose(frame.payload);
    SessionSlot* slot = RequireAttached(conn, request.session_id);
    if (slot == nullptr) return;
    service_.CloseSession(request.session_id);
    CloseReply reply;
    reply.session_id = request.session_id;
    SendFrame(conn, FrameType::kCloseOk, EncodeCloseOk(reply));
  }

  /// One copy of the session's history per reply: Report() into the
  /// loop's reused scratch, then the frame is encoded from it straight
  /// into the connection's out buffer.
  void SendStats(Conn& conn, std::uint64_t session_id,
                 const SessionSlot& slot) {
    service_.ReportInto(session_id, report_scratch_);
    AppendStatsFrame(conn.out, report_scratch_, slot.accepted, conn.caps);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    FlushOut(conn);
  }

  /// Held SUBMIT_STREAMs: retried whenever the loop wakes (a room
  /// notice, another connection's traffic, the poll period). A frame
  /// that still finds no room re-arms its watch and stays held; one
  /// that is decided lets the connection's buffered frames follow.
  void ServeHeldSubmits() {
    for (auto& [fd, conn] : conns_) {
      if (!conn.held) continue;
      const std::optional<Frame> frame = std::exchange(conn.held, {});
      DispatchFrame(conn, *frame);
      DispatchBuffered(conn);
    }
  }

  /// Deferred DRAIN_STATS replies: answered as soon as the session's
  /// queue is empty and its last popped batch has been processed. One
  /// still waiting re-arms its watch (a pipelined SUBMIT may have
  /// refilled the queue after the notice that woke us).
  void ServePendingStats() {
    for (auto& [fd, conn] : conns_) {
      if (conn.pending_stats.empty()) continue;
      std::vector<std::uint64_t> still_waiting;
      for (std::uint64_t id : conn.pending_stats) {
        auto it = sessions_.find(id);
        if (it == sessions_.end()) continue;  // closed underneath us
        if (!service_.WatchDrained(id)) {
          still_waiting.push_back(id);
          continue;
        }
        SendStats(conn, id, it->second);
      }
      conn.pending_stats = std::move(still_waiting);
    }
  }

  void EnforceTimeouts() {
    const Clock::time_point now = Clock::now();
    std::vector<int> drops;
    for (auto& [fd, conn] : conns_) {
      const bool owes_reply = !conn.pending_stats.empty() || conn.held ||
                              conn.out_pos < conn.out.size();
      if (!owes_reply && now - conn.last_in > config_.read_timeout) {
        drops.push_back(fd);
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (conn.out_pos < conn.out.size() &&
          now - conn.last_out_progress > config_.write_timeout) {
        drops.push_back(fd);
        timeouts_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (int fd : drops) DropConn(fd);
  }

  void SendError(Conn& conn, Status status, const std::string& message) {
    ErrorReply error;
    error.status = status;
    error.message = message;
    SendFrame(conn, FrameType::kError, EncodeError(error));
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    if (StatusIsFatal(status)) conn.close_after_flush = true;
  }

  void SendFrame(Conn& conn, FrameType type,
                 const std::vector<std::uint8_t>& payload) {
    AppendFrame(conn.out, type, payload);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    FlushOut(conn);
  }

  void FlushOut(Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_pos,
                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: poll for POLLOUT; hard errors surface on read
      }
      conn.out_pos += static_cast<std::size_t>(n);
      conn.last_out_progress = Clock::now();
    }
    conn.out.clear();
    conn.out_pos = 0;
  }

  void DropConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    // Detach, never destroy: the sessions stay in the service and an
    // ATTACH with the right token resumes them exactly-once.
    for (std::uint64_t id : it->second.sessions) {
      auto slot = sessions_.find(id);
      if (slot != sessions_.end() && slot->second.attached_fd == fd) {
        slot->second.attached_fd = -1;
      }
    }
    CloseFd(it->second.fd);
    conns_.erase(it);
    connections_dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  const ServerConfig& config_;
  service::EncodingService& service_;
  Endpoint bound_;
  int listen_fd_ = -1;
  int reserve_fd_ = -1;  // held back for shedding under fd exhaustion
  WakePipe wake_;
  std::atomic<bool> stop_{false};

  // Loop-thread state.
  std::map<int, Conn> conns_;
  std::map<std::uint64_t, SessionSlot> sessions_;
  service::SessionReport report_scratch_;  // SendStats, capacity reused

  // Counters (read from other threads via stats()).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_dropped_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> submitted_accesses_{0};
  std::atomic<std::uint64_t> renegotiations_{0};
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  service_ =
      std::make_unique<service::EncodingService>(config_.service);
}

Server::~Server() { Stop(); }

void Server::Start() {
  if (started_) throw NetError("Server::Start called twice");
  loop_ = std::make_unique<Loop>(config_, *service_);
  loop_->Bind();
  thread_ = std::thread([this]() { loop_->Run(); });
  started_ = true;
}

void Server::Stop() {
  if (stopped_) return;
  if (started_) {
    loop_->RequestStop();
    if (thread_.joinable()) thread_.join();
    loop_.reset();  // closes the listener and every connection
  }
  service_->Stop();
  stopped_ = true;
}

std::string Server::endpoint() const {
  if (loop_ == nullptr) throw NetError("Server not started");
  return loop_->endpoint();
}

ServerStats Server::stats() const {
  if (loop_ == nullptr) return ServerStats{};
  return loop_->stats();
}

}  // namespace abenc::net
