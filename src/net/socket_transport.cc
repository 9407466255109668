// Socket transports (AF_INET / AF_UNIX) for hal::net.
//
// Each connection is a reliable, credit-windowed message channel over a
// nonblocking stream socket:
//
//   * Writes are coalesced: try_send() enqueues encoded frames; the I/O
//     loop assembles every eligible frame into one contiguous wire buffer
//     and hands it to write() in as few syscalls as the socket accepts —
//     the software analog of the hardware engines' batched bus words.
//   * Flow control is credit-based and absolute: the receiver grants
//     "data seq <= G" (Hello/Credit messages), the sender refuses to send
//     past G, and every refusal is counted as a credit stall — the
//     ready/valid handshake, stretched across the wire.
//   * Reliability is retransmit-on-reconnect: data frames stay in a
//     retransmit buffer until cumulatively acked; a sequence gap or CRC
//     failure at the receiver severs the link; the dialer redials with
//     exponential backoff and both sides replay unacked frames from the
//     peer's Hello.resume_seq. Duplicates from replay overlap are dropped
//     by sequence, so delivery is exactly-once in-order end to end.
//   * Faults (net/fault.h) are injected where real networks fail — on the
//     wire copy only — so recovery, not the application, absorbs them.
//
// Threading: a dialer connection runs its own I/O thread; a listener runs
// one I/O thread servicing the accept socket and every accepted
// connection (a small poll()-based event loop). All shared state is
// guarded by each connection's mutex; sockets are touched only by the
// servicing thread.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "net/transport.h"

namespace hal::net {

namespace {

[[nodiscard]] bool is_data(MsgType t) noexcept {
  return t == MsgType::kTupleBatch || t == MsgType::kResultBatch ||
         t == MsgType::kWatermark || t == MsgType::kCheckpoint;
}

[[nodiscard]] double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void tune_stream_socket(int fd, bool tcp) {
  set_nonblocking(fd);
  if (tcp) {
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

// --- Address handling ------------------------------------------------------

struct SockAddr {
  union {
    sockaddr base;
    sockaddr_in in;
    sockaddr_un un;
  } addr{};
  socklen_t len = 0;
};

// "ip:port" with a numeric IPv4 ip; port 0 asks for an ephemeral port.
[[nodiscard]] bool parse_tcp_address(const std::string& text, SockAddr& out) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string host = text.substr(0, colon);
  const std::string port = text.substr(colon + 1);
  if (host.empty() || port.empty()) return false;
  char* end = nullptr;
  const unsigned long p = std::strtoul(port.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || p > 65535) return false;
  out.addr.in.sin_family = AF_INET;
  out.addr.in.sin_port = htons(static_cast<std::uint16_t>(p));
  if (::inet_pton(AF_INET, host.c_str(), &out.addr.in.sin_addr) != 1) {
    return false;
  }
  out.len = sizeof(sockaddr_in);
  return true;
}

// A leading '@' selects the Linux abstract namespace (no filesystem node
// to unlink); otherwise the address is a filesystem path.
[[nodiscard]] bool parse_unix_address(const std::string& text, SockAddr& out) {
  if (text.empty()) return false;
  const bool abstract = text[0] == '@';
  const std::string name = abstract ? text.substr(1) : text;
  if (name.empty() || name.size() >= sizeof(out.addr.un.sun_path) - 1) {
    return false;
  }
  out.addr.un.sun_family = AF_UNIX;
  char* path = out.addr.un.sun_path;
  if (abstract) {
    path[0] = '\0';
    std::memcpy(path + 1, name.data(), name.size());
    out.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                     name.size());
  } else {
    std::memcpy(path, name.data(), name.size());
    path[name.size()] = '\0';
    out.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                     name.size() + 1);
  }
  return true;
}

[[nodiscard]] bool parse_address(TransportKind kind, const std::string& text,
                                 SockAddr& out) {
  return kind == TransportKind::kTcp ? parse_tcp_address(text, out)
                                     : parse_unix_address(text, out);
}

struct WakePipe {
  WakePipe() {
    int fds[2] = {-1, -1};
    HAL_ASSERT(::pipe(fds) == 0);
    read_fd = fds[0];
    write_fd = fds[1];
    set_nonblocking(read_fd);
    set_nonblocking(write_fd);
  }
  ~WakePipe() {
    ::close(read_fd);
    ::close(write_fd);
  }
  void wake() const {
    const char byte = 'w';
    (void)::write(write_fd, &byte, 1);
  }
  void drain() const {
    char buf[64];
    while (::read(read_fd, buf, sizeof(buf)) > 0) {
    }
  }
  int read_fd;
  int write_fd;
};

// --- Connection ------------------------------------------------------------

class SocketConnection final : public Connection {
 public:
  // Dialer: owns an I/O thread that (re)connects to `address`.
  SocketConnection(TransportKind kind, std::string address,
                   const EndpointOptions& opts)
      : kind_(kind),
        opts_(opts),
        fault_(opts.fault),
        dial_address_(std::move(address)),
        dialer_(true),
        wake_(std::make_unique<WakePipe>()) {
    io_thread_ = std::thread([this] { dial_loop(); });
  }

  // Acceptor: serviced by the listener's loop; `wake_fd` pokes that loop.
  SocketConnection(TransportKind kind, const EndpointOptions& opts,
                   int wake_fd)
      : kind_(kind),
        opts_(opts),
        fault_(opts.fault),
        dialer_(false),
        listener_wake_fd_(wake_fd) {}

  ~SocketConnection() override {
    close();
    if (io_thread_.joinable()) io_thread_.join();
    std::scoped_lock lock(mu_);
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool try_send(MsgType type, std::span<const std::uint8_t> payload) override {
    {
      std::scoped_lock lock(mu_);
      if (stopping_ || peer_closed_ || gave_up_) {
        ++stats_.send_stalls;
        return false;
      }
      if (is_data(type)) {
        if (fd_ < 0 || !handshake_done_) {
          ++stats_.send_stalls;
          return false;
        }
        if (next_seq_ > credit_limit_) {
          ++stats_.credit_stalls;
          return false;
        }
        const std::uint64_t seq = next_seq_++;
        std::vector<std::uint8_t> wire;
        append_frame(wire, type, seq, payload);
        if (retransmit_.empty()) last_ack_progress_ms_ = now_ms();
        retransmit_.push_back({seq, wire});
        publish_unacked_locked();
        pending_.push_back({seq, std::move(wire), true});
        ++stats_.msgs_sent;
      } else {
        std::vector<std::uint8_t> wire;
        append_frame(wire, type, 0, payload);
        pending_.push_back({0, std::move(wire), false});
      }
    }
    wake_io();
    return true;
  }

  bool try_recv(Frame& out) override {
    bool granted = false;
    {
      std::scoped_lock lock(mu_);
      if (inbox_.empty()) return false;
      out = std::move(inbox_.front());
      inbox_.pop_front();
      ++consumed_;
      ++stats_.msgs_delivered;
      granted = maybe_grant_credit_locked();
    }
    if (granted) wake_io();
    return true;
  }

  [[nodiscard]] bool connected() const override {
    std::scoped_lock lock(mu_);
    return fd_ >= 0 && handshake_done_;
  }

  [[nodiscard]] bool peer_closed() const override {
    std::scoped_lock lock(mu_);
    return (peer_closed_ || gave_up_) && inbox_.empty();
  }

  [[nodiscard]] std::uint64_t unacked() const override {
    return unacked_.load(std::memory_order_relaxed);
  }

  void close() override {
    {
      std::scoped_lock lock(mu_);
      if (stopping_) return;
      stopping_ = true;
      if (fd_ >= 0 && handshake_done_) {
        std::vector<std::uint8_t> wire;
        append_frame(wire, MsgType::kShutdown, 0, encode(ShutdownMsg{}));
        pending_.push_back({0, std::move(wire), false});
      }
    }
    wake_io();
  }

  [[nodiscard]] NetStats stats() const override {
    std::scoped_lock lock(mu_);
    return stats_;
  }

  [[nodiscard]] std::uint32_t peer_node_id() const {
    std::scoped_lock lock(mu_);
    return peer_node_id_;
  }
  [[nodiscard]] std::uint32_t peer_shard() const {
    std::scoped_lock lock(mu_);
    return peer_shard_;
  }

  // --- Listener-loop interface (acceptor connections) ----------------------

  // Splices a freshly accepted socket (whose Hello already arrived) into
  // this logical connection; `decoder` may hold frames that followed the
  // Hello in the same read.
  void install_socket(int fd, FrameDecoder decoder, const HelloMsg& hello) {
    std::scoped_lock lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    if (fd_ >= 0) {
      ::close(fd_);  // stale socket superseded by the reconnect
      ++stats_.reconnects;
    }
    fd_ = fd;
    decoder_ = std::move(decoder);
    pending_.clear();
    out_wire_.clear();
    handshake_done_ = false;
    peer_node_id_ = hello.node_id;
    peer_shard_ = hello.shard;
    queue_hello_locked();
    apply_peer_hello_locked(hello);
    (void)drain_decoder_locked();
  }

  // (fd, wants_write) for the poll set; fd < 0 means nothing to poll.
  [[nodiscard]] std::pair<int, bool> poll_info() {
    std::scoped_lock lock(mu_);
    check_stall_locked();
    assemble_wire_locked();
    return {fd_, !out_wire_.empty()};
  }

  void on_readable() {
    int fd = -1;
    {
      std::scoped_lock lock(mu_);
      fd = fd_;
    }
    if (fd < 0) return;
    std::uint8_t buf[64 * 1024];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        std::scoped_lock lock(mu_);
        if (fd_ != fd) return;  // link was reset while reading
        stats_.bytes_received += static_cast<std::uint64_t>(n);
        decoder_.feed({buf, static_cast<std::size_t>(n)});
        if (!drain_decoder_locked()) return;
        continue;
      }
      if (n == 0) {  // peer hung up
        std::scoped_lock lock(mu_);
        if (fd_ == fd) reset_link_locked();
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // The burst is read: acknowledge its tail at once, so the sender
        // holds no delivered frame as unacked (Connection::unacked) until
        // the next burst or its stall watchdog.
        std::scoped_lock lock(mu_);
        if (fd_ == fd) ack_received_locked();
        return;
      }
      if (errno == EINTR) continue;
      std::scoped_lock lock(mu_);
      if (fd_ == fd) reset_link_locked();
      return;
    }
  }

  void on_writable() {
    int fd = -1;
    std::vector<std::uint8_t> chunk;
    {
      std::scoped_lock lock(mu_);
      assemble_wire_locked();
      if (fd_ < 0 || out_wire_.empty()) return;
      fd = fd_;
      chunk.swap(out_wire_);
    }
    std::size_t off = 0;
    while (off < chunk.size()) {
      const ssize_t n = ::send(fd, chunk.data() + off, chunk.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      break;  // EAGAIN: keep the tail; hard error: reset below
    }
    std::scoped_lock lock(mu_);
    if (fd_ != fd) return;
    stats_.bytes_sent += off;
    if (off < chunk.size()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Unwritten tail goes back to the front of the wire buffer.
        out_wire_.insert(out_wire_.begin(), chunk.begin() + off, chunk.end());
      } else {
        reset_link_locked();
      }
    }
  }

  [[nodiscard]] bool finished() {
    std::scoped_lock lock(mu_);
    return stopping_ && pending_.empty() && out_wire_.empty();
  }

 private:
  struct PendingFrame {
    std::uint64_t seq;
    std::vector<std::uint8_t> wire;
    bool data;
  };
  struct RetransmitEntry {
    std::uint64_t seq;
    std::vector<std::uint8_t> wire;
  };

  void wake_io() const {
    if (dialer_) {
      wake_->wake();
    } else if (listener_wake_fd_ >= 0) {
      const char byte = 'w';
      (void)::write(listener_wake_fd_, &byte, 1);
    }
  }

  // Mirrors the retransmit backlog into unacked_ after every change to it.
  void publish_unacked_locked() {
    unacked_.store(retransmit_.size(), std::memory_order_relaxed);
  }

  void queue_control_locked(MsgType type, std::vector<std::uint8_t> payload) {
    std::vector<std::uint8_t> wire;
    append_frame(wire, type, 0, payload);
    pending_.push_back({0, std::move(wire), false});
  }

  void queue_hello_locked() {
    HelloMsg hello;
    hello.node_id = opts_.node_id;
    hello.shard = opts_.shard;
    hello.resume_seq = expected_seq_;
    hello.granted_through_seq = consumed_ + opts_.window_frames;
    last_granted_ = hello.granted_through_seq;
    queue_control_locked(MsgType::kHello, encode(hello));
  }

  void apply_peer_hello_locked(const HelloMsg& hello) {
    if (hello.granted_through_seq > credit_limit_) {
      credit_limit_ = hello.granted_through_seq;
    }
    // Everything below resume_seq was delivered before the link died.
    while (!retransmit_.empty() &&
           retransmit_.front().seq < hello.resume_seq) {
      retransmit_.pop_front();
    }
    publish_unacked_locked();
    for (const RetransmitEntry& e : retransmit_) {
      pending_.push_back({e.seq, e.wire, true});
      ++stats_.retransmits;
    }
    last_ack_progress_ms_ = now_ms();  // fresh replay; restart the watchdog
    handshake_done_ = true;
  }

  // Tail-loss watchdog. Gap detection needs a *later* frame to arrive and
  // CRC detection needs corrupted bytes on the wire — a frame that was
  // dropped with nothing behind it produces neither, and both ends would
  // wait forever (e.g. an epoch's final watermark). If everything queued
  // has been written yet data stays unacknowledged past the deadline,
  // force the reconnect path; the Hello exchange replays it.
  void check_stall_locked() {
    if (fd_ < 0 || !handshake_done_ || retransmit_.empty()) return;
    if (!pending_.empty() || !out_wire_.empty()) return;  // still writing
    if (now_ms() - last_ack_progress_ms_ <= opts_.stall_timeout_ms) return;
    ++stats_.stall_resets;
    reset_link_locked();
  }

  [[nodiscard]] bool maybe_grant_credit_locked() {
    const std::uint64_t grant = consumed_ + opts_.window_frames;
    const std::uint64_t step =
        opts_.window_frames > 4
            ? static_cast<std::uint64_t>(opts_.window_frames) / 4
            : 1;
    if (grant >= last_granted_ + step) {
      last_granted_ = grant;
      queue_control_locked(MsgType::kCredit, encode(CreditMsg{grant}));
      return true;
    }
    return false;
  }

  // Returns false when the link was reset (decoder/frames invalidated).
  [[nodiscard]] bool drain_decoder_locked() {
    while (true) {
      Frame frame;
      const DecodeStatus status = decoder_.next(frame);
      if (status == DecodeStatus::kNeedMore) return true;
      if (status != DecodeStatus::kOk) {
        // Corrupted or unframeable byte stream: the connection has lost
        // integrity; reset and recover through replay.
        ++stats_.crc_errors;
        reset_link_locked();
        return false;
      }
      ++stats_.frames_received;
      if (!process_frame_locked(std::move(frame))) return false;
    }
  }

  [[nodiscard]] bool process_frame_locked(Frame&& frame) {
    switch (frame.header.type) {
      case MsgType::kHello: {
        HelloMsg hello;
        if (!decode(frame.payload, hello)) {
          ++stats_.crc_errors;
          reset_link_locked();
          return false;
        }
        peer_node_id_ = hello.node_id;
        peer_shard_ = hello.shard;
        apply_peer_hello_locked(hello);
        return true;
      }
      case MsgType::kCredit: {
        CreditMsg credit;
        if (decode(frame.payload, credit) &&
            credit.granted_through_seq > credit_limit_) {
          credit_limit_ = credit.granted_through_seq;
        }
        return true;
      }
      case MsgType::kAck: {
        AckMsg ack;
        if (decode(frame.payload, ack)) {
          ++stats_.acks_received;
          last_ack_progress_ms_ = now_ms();
          while (!retransmit_.empty() &&
                 retransmit_.front().seq <= ack.cumulative_seq) {
            retransmit_.pop_front();
          }
          publish_unacked_locked();
        }
        return true;
      }
      case MsgType::kShutdown:
        peer_closed_ = true;
        return true;
      case MsgType::kWatermark:
      case MsgType::kTupleBatch:
      case MsgType::kResultBatch:
      case MsgType::kCheckpoint: {
        const std::uint64_t seq = frame.header.seq;
        if (seq < expected_seq_) {
          ++stats_.duplicates_dropped;  // replay overlap
          return true;
        }
        if (seq > expected_seq_) {
          // A frame was lost (injected drop): framing is intact but the
          // data stream is not; force a reconnect-and-replay.
          ++stats_.gap_resets;
          reset_link_locked();
          return false;
        }
        ++expected_seq_;
        const bool barrier = frame.header.type == MsgType::kWatermark;
        inbox_.push_back(std::move(frame));
        const std::uint64_t ack_every =
            opts_.window_frames > 4
                ? static_cast<std::uint64_t>(opts_.window_frames) / 4
                : 1;
        if (barrier || expected_seq_ - 1 - last_acked_ >= ack_every) {
          ack_received_locked();
        }
        return true;
      }
    }
    return true;  // unreachable: decoder validated the type
  }

  // Acknowledges every data frame received so far, unless already done.
  void ack_received_locked() {
    if (expected_seq_ - 1 == last_acked_) return;
    last_acked_ = expected_seq_ - 1;
    queue_control_locked(MsgType::kAck, encode(AckMsg{last_acked_}));
    ++stats_.acks_sent;
  }

  void reset_link_locked() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    handshake_done_ = false;
    decoder_.reset();
    pending_.clear();  // control frames regenerate; data replays via Hello
    out_wire_.clear();
  }

  // Moves eligible pending frames into the contiguous wire buffer,
  // applying sender-side faults to data frames. One poll cycle then
  // writes the whole buffer: write coalescing.
  void assemble_wire_locked() {
    if (fd_ < 0) return;
    const double now = now_ms();
    if (now < hold_writes_until_ms_) return;
    while (!pending_.empty()) {
      PendingFrame f = std::move(pending_.front());
      pending_.pop_front();
      if (f.data) {
        if (fault_.partition_now()) {
          ++stats_.faults_injected;
          redial_not_before_ms_ =
              now + fault_.plan().partition_seconds * 1e3;
          reset_link_locked();
          return;
        }
        const double delay = fault_.flush_delay_ms();
        switch (fault_.on_data_frame()) {
          case FaultInjector::Action::kDrop:
            ++stats_.faults_injected;
            continue;  // never reaches the wire; replay will deliver it
          case FaultInjector::Action::kCorrupt: {
            ++stats_.faults_injected;
            // Flip one byte of the wire copy; the retransmit buffer keeps
            // the clean original.
            f.wire[f.wire.size() - 1] ^= 0x20;
            break;
          }
          case FaultInjector::Action::kPass:
            break;
        }
        if (delay > 0.0) hold_writes_until_ms_ = now + delay;
      }
      ++stats_.frames_sent;
      out_wire_.insert(out_wire_.end(), f.wire.begin(), f.wire.end());
      if (hold_writes_until_ms_ > now) return;  // delay applies after frame
    }
  }

  // --- Dialer I/O thread ----------------------------------------------------

  [[nodiscard]] int try_connect_once() {
    SockAddr addr;
    if (!parse_address(kind_, dial_address_, addr)) return -1;
    const int domain = kind_ == TransportKind::kTcp ? AF_INET : AF_UNIX;
    const int fd = ::socket(domain, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    tune_stream_socket(fd, kind_ == TransportKind::kTcp);
    if (::connect(fd, &addr.addr.base, addr.len) == 0) return fd;
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 250) <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  void dial_loop() {
    double backoff_ms = opts_.backoff_initial_ms;
    double disconnected_since_ms = now_ms();
    bool ever_connected = false;
    while (true) {
      int fd = -1;
      bool stopping = false;
      {
        std::scoped_lock lock(mu_);
        fd = fd_;
        stopping = stopping_;
        if (stopping && pending_.empty() && out_wire_.empty()) break;
        if (stopping && fd < 0) break;  // nothing left to flush
      }
      if (fd < 0) {
        const double now = now_ms();
        if (now - disconnected_since_ms > opts_.connect_timeout_s * 1e3) {
          std::scoped_lock lock(mu_);
          gave_up_ = true;
          return;
        }
        if (now < redial_not_before_ms_) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        {
          std::scoped_lock lock(mu_);
          ++stats_.connect_attempts;
        }
        const int new_fd = try_connect_once();
        if (new_fd < 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(backoff_ms));
          backoff_ms = std::min(backoff_ms * 2.0, opts_.backoff_max_ms);
          continue;
        }
        std::scoped_lock lock(mu_);
        if (ever_connected) ++stats_.reconnects;
        ever_connected = true;
        backoff_ms = opts_.backoff_initial_ms;
        fd_ = new_fd;
        decoder_.reset();
        pending_.clear();
        out_wire_.clear();
        handshake_done_ = false;
        queue_hello_locked();
        continue;
      }

      bool want_write = false;
      {
        std::scoped_lock lock(mu_);
        check_stall_locked();
        assemble_wire_locked();
        want_write = !out_wire_.empty();
        if (fd_ < 0) {  // stall watchdog or partition fault fired
          disconnected_since_ms = now_ms();
          continue;
        }
      }
      pollfd pfds[2] = {
          {fd, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)), 0},
          {wake_->read_fd, POLLIN, 0},
      };
      (void)::poll(pfds, 2, 5);
      if (pfds[1].revents & POLLIN) wake_->drain();
      if (pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) on_readable();
      if (pfds[0].revents & POLLOUT) on_writable();
      {
        std::scoped_lock lock(mu_);
        if (fd_ < 0) disconnected_since_ms = now_ms();
      }
    }
    // Final flush attempt for the shutdown frame, then hang up.
    for (int i = 0; i < 10; ++i) {
      on_writable();
      std::scoped_lock lock(mu_);
      if (out_wire_.empty() && pending_.empty()) break;
    }
    std::scoped_lock lock(mu_);
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  const TransportKind kind_;
  const EndpointOptions opts_;
  FaultInjector fault_;
  const std::string dial_address_;
  const bool dialer_;
  std::unique_ptr<WakePipe> wake_;   // dialer only
  int listener_wake_fd_ = -1;        // acceptor only
  std::thread io_thread_;

  mutable std::mutex mu_;
  int fd_ = -1;
  bool handshake_done_ = false;
  bool stopping_ = false;
  bool peer_closed_ = false;
  bool gave_up_ = false;
  std::uint32_t peer_node_id_ = 0;
  std::uint32_t peer_shard_ = 0;

  FrameDecoder decoder_;
  std::deque<PendingFrame> pending_;
  std::vector<std::uint8_t> out_wire_;
  std::deque<RetransmitEntry> retransmit_;
  std::atomic<std::uint64_t> unacked_{0};  // retransmit_.size(), lock-free
  std::deque<Frame> inbox_;

  std::uint64_t next_seq_ = 1;      // sender: next data seq to assign
  std::uint64_t credit_limit_ = 0;  // sender: may send seq <= this
  std::uint64_t expected_seq_ = 1;  // receiver: next data seq expected
  std::uint64_t consumed_ = 0;      // receiver: frames popped by the app
  std::uint64_t last_granted_ = 0;
  std::uint64_t last_acked_ = 0;

  double hold_writes_until_ms_ = 0.0;
  double redial_not_before_ms_ = 0.0;
  double last_ack_progress_ms_ = 0.0;  // stall-watchdog clock

  NetStats stats_;
};

// --- Listener --------------------------------------------------------------

class SocketListener final : public Listener {
 public:
  SocketListener(TransportKind kind, const std::string& address,
                 const EndpointOptions& opts)
      : kind_(kind), opts_(opts) {
    SockAddr addr;
    HAL_CHECK(parse_address(kind, address, addr),
              "unparseable listen address");
    const int domain = kind == TransportKind::kTcp ? AF_INET : AF_UNIX;
    listen_fd_ = ::socket(domain, SOCK_STREAM, 0);
    HAL_CHECK(listen_fd_ >= 0, "socket() failed");
    if (kind == TransportKind::kTcp) {
      int one = 1;
      (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
    } else if (!address.empty() && address[0] != '@') {
      (void)::unlink(address.c_str());
      unlink_path_ = address;
    }
    HAL_CHECK(::bind(listen_fd_, &addr.addr.base, addr.len) == 0,
              "bind() failed");
    HAL_CHECK(::listen(listen_fd_, 64) == 0, "listen() failed");
    set_nonblocking(listen_fd_);
    resolved_ = resolve_address(address);
    thread_ = std::thread([this] { loop(); });
  }

  ~SocketListener() override {
    stop_.store(true, std::memory_order_release);
    wake_.wake();
    thread_.join();
    ::close(listen_fd_);
    for (const Pending& p : pending_) ::close(p.fd);
    conns_.clear();  // connection destructors close their sockets
    if (!unlink_path_.empty()) (void)::unlink(unlink_path_.c_str());
  }

  Connection* accept(double timeout_s) override {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [this] { return !accept_queue_.empty(); })) {
      return nullptr;
    }
    Connection* conn = accept_queue_.front();
    accept_queue_.pop_front();
    return conn;
  }

  [[nodiscard]] std::string address() const override { return resolved_; }

 private:
  struct Pending {
    int fd;
    FrameDecoder decoder;
  };

  [[nodiscard]] std::string resolve_address(const std::string& requested) {
    if (kind_ != TransportKind::kTcp) return requested;
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return requested;
    }
    char ip[INET_ADDRSTRLEN] = {};
    (void)::inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof(ip));
    return std::string(ip) + ":" + std::to_string(ntohs(bound.sin_port));
  }

  void loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      std::vector<pollfd> pfds;
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfds.push_back({wake_.read_fd, POLLIN, 0});
      // The pfds layout is fixed at build time; accept_new_sockets() below
      // grows pending_, so every index past this point must use this
      // snapshot, not pending_.size().
      const std::size_t pending_snapshot = pending_.size();
      for (const Pending& p : pending_) pfds.push_back({p.fd, POLLIN, 0});
      std::vector<SocketConnection*> polled;
      {
        std::scoped_lock lock(mu_);
        for (const auto& conn : conns_) {
          const auto [fd, want_write] = conn->poll_info();
          if (fd < 0) continue;
          pfds.push_back(
              {fd, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)),
               0});
          polled.push_back(conn.get());
        }
      }
      (void)::poll(pfds.data(), pfds.size(), 5);
      if (pfds[1].revents & POLLIN) wake_.drain();
      if (pfds[0].revents & POLLIN) accept_new_sockets();
      const std::size_t pending_base = 2;
      for (std::size_t i = 0; i < pending_snapshot; ++i) {
        if (pfds[pending_base + i].revents & (POLLIN | POLLHUP | POLLERR)) {
          service_pending(i);
        }
      }
      // Sockets accepted this iteration (beyond the snapshot) get polled
      // next time around; abandoned ones (fd < 0) are dropped here.
      prune_pending();
      const std::size_t conn_base = pending_base + pending_snapshot;
      for (std::size_t i = 0; i < polled.size(); ++i) {
        const short revents = pfds[conn_base + i].revents;
        if (revents & (POLLIN | POLLHUP | POLLERR)) polled[i]->on_readable();
        if (revents & POLLOUT) polled[i]->on_writable();
      }
    }
  }

  void accept_new_sockets() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      tune_stream_socket(fd, kind_ == TransportKind::kTcp);
      pending_.push_back({fd, FrameDecoder{}});
    }
  }

  // Reads from a not-yet-identified socket until its Hello arrives, then
  // routes it to the matching logical connection (or creates one).
  void service_pending(std::size_t index) {
    Pending& p = pending_[index];
    std::uint8_t buf[16 * 1024];
    while (true) {
      const ssize_t n = ::read(p.fd, buf, sizeof(buf));
      if (n > 0) {
        p.decoder.feed({buf, static_cast<std::size_t>(n)});
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or hard error before identification: abandon the socket.
      ::close(p.fd);
      p.fd = -1;
      return;
    }
    Frame frame;
    const DecodeStatus status = p.decoder.next(frame);
    if (status == DecodeStatus::kNeedMore) return;
    HelloMsg hello;
    if (status != DecodeStatus::kOk || frame.header.type != MsgType::kHello ||
        !decode(frame.payload, hello)) {
      ::close(p.fd);
      p.fd = -1;
      return;
    }
    SocketConnection* conn = nullptr;
    bool fresh = false;
    {
      std::scoped_lock lock(mu_);
      for (const auto& c : conns_) {
        if (c->peer_node_id() == hello.node_id &&
            c->peer_shard() == hello.shard) {
          conn = c.get();
          break;
        }
      }
      if (conn == nullptr) {
        conns_.push_back(std::make_unique<SocketConnection>(
            kind_, opts_, wake_.write_fd));
        conn = conns_.back().get();
        fresh = true;
      }
    }
    conn->install_socket(p.fd, std::move(p.decoder), hello);
    p.fd = -1;
    if (fresh) {
      {
        std::scoped_lock lock(mu_);
        accept_queue_.push_back(conn);
      }
      cv_.notify_all();
    }
  }

  void prune_pending() {
    std::erase_if(pending_, [](const Pending& p) { return p.fd < 0; });
  }

  const TransportKind kind_;
  const EndpointOptions opts_;
  int listen_fd_ = -1;
  std::string resolved_;
  std::string unlink_path_;
  WakePipe wake_;
  std::thread thread_;
  std::atomic<bool> stop_{false};

  std::vector<Pending> pending_;  // listener-thread-owned

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<SocketConnection>> conns_;
  std::deque<Connection*> accept_queue_;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(TransportKind kind) : kind_(kind) {}

  [[nodiscard]] TransportKind kind() const override { return kind_; }

  std::unique_ptr<Listener> listen(const std::string& address,
                                   const EndpointOptions& opts) override {
    return std::make_unique<SocketListener>(kind_, address, opts);
  }

  std::unique_ptr<Connection> connect(const std::string& address,
                                      const EndpointOptions& opts) override {
    return std::make_unique<SocketConnection>(kind_, address, opts);
  }

 private:
  const TransportKind kind_;
};

}  // namespace

std::unique_ptr<Transport> make_socket_transport(TransportKind kind) {
  return std::make_unique<SocketTransport>(kind);
}

}  // namespace hal::net
