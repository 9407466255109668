// In-process loopback transport: the codec-faithful twin of the cluster's
// raw SPSC links. Every try_send encodes a full wire frame and decodes it
// back through FrameDecoder, CRC checks included, on the sender's thread
// and outside the lock the receiver polls, so a loopback run exercises
// byte-for-byte the same serialization path a socket run does — minus the
// socket. Delivery is trivially reliable and in-order; the
// credit window is still enforced so backpressure behavior (and its
// stall accounting) matches the socket transports.
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

#include "common/assert.h"
#include "net/transport.h"

namespace hal::net {

namespace {

[[nodiscard]] bool is_data(MsgType t) noexcept {
  return t == MsgType::kTupleBatch || t == MsgType::kResultBatch ||
         t == MsgType::kWatermark || t == MsgType::kCheckpoint;
}

// One direction of a loopback connection. The sender encodes into the
// pipe; the receiver decodes out of it. `in_flight` drives the credit
// window: the sender may hold at most `window` undelivered data frames.
//
// Two locks: `send_mu` orders the sending end's senders (and its close),
// so frames enter the pipe in seq order; `mu` guards the frame queue that
// the receiving thread polls, and is held only to push or pop.
struct LoopbackPipe {
  explicit LoopbackPipe(std::size_t window) : window(window) {}

  std::mutex send_mu;
  std::mutex mu;
  std::deque<Frame> frames;  // under mu
  const std::size_t window;
  std::uint64_t next_seq = 1;  // sender-assigned data sequence; send_mu
  // Data frames sent and not yet popped by the receiver: raised under
  // send_mu and mu, lowered under mu alone. An atomic so unacked() and
  // the sender's credit check read it without `mu`.
  std::atomic<std::uint64_t> in_flight{0};
  bool closed = false;  // written under send_mu and mu
};

class LoopbackConnection final : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<LoopbackPipe> tx,
                     std::shared_ptr<LoopbackPipe> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  ~LoopbackConnection() override { close(); }

  bool try_send(MsgType type, std::span<const std::uint8_t> payload) override {
    std::scoped_lock order(tx_->send_mu);
    const bool data = is_data(type);
    if (tx_->closed ||
        (data && tx_->in_flight.load(std::memory_order_relaxed) >=
                     tx_->window)) {
      std::scoped_lock lock(stats_mu_);
      ++(tx_->closed ? stats_.send_stalls : stats_.credit_stalls);
      return false;
    }
    // Under send_mu in_flight can only fall (the receiver pops), so the
    // credit checked above still holds when the frame is pushed.
    const std::uint64_t seq = data ? tx_->next_seq++ : 0;
    // Full codec round trip, outside the pipe lock: encode the frame, then
    // decode it on the spot for the peer's inbox. A loopback message that
    // survives is exactly the byte stream a socket peer would have
    // received.
    std::vector<std::uint8_t> wire;
    append_frame(wire, type, seq, payload);
    FrameDecoder decoder;
    decoder.feed(wire);
    Frame frame;
    const DecodeStatus status = decoder.next(frame);
    HAL_ASSERT_MSG(status == DecodeStatus::kOk,
                   "loopback codec round trip failed");
    {
      // Counted before the push: a receiver that takes the frame and then
      // reads both ends' stats must find it sent.
      std::scoped_lock lock(stats_mu_);
      ++stats_.frames_sent;
      stats_.bytes_sent += wire.size();
      if (data) ++stats_.msgs_sent;
    }
    std::scoped_lock lock(tx_->mu);
    if (data) tx_->in_flight.fetch_add(1, std::memory_order_relaxed);
    tx_->frames.push_back(std::move(frame));
    return true;
  }

  bool try_recv(Frame& out) override {
    std::scoped_lock lock(rx_->mu, stats_mu_);
    while (!rx_->frames.empty()) {
      Frame frame = std::move(rx_->frames.front());
      rx_->frames.pop_front();
      ++stats_.frames_received;
      stats_.bytes_received += kHeaderSize + frame.payload.size();
      // The sender's close() set `closed` when it queued the shutdown.
      if (frame.header.type == MsgType::kShutdown) continue;
      if (is_data(frame.header.type)) {
        rx_->in_flight.fetch_sub(1, std::memory_order_relaxed);
        ++stats_.msgs_delivered;
        out = std::move(frame);
        return true;
      }
      // Control frames (hello/credit/ack) are transport-internal; the
      // loopback needs none of them.
    }
    return false;
  }

  [[nodiscard]] bool connected() const override {
    std::scoped_lock lock(tx_->mu);
    return !tx_->closed;
  }

  [[nodiscard]] bool peer_closed() const override {
    std::scoped_lock lock(rx_->mu);
    return rx_->closed && rx_->frames.empty();
  }

  [[nodiscard]] std::uint64_t unacked() const override {
    return tx_->in_flight.load(std::memory_order_relaxed);
  }

  void close() override {
    std::scoped_lock order(tx_->send_mu);
    std::scoped_lock lock(tx_->mu);
    if (!tx_->closed) {
      Frame frame;
      frame.header.type = MsgType::kShutdown;
      frame.payload = encode(ShutdownMsg{});
      tx_->frames.push_back(std::move(frame));
      tx_->closed = true;
    }
  }

  [[nodiscard]] NetStats stats() const override {
    std::scoped_lock lock(stats_mu_);
    return stats_;
  }

 private:
  std::shared_ptr<LoopbackPipe> tx_;
  std::shared_ptr<LoopbackPipe> rx_;
  mutable std::mutex stats_mu_;
  NetStats stats_;
};

class LoopbackTransport;

class LoopbackListener final : public Listener {
 public:
  LoopbackListener(LoopbackTransport* hub, std::string address)
      : hub_(hub), address_(std::move(address)) {}
  ~LoopbackListener() override;

  Connection* accept(double timeout_s) override;
  [[nodiscard]] std::string address() const override { return address_; }

  void enqueue(std::unique_ptr<Connection> conn) {
    {
      std::scoped_lock lock(mu_);
      pending_.push_back(std::move(conn));
    }
    cv_.notify_one();
  }

 private:
  LoopbackTransport* hub_;
  const std::string address_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Connection>> pending_;
  std::vector<std::unique_ptr<Connection>> accepted_;
};

// The rendezvous hub: connect() pairs two pipe ends and hands the far end
// to the listener registered under the address.
class LoopbackTransport final : public Transport {
 public:
  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::kLoopback;
  }

  std::unique_ptr<Listener> listen(const std::string& address,
                                   const EndpointOptions&) override {
    std::scoped_lock lock(mu_);
    HAL_CHECK(!listeners_.contains(address),
              "loopback address already has a listener");
    auto listener = std::make_unique<LoopbackListener>(this, address);
    listeners_[address] = listener.get();
    return listener;
  }

  std::unique_ptr<Connection> connect(const std::string& address,
                                      const EndpointOptions& opts) override {
    LoopbackListener* listener = nullptr;
    {
      std::scoped_lock lock(mu_);
      const auto it = listeners_.find(address);
      HAL_CHECK(it != listeners_.end(),
                "loopback connect to an address nobody listens on");
      listener = it->second;
    }
    auto a_to_b = std::make_shared<LoopbackPipe>(opts.window_frames);
    auto b_to_a = std::make_shared<LoopbackPipe>(opts.window_frames);
    auto dialer = std::make_unique<LoopbackConnection>(a_to_b, b_to_a);
    listener->enqueue(
        std::make_unique<LoopbackConnection>(b_to_a, a_to_b));
    return dialer;
  }

  void unregister(const std::string& address) {
    std::scoped_lock lock(mu_);
    listeners_.erase(address);
  }

 private:
  std::mutex mu_;
  std::map<std::string, LoopbackListener*> listeners_;
};

LoopbackListener::~LoopbackListener() { hub_->unregister(address_); }

Connection* LoopbackListener::accept(double timeout_s) {
  std::unique_lock lock(mu_);
  if (!cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                    [this] { return !pending_.empty(); })) {
    return nullptr;
  }
  accepted_.push_back(std::move(pending_.front()));
  pending_.pop_front();
  return accepted_.back().get();
}

}  // namespace

// Defined in socket_transport.cc.
std::unique_ptr<Transport> make_socket_transport(TransportKind kind);

std::unique_ptr<Transport> make_transport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      HAL_CHECK(false,
                "kInProcess is the cluster's native SPSC path, not a "
                "net::Transport");
      return nullptr;
    case TransportKind::kLoopback:
      return std::make_unique<LoopbackTransport>();
    case TransportKind::kUnix:
    case TransportKind::kTcp:
      return make_socket_transport(kind);
  }
  return nullptr;
}

}  // namespace hal::net
