// hal::net transport layer — one interface, two realizations.
//
// A Transport hands out point-to-point, message-oriented Connections that
// carry the wire codec's frames (net/wire.h) with exactly-once, in-order
// delivery of *data* messages (tuple batches, result batches, watermarks)
// and a credit-based send window that mirrors the hardware ready/valid
// handshake: when the receiver's window is exhausted, try_send refuses and
// the stall is counted, exactly like a full FIFO stalling an upstream
// engine stage.
//
//   kLoopback — in-process rendezvous. Every message still round-trips
//               through the codec (encode → frame → decode), so a loopback
//               run validates the wire format on every send while staying
//               bit-exact with the cluster's raw SPSC path.
//   kTcp/kUnix— real sockets driven by a nonblocking poll loop with
//               coalesced writes, cumulative acks, retransmit-on-reconnect
//               (sequence gaps or CRC failures reset the link; the dialer
//               redials with exponential backoff and the sender replays
//               unacknowledged frames), and deterministic fault injection
//               (net/fault.h).
//
// Delivery contract shared by all transports: data frames are delivered to
// try_recv exactly once, in send order, regardless of injected drops,
// corruption, or partitions — the cluster on top never sees the faults,
// only the stall/retry counters do.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "net/fault.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace hal::net {

enum class TransportKind : std::uint8_t {
  kInProcess,  // the cluster's raw SPSC links — no codec, no sockets
  kLoopback,   // in-process, full codec round-trip
  kUnix,       // AF_UNIX stream sockets ('@name' = abstract namespace)
  kTcp,        // AF_INET stream sockets, "ip:port" ("...:0" = ephemeral)
};

[[nodiscard]] const char* to_string(TransportKind k) noexcept;
// Accepts "in-process", "loopback", "unix", "tcp". False on anything else.
[[nodiscard]] bool parse_transport_kind(const std::string& text,
                                        TransportKind& out) noexcept;

// Connection-level counters, all cumulative. Updated under the
// connection's lock; read via stats() from any thread.
struct NetStats {
  std::uint64_t frames_sent = 0;      // wire frames written (control + data)
  std::uint64_t frames_received = 0;  // wire frames parsed
  std::uint64_t bytes_sent = 0;       // wire bytes incl. headers
  std::uint64_t bytes_received = 0;
  std::uint64_t msgs_sent = 0;        // data messages accepted by try_send
  std::uint64_t msgs_delivered = 0;   // data messages handed to try_recv
  std::uint64_t retransmits = 0;      // data frames replayed after a reset
  std::uint64_t reconnects = 0;       // re-establishments after the first
  std::uint64_t connect_attempts = 0;
  std::uint64_t crc_errors = 0;       // framing/CRC failures forcing a reset
  std::uint64_t gap_resets = 0;       // sequence gaps forcing a reset
  std::uint64_t stall_resets = 0;     // unacked-data watchdog forced a reset
  std::uint64_t duplicates_dropped = 0;  // replay overlap discarded
  std::uint64_t credit_stalls = 0;    // try_send refused: window exhausted
  std::uint64_t send_stalls = 0;      // try_send refused: link not ready
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t faults_injected = 0;  // drops + corruptions + partitions

  void add(const NetStats& o) noexcept;
};

// Folds every counter into `registry` under `prefix` (all kRuntime: wire
// traffic interleaves with thread scheduling).
void collect_metrics(obs::MetricRegistry& registry, const std::string& prefix,
                     const NetStats& stats);

// Options shared by listen() and connect() endpoints.
struct EndpointOptions {
  std::uint32_t node_id = 0;
  std::uint32_t shard = 0;
  // Credit window granted to the peer, in data frames.
  std::size_t window_frames = 64;
  // Dialer: give up after this long without an established connection.
  double connect_timeout_s = 10.0;
  // Dialer: exponential redial backoff bounds.
  double backoff_initial_ms = 0.5;
  double backoff_max_ms = 100.0;
  // Tail-loss watchdog: a lost frame with no traffic behind it causes
  // neither a sequence gap nor a CRC error, so nothing would ever trigger
  // recovery. If fully written data stays unacknowledged this long, the
  // link is reset and the reconnect handshake replays it.
  double stall_timeout_ms = 200.0;
  // Outbound wire-fault injection for this endpoint.
  FaultPlan fault;
};

class Connection {
 public:
  virtual ~Connection() = default;

  // Nonblocking send of one message. Data types (kTupleBatch,
  // kResultBatch, kWatermark) consume send-window credit and are
  // sequenced/retransmittable; control types bypass the window. Returns
  // false — and counts the stall — when the window is exhausted or the
  // link is not ready; the caller retries (backpressure, never loss).
  [[nodiscard]] virtual bool try_send(MsgType type,
                                      std::span<const std::uint8_t> payload) = 0;

  // Nonblocking receive of the next delivered data message.
  [[nodiscard]] virtual bool try_recv(Frame& out) = 0;

  [[nodiscard]] virtual bool connected() const = 0;
  // Peer sent an orderly shutdown (or is known to be permanently gone).
  [[nodiscard]] virtual bool peer_closed() const = 0;
  // Data messages accepted by try_send that the peer has not acknowledged
  // yet (the retransmit backlog): what a partition may be holding. Takes
  // no lock, so a waiter may poll it on every spin.
  [[nodiscard]] virtual std::uint64_t unacked() const = 0;
  // Orderly teardown: flush, send kShutdown, stop reconnecting.
  virtual void close() = 0;

  [[nodiscard]] virtual NetStats stats() const = 0;

  // Blocking conveniences (yield-spin; timeout < 0 waits forever).
  // send() gives up early when the peer closed.
  bool send(MsgType type, std::span<const std::uint8_t> payload,
            double timeout_s = -1.0);
  bool recv(Frame& out, double timeout_s = -1.0);

  template <typename Msg>
  bool send_msg(MsgType type, const Msg& m, double timeout_s = -1.0) {
    const std::vector<std::uint8_t> payload = net::encode(m);
    return send(type, payload, timeout_s);
  }
};

class Listener {
 public:
  virtual ~Listener() = default;

  // Waits up to timeout_s for a connection from a *new* logical peer
  // (identified by the Hello's node_id/shard); reconnects of known peers
  // are spliced into their existing Connection internally. The returned
  // pointer is owned by the listener and valid for its lifetime; nullptr
  // on timeout.
  [[nodiscard]] virtual Connection* accept(double timeout_s) = 0;

  // Resolved address (e.g. the actual port after binding ":0").
  [[nodiscard]] virtual std::string address() const = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual TransportKind kind() const = 0;
  [[nodiscard]] virtual std::unique_ptr<Listener> listen(
      const std::string& address, const EndpointOptions& opts) = 0;
  [[nodiscard]] virtual std::unique_ptr<Connection> connect(
      const std::string& address, const EndpointOptions& opts) = 0;
};

// kLoopback, kUnix or kTcp (kInProcess has no Transport — it is the
// cluster's native SPSC path). Loopback endpoints rendezvous through the
// returned instance, so dial and listen on the same Transport object.
[[nodiscard]] std::unique_ptr<Transport> make_transport(TransportKind kind);

}  // namespace hal::net
