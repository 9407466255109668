// In-process transport layer of the hal::cluster runtime.
//
// The cluster models a multi-node deployment inside one process: every
// router→worker and worker→merger connection is a *link* — a bounded SPSC
// channel carrying tuple/result batches, with optional per-link bandwidth
// and latency parameters. Bandwidth pacing stamps each batch with a
// delivery deadline derived from a per-link serialization clock (a batch
// of k tuples occupies the wire for k/bandwidth seconds), and the receiver
// holds the batch until its deadline — so a throttled link sustains at
// most its configured rate without ever blocking the sender beyond queue
// capacity. This makes `dist::PathModel` predictions testable against
// actual execution: configure the links from `dist::PipelineParams`,
// throttle them below engine capacity, and the measured cluster throughput
// must track `PathModel::sustainable_input_tps()`.
//
// Bounded queues are the backpressure mechanism (exactly as the hardware
// engines' ready/valid FIFO links): a full inbox stalls the router, a full
// outbox stalls the worker, and every stalled spin is counted so the
// `ClusterReport` can attribute lost throughput to the congested link.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/spsc_queue.h"
#include "dist/deployments.h"
#include "dist/path_model.h"
#include "net/transport.h"
#include "stream/tuple.h"

namespace hal::cluster {

struct LinkParams {
  // Tuples/s the link can carry; 0 disables bandwidth pacing.
  double bandwidth_tps = 0.0;
  // One-way propagation latency added to every batch, in microseconds.
  double latency_us = 0.0;
  // Bounded queue depth, in batches (backpressure threshold).
  std::size_t capacity_batches = 64;

  // --- hal::guard send budgets / circuit breaker -----------------------
  // Upper bound on how long one send() may stall against a full queue or
  // exhausted credit window before giving up, in microseconds. 0 keeps
  // the pre-guard behavior: retry forever (backpressure, never loss). A
  // bounded budget turns a wedged consumer (partitioned TCP peer, dead
  // worker behind a full queue) from an epoch-long stall into a counted
  // send failure the cluster can fail over from.
  double send_budget_us = 0.0;
  // After this many *consecutive* budget-exhausted sends the breaker
  // opens: every later send fails fast (one counted drop, no waiting)
  // until the link is replaced. 0 disables the breaker (each send spends
  // its full budget). Only meaningful with send_budget_us > 0.
  std::uint32_t breaker_trip_failures = 1;
};

struct TransportParams {
  // Tuples accumulated per batch before a link send (amortizes the
  // per-message queue round trip, like the batched GPU dispatch).
  std::size_t batch_size = 64;
  LinkParams ingress;  // router → worker
  LinkParams egress;   // worker → merger

  // Link backing. kInProcess keeps the raw SPSC queues below (with
  // bandwidth/latency modeling); any other kind routes every batch
  // through a hal::net connection pair — full wire codec, credit window,
  // and (for kUnix/kTcp) real sockets between the cluster's threads.
  // Modeled pacing does not apply to net-backed links: the wire is real,
  // so its latency is too.
  net::TransportKind link_transport = net::TransportKind::kInProcess;
  // Credit window granted on each net-backed link, in frames.
  std::size_t net_window_frames = 64;
  // Wire faults injected on every net-backed ingress link (recovery is
  // the transport's job; the cluster's results must not change).
  net::FaultPlan net_fault;
  // Restrict net_fault to these worker indices (empty = every worker).
  // Lets a chaos plan partition exactly one worker's ingress wire while
  // its replica stays healthy, so breaker-to-failover is observable.
  std::vector<std::uint32_t> net_fault_workers;
  // Net endpoint budget overrides for the cluster's links; 0 keeps the
  // EndpointOptions default. Tightening stall_timeout_ms bounds how long
  // a tail-loss reset takes; backoff_max_ms bounds redial latency.
  double net_connect_timeout_s = 0.0;
  double net_stall_timeout_ms = 0.0;
  double net_backoff_max_ms = 0.0;

  // Remote workers (net link kinds only): one address per worker, indexed
  // by the flat worker index slot * replicas + replica, each served by
  // serve_worker (cluster/remote.h) in another process or thread. The
  // cluster then dials these addresses instead of building worker engines
  // and threads; one connection carries both of a worker's links. Empty =
  // every worker runs in this process.
  std::vector<std::string> worker_addresses;
  // Loopback rendezvous needs dial and listen on one Transport object:
  // the hub the remote workers listen on. Null = a private transport.
  net::Transport* shared_transport = nullptr;

  // Derives link parameters from the distributed-pipeline parameter set
  // used by the dist:: deployment models: the router→worker hop crosses
  // the switch and the destination NIC; the result hop crosses the NIC.
  [[nodiscard]] static TransportParams from_pipeline(
      const dist::PipelineParams& p);
};

// One shard's data path through the cluster, expressed in the dist::
// active-data-path vocabulary so modeled and measured throughput can be
// compared directly: ingress link → worker engine → egress link.
[[nodiscard]] dist::PathModel shard_path_model(const TransportParams& t,
                                               double worker_tps,
                                               double result_selectivity,
                                               const std::string& name);

struct TupleBatch {
  std::uint64_t epoch = 0;
  // Monotone per-link sequence number assigned by the replay log
  // (hal::recovery); 0 when replay is disabled. A restarted worker uses
  // it to discard live batches already covered by its replay delta.
  std::uint64_t link_seq = 0;
  bool end_of_epoch = false;
  double deliver_at_us = 0.0;  // stamped by Link::send
  std::vector<stream::Tuple> tuples;
  // Exact-global windows: each tuple's horizon (HorizonStamper in
  // cluster/router.h), parallel to `tuples`. Empty otherwise.
  std::vector<std::uint64_t> stamps;
  // End-of-epoch batches: the R and S tuples the router sent this link in
  // the epoch, which the worker checks against what arrived (the
  // exactly-once audit, WorkerStep in cluster_engine.h). Zero otherwise.
  std::uint64_t r_count = 0;
  std::uint64_t s_count = 0;
};

struct ResultBatch {
  std::uint64_t epoch = 0;
  std::uint64_t link_seq = 0;  // see TupleBatch (unused on egress today)
  bool end_of_epoch = false;
  bool died = false;  // worker announced fail-stop (fault injection)
  double deliver_at_us = 0.0;
  // Stale pairs the worker dropped since its previous result batch; the
  // merger sums them per completed epoch.
  std::uint64_t dropped = 0;
  std::vector<stream::ResultTuple> results;
};

// Producer-side link statistics, materialized by Link::stats(). Written
// only by the producer thread; readable from the main thread at any time
// (an abandoned worker keeps draining — and sending — with no epoch
// barrier left to publish its counters, so the live counters inside Link
// are relaxed atomics and this is a torn-free snapshot of them).
struct LinkStats {
  std::uint64_t batches = 0;
  std::uint64_t payload_items = 0;
  std::uint64_t stall_spins = 0;     // failed pushes against a full queue
  std::size_t queue_high_water = 0;  // max observed occupancy, in batches
  // hal::guard breaker accounting (all zero with send_budget_us == 0).
  std::uint64_t budget_exhausted = 0;  // sends that gave up at the budget
  std::uint64_t breaker_drops = 0;     // fast-failed sends (breaker open)
  bool breaker_open = false;
};

// Batch ↔ wire-message bridging for net-backed links (transport.cc).
// try_send returns false on a refused send (credit window exhausted);
// try_recv returns false when no data message is pending.
[[nodiscard]] bool net_try_send(net::Connection& conn, const TupleBatch& b);
[[nodiscard]] bool net_try_send(net::Connection& conn, const ResultBatch& b);
[[nodiscard]] bool net_try_recv(net::Connection& conn, TupleBatch& out);
[[nodiscard]] bool net_try_recv(net::Connection& conn, ResultBatch& out);

// A bounded SPSC channel with bandwidth/latency modeling and stall
// accounting. `now_us` is the caller-supplied cluster clock (microseconds
// since engine start) so pacing composes with fault-injected extra delay.
// Every successful send rings `consumer`, the doorbell the consumer thread
// parks on (null when the consumer runs in another process). On a socket
// link the ring can beat the frame to the consumer, which then finds
// nothing, parks again and sees the frame no later than an unrung park
// would.
template <typename T>
class Link {
 public:
  explicit Link(const LinkParams& params, Doorbell* consumer = nullptr)
      : params_(params), queue_(params.capacity_batches), consumer_(consumer) {}

  // Routes the link through hal::net connections instead of the SPSC
  // queue: the producer end encodes every batch onto `tx`, the consumer
  // end decodes from `rx`. A link whose other end runs in another process
  // (a remote worker) attaches only its own end; the other is null. Call
  // before any traffic; the connections must outlive the link's use.
  // Modeled pacing is disabled (deliver_at_us stays 0) — a net-backed
  // wire has real latency.
  void attach_net(net::Connection* tx, net::Connection* rx) {
    net_tx_ = tx;
    net_rx_ = rx;
  }

  // True once the net peer of the consumer end has closed for good (a
  // remote worker or coordinator that went away, with everything it sent
  // already received). SPSC links never close.
  [[nodiscard]] bool peer_closed() const {
    return net_rx_ != nullptr && net_rx_->peer_closed();
  }

  // Blocking send with backpressure accounting; stamps the delivery
  // deadline but never sleeps for pacing itself (the receiver pays the
  // modeled wire time, keeping a single producer able to feed N links at
  // their aggregate rate). Returns false iff the send was abandoned — the
  // budget ran out, the breaker was already open (send_budget_us > 0
  // only), or the net peer closed its end; otherwise an unbudgeted link
  // retries forever. Every failed try calls `on_stall()` first, so a
  // producer that also consumes other links can serve them while it
  // waits (the cluster's process() thread drains results and restarts
  // dead workers there).
  template <typename OnStall = void (*)()>
  [[nodiscard]] bool send(T msg, double now_us, std::uint64_t payload_items,
                          OnStall on_stall = [] {}) {
    if (breaker_open_) {
      stats_.breaker_drops.fetch_add(1, std::memory_order_relaxed);
      stats_.breaker_open.store(true, std::memory_order_relaxed);
      return false;
    }
    if (replay_enabled_) {
      // The log is the producer's alone: the restart that copies it runs
      // on the producer thread too, even inside this send's stall loop, so
      // a copy either contains this batch or sees a floor below its seq —
      // never both, never neither (the exactly-once invariant recovery
      // depends on).
      msg.link_seq = ++replay_seq_;
      replay_log_.push_back(msg);
      if (replay_log_.size() > replay_bound_) {
        const std::uint64_t epoch = replay_log_.front().epoch;
        if (epoch > evicted_through_epoch_) evicted_through_epoch_ = epoch;
        replay_log_.pop_front();
      }
    }
    if (net_tx_ != nullptr) {
      stats_.batches.fetch_add(1, std::memory_order_relaxed);
      stats_.payload_items.fetch_add(payload_items,
                                     std::memory_order_relaxed);
      // A refused send is the wire's ready/valid stall: the peer's credit
      // window is exhausted, exactly like a full FIFO.
      SpinBackoff backoff(SpinBackoff::hot_loop());
      BudgetClock budget(params_.send_budget_us);
      while (!net_try_send(*net_tx_, msg)) {
        stats_.stall_spins.fetch_add(1, std::memory_order_relaxed);
        if (net_tx_->peer_closed()) return false;  // no retry can succeed
        on_stall();
        if (budget.exhausted()) return give_up();
        backoff.pause();
      }
      return delivered();
    }
    double busy_us = 0.0;
    if (params_.bandwidth_tps > 0.0 && payload_items > 0) {
      busy_us = static_cast<double>(payload_items) * 1e6 /
                params_.bandwidth_tps;
    }
    const double start_us = next_free_us_ > now_us ? next_free_us_ : now_us;
    next_free_us_ = start_us + busy_us;
    msg.deliver_at_us = next_free_us_ + params_.latency_us;

    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    stats_.payload_items.fetch_add(payload_items, std::memory_order_relaxed);
    const std::size_t occupied = queue_.size_approx() + 1;  // incl. msg
    const std::size_t clamped =
        occupied < params_.capacity_batches ? occupied
                                            : params_.capacity_batches;
    if (clamped > stats_.queue_high_water.load(std::memory_order_relaxed)) {
      stats_.queue_high_water.store(clamped, std::memory_order_relaxed);
    }
    SpinBackoff backoff(SpinBackoff::hot_loop());
    BudgetClock budget(params_.send_budget_us);
    while (!queue_.try_push(std::move(msg))) {
      stats_.stall_spins.fetch_add(1, std::memory_order_relaxed);
      on_stall();
      if (budget.exhausted()) return give_up();
      backoff.pause();
    }
    return delivered();
  }

  // The producer end's net connection, or null on an SPSC link (which
  // never closes).
  [[nodiscard]] const net::Connection* net_producer() const noexcept {
    return net_tx_;
  }

  // Breaker state (producer-side; the consumer never writes it).
  [[nodiscard]] bool breaker_open() const noexcept { return breaker_open_; }

  // Batches sent that the consumer end has not taken delivery of: still
  // queued on an SPSC link, unacknowledged on a net link. Takes no lock.
  [[nodiscard]] std::uint64_t undelivered() const {
    return net_tx_ != nullptr ? net_tx_->unacked() : queue_.size_approx();
  }

  // The producer stopped waiting on batches the consumer never took
  // delivery of (undelivered() stalled for the send budget): counted, and
  // tripping the breaker, like a send that ran out of its budget.
  void give_up_delivery() { (void)give_up(); }

  [[nodiscard]] bool try_recv(T& out) {
    if (net_rx_ != nullptr) return net_try_recv(*net_rx_, out);
    return queue_.try_pop(out);
  }

  [[nodiscard]] LinkStats stats() const noexcept {
    LinkStats s;
    s.batches = stats_.batches.load(std::memory_order_relaxed);
    s.payload_items = stats_.payload_items.load(std::memory_order_relaxed);
    s.stall_spins = stats_.stall_spins.load(std::memory_order_relaxed);
    s.queue_high_water =
        stats_.queue_high_water.load(std::memory_order_relaxed);
    s.budget_exhausted =
        stats_.budget_exhausted.load(std::memory_order_relaxed);
    s.breaker_drops = stats_.breaker_drops.load(std::memory_order_relaxed);
    s.breaker_open = stats_.breaker_open.load(std::memory_order_relaxed);
    return s;
  }
  [[nodiscard]] const LinkParams& params() const noexcept { return params_; }

  // --- Bounded replay log (hal::recovery) --------------------------------
  // When enabled, every send is stamped with a monotone link_seq and
  // copied into a bounded log. The producer truncates the log as
  // checkpoints land and copies the uncovered suffix to replay into a
  // restarted consumer; every call below runs on the producer thread.
  // Overflow evicts the oldest entry and records the highest evicted
  // epoch, so recovery can detect when the since-checkpoint delta is no
  // longer fully covered.

  // Call before any traffic (producer/consumer threads not yet running).
  void enable_replay(std::size_t max_batches) {
    replay_bound_ = max_batches == 0 ? 1 : max_batches;
    replay_enabled_ = true;
  }
  [[nodiscard]] bool replay_enabled() const noexcept {
    return replay_enabled_;
  }

  // Drops entries fully covered by a checkpoint at `up_to_epoch`
  // (producer side, called at epoch barriers).
  void truncate_replay(std::uint64_t up_to_epoch) {
    if (!replay_enabled_) return;
    while (!replay_log_.empty() && replay_log_.front().epoch <= up_to_epoch) {
      replay_log_.pop_front();
    }
  }

  // Highest link_seq assigned so far (0 when replay is disabled): the
  // discard floor for a consumer whose state already covers every past
  // send (elastic rebuilds use it to heal drain-only workers).
  [[nodiscard]] std::uint64_t last_seq() const noexcept {
    return replay_enabled_ ? replay_seq_ : 0;
  }

  // Snapshot of the suffix newer than `after_epoch`, plus the seq floor
  // (everything sent so far; later sends carry seq > floor) and the
  // highest epoch ever evicted (coverage check: evicted > after_epoch
  // means the delta is incomplete and exact recovery is impossible).
  [[nodiscard]] std::vector<T> replay_copy(
      std::uint64_t after_epoch, std::uint64_t& floor_seq,
      std::uint64_t& evicted_through_epoch) const {
    floor_seq = replay_seq_;
    evicted_through_epoch = evicted_through_epoch_;
    std::vector<T> out;
    for (const T& msg : replay_log_) {
      if (msg.epoch > after_epoch) out.push_back(msg);
    }
    return out;
  }

 private:
  // Lazily-armed wall-clock deadline for one send's retry loop. The clock
  // is read only after the first failed try, so an uncontended send costs
  // nothing; with budget_us <= 0 it never reads the clock at all.
  class BudgetClock {
   public:
    explicit BudgetClock(double budget_us) noexcept : budget_us_(budget_us) {}
    [[nodiscard]] bool exhausted() {
      if (budget_us_ <= 0.0) return false;
      const auto now = std::chrono::steady_clock::now();
      if (!armed_) {
        armed_ = true;
        deadline_ = now + std::chrono::nanoseconds(
                              static_cast<std::int64_t>(budget_us_ * 1e3));
        return false;
      }
      return now >= deadline_;
    }

   private:
    double budget_us_;
    bool armed_ = false;
    std::chrono::steady_clock::time_point deadline_;
  };

  // One send got through: the breaker's failure run ends and the consumer
  // is rung.
  [[nodiscard]] bool delivered() noexcept {
    consecutive_failures_ = 0;
    if (consumer_ != nullptr) consumer_->ring();
    return true;
  }

  // One send gave up at its budget; trips the breaker after the
  // configured run of consecutive failures.
  [[nodiscard]] bool give_up() {
    stats_.budget_exhausted.fetch_add(1, std::memory_order_relaxed);
    ++consecutive_failures_;
    if (params_.breaker_trip_failures > 0 &&
        consecutive_failures_ >= params_.breaker_trip_failures) {
      breaker_open_ = true;
      stats_.breaker_open.store(true, std::memory_order_relaxed);
    }
    return false;
  }

  // Live counters behind LinkStats. One writer (the producer thread), but
  // the main thread snapshots them through stats() while an abandoned
  // worker may still be sending, so every field is a relaxed atomic.
  struct AtomicLinkStats {
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> payload_items{0};
    std::atomic<std::uint64_t> stall_spins{0};
    std::atomic<std::size_t> queue_high_water{0};
    std::atomic<std::uint64_t> budget_exhausted{0};
    std::atomic<std::uint64_t> breaker_drops{0};
    std::atomic<bool> breaker_open{false};
  };

  LinkParams params_;
  SpscQueue<T> queue_;
  net::Connection* net_tx_ = nullptr;  // producer-side net end (or null)
  net::Connection* net_rx_ = nullptr;  // consumer-side net end (or null)
  Doorbell* consumer_;                 // rung after each send (or null)
  double next_free_us_ = 0.0;  // producer-owned serialization clock
  AtomicLinkStats stats_;
  std::uint32_t consecutive_failures_ = 0;  // producer-owned
  bool breaker_open_ = false;               // producer-owned

  bool replay_enabled_ = false;
  std::size_t replay_bound_ = 0;
  std::deque<T> replay_log_;  // producer-owned, like the fields below
  std::uint64_t replay_seq_ = 0;
  std::uint64_t evicted_through_epoch_ = 0;
};

}  // namespace hal::cluster
