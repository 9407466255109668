#include "cluster/cluster_engine.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>
#include <utility>

#include "common/assert.h"
#include "common/backoff.h"
#include "recovery/checkpoint.h"

namespace hal::cluster {

using stream::ResultTuple;
using stream::StreamId;
using stream::Tuple;

namespace {

// Watches a worker's ingress link while collect_slot waits on that
// worker's epoch. A partition can swallow an epoch's last batches after
// their sends succeeded, leaving no send to run out of its budget; the
// link then holds them undelivered. stalled() turns true once the link
// has held undelivered batches for longer than its send budget without
// delivering any of them. It never does on a link whose batches were all
// delivered, nor on an unbudgeted one. orphaned() turns true, budget or
// not, once the link's producer connection has given up for good with
// batches still undelivered (a dialer that stayed down past its
// connect_timeout_s): no redial will deliver them.
class DeliveryWatch {
 public:
  explicit DeliveryWatch(const Link<TupleBatch>& link)
      : link_(link),
        producer_(link.net_producer()),
        budget_(std::chrono::duration<double, std::micro>(
            link.params().send_budget_us)) {}

  [[nodiscard]] bool stalled() {
    if (budget_.count() <= 0.0) return false;
    const std::uint64_t backlog = link_.undelivered();
    const auto now = std::chrono::steady_clock::now();
    if (backlog == 0 || backlog < backlog_) {  // all delivered, or progress
      backlog_ = backlog;
      since_ = now;
      return false;
    }
    return now - since_ > budget_;
  }

  // peer_closed() takes the connection's lock and undelivered() reads
  // counters the link's threads write, so both run at most once per
  // kOrphanPoll rather than on every spin, and never on an SPSC link.
  [[nodiscard]] bool orphaned() {
    if (producer_ == nullptr) return false;
    const auto now = std::chrono::steady_clock::now();
    if (now < next_poll_) return false;
    next_poll_ = now + kOrphanPoll;
    return link_.undelivered() != 0 && producer_->peer_closed();
  }

 private:
  static constexpr std::chrono::milliseconds kOrphanPoll{1};

  const Link<TupleBatch>& link_;
  const net::Connection* const producer_;  // null on an SPSC link
  const std::chrono::duration<double, std::micro> budget_;
  std::uint64_t backlog_ = std::numeric_limits<std::uint64_t>::max();
  std::chrono::steady_clock::time_point since_;
  std::chrono::steady_clock::time_point next_poll_;
};

}  // namespace

bool key_hashable(const stream::JoinSpec& spec) {
  for (const auto& c : spec.conjuncts()) {
    if (c.lhs == stream::Field::Key && c.rhs == stream::Field::Key &&
        c.op == stream::CmpOp::Eq && c.band == 0) {
      return true;
    }
  }
  return false;
}

std::size_t worker_window_size(const ClusterConfig& cfg) {
  const std::size_t w = cfg.window_size;
  if (cfg.partitioning == Partitioning::kKeyHash) {
    if (cfg.window_mode == WindowMode::kPartitionedLocal) {
      HAL_CHECK(w % cfg.shards == 0,
                "window_size must be a multiple of the shard count for "
                "partitioned-local windows");
      return w / cfg.shards;
    }
    // Exact-global: in the worst case every windowed tuple of a stream
    // hashes to one shard, so each worker must hold the full W and drops
    // the stale surplus against the router's horizons.
    return w;
  }
  HAL_CHECK(w % cfg.grid_rows == 0 && w % cfg.grid_cols == 0,
            "window_size must be a multiple of both grid dimensions");
  // Round-robin row/column slicing gives worker (i, j) every grid_rows-th
  // R tuple and every grid_cols-th S tuple; a shared engine window of the
  // larger slice never misses a global-window partner (the workers drop
  // the smaller side's surplus; square grids are exact as-is).
  return std::max(w / cfg.grid_rows, w / cfg.grid_cols);
}

bool emits_results_in_probe_epoch(const core::EngineConfig& worker) {
  const bool chain = worker.backend == core::Backend::kSwHandshake ||
                     worker.backend == core::Backend::kHwBiflow;
  return !chain || worker.num_cores <= 1;
}

WorkerStep::Outcome WorkerStep::process(core::StreamJoinEngine& engine,
                                        const TupleBatch& batch) {
  const auto r = static_cast<std::uint64_t>(
      std::count_if(batch.tuples.begin(), batch.tuples.end(),
                    [](const Tuple& t) { return t.origin == StreamId::R; }));
  epoch_r_ += r;
  epoch_s_ += batch.tuples.size() - r;
  if (batch.end_of_epoch) {
    // Exactly-once audit: what the router sent this link in the epoch
    // must be exactly what arrived — wire faults, replays and restarts
    // included.
    HAL_CHECK_RECOVERABLE(
        epoch_r_ == batch.r_count && epoch_s_ == batch.s_count,
        "end-of-epoch count mismatch (the link lost or duplicated tuples)");
    epoch_r_ = 0;
    epoch_s_ = 0;
  }
  Outcome out;
  if (!batch.tuples.empty()) {
    filter_.observe(batch.tuples, batch.stamps);
    Timer busy;
    out.results = engine.process(batch.tuples).results_emitted;
    const std::vector<ResultTuple> fresh = engine.take_results();
    out.engine_seconds = busy.elapsed_seconds();
    staged_dropped_ += filter_.keep_in_window(fresh, staged_);
  }
  if (batch.end_of_epoch) filter_.clear();
  return out;
}

ResultBatch WorkerStep::take_staged(const TupleBatch& batch) {
  ResultBatch out;
  out.epoch = batch.epoch;
  out.end_of_epoch = batch.end_of_epoch;
  out.dropped = std::exchange(staged_dropped_, 0);
  out.results = std::move(staged_);
  staged_.clear();
  return out;
}

void WorkerStep::reset() {
  filter_.clear();
  staged_.clear();
  staged_dropped_ = 0;
  epoch_r_ = 0;
  epoch_s_ = 0;
}

ClusterEngine::ClusterEngine(const ClusterConfig& cfg)
    : cfg_(cfg),
      router_(cfg.partitioning,
              cfg.partitioning == Partitioning::kKeyHash ? 1 : cfg.grid_rows,
              cfg.partitioning == Partitioning::kKeyHash ? cfg.shards
                                                         : cfg.grid_cols),
      placement_(cfg.placement, CpuTopology::discover()),
      horizons_(cfg.window_size),
      guard_(cfg.guard) {
  HAL_CHECK(cfg_.replicas >= 1, "need at least one replica per shard slot");
  HAL_CHECK(cfg_.transport.batch_size >= 1, "batch_size must be positive");
  HAL_CHECK(cfg_.worker.backend != core::Backend::kCluster,
            "clusters of clusters are not supported");
  if (cfg_.partitioning == Partitioning::kKeyHash) {
    HAL_CHECK(key_hashable(cfg_.spec),
              "key-hash partitioning requires an r.key == s.key conjunct; "
              "use kSplitGrid for general predicates");
  } else {
    HAL_CHECK(cfg_.grid_rows == cfg_.grid_cols ||
                  cfg_.window_mode == WindowMode::kExactGlobal,
              "non-square grids need the exact-global window filter");
  }
  if (cfg_.window_mode == WindowMode::kExactGlobal) {
    HAL_CHECK(emits_results_in_probe_epoch(cfg_.worker) &&
                  std::all_of(cfg_.worker_overrides.begin(),
                              cfg_.worker_overrides.end(),
                              emits_results_in_probe_epoch),
              "exact-global windows need workers that emit every result in "
              "its probe's epoch; a multi-core handshake or bi-flow chain "
              "does not (use num_cores = 1 or partitioned-local windows)");
  }

  if (cfg_.partitioning == Partitioning::kKeyHash &&
      cfg_.elastic.track_key_load) {
    router_.enable_load_tracking();
  }

  const std::uint32_t slots = router_.num_slots();
  const std::uint32_t total = slots * cfg_.replicas;
  if (!cfg_.transport.worker_addresses.empty()) {
    HAL_CHECK(cfg_.transport.link_transport != net::TransportKind::kInProcess,
              "remote workers need a net link transport");
    HAL_CHECK(cfg_.transport.worker_addresses.size() == total,
              "need exactly one remote worker address per worker "
              "(slot × replica)");
    if (cfg_.recovery.supervise) require_local_workers("supervision");
    if (!cfg_.faults.events.empty()) {
      require_local_workers("worker fault events");
    }
    if (cfg_.placement.pin_workers) require_local_workers("placement");
  }

  slot_staging_.resize(slots);
  slot_stamps_.resize(slots);
  slot_epoch_counts_.assign(slots, {0, 0});
  active_replica_.assign(slots, 0);
  slot_retired_.assign(slots, 0);

  workers_.reserve(total);
  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
      workers_.push_back(make_worker(slot, rep));
    }
  }
  setup_net_links();
  for (auto& w : workers_) {
    if (w->engine != nullptr) start_worker(*w);
  }
}

std::unique_ptr<ClusterEngine::Worker> ClusterEngine::make_worker(
    std::uint32_t slot, std::uint32_t replica) {
  core::EngineConfig engine_cfg = slot < cfg_.worker_overrides.size()
                                      ? cfg_.worker_overrides[slot]
                                      : cfg_.worker;
  HAL_CHECK(engine_cfg.backend != core::Backend::kCluster,
            "clusters of clusters are not supported");
  engine_cfg.window_size = worker_window_size(cfg_);
  engine_cfg.spec = cfg_.spec;
  const auto index = static_cast<std::uint32_t>(workers_.size());
  LinkParams ingress = cfg_.transport.ingress;
  for (const FaultEvent& ev : cfg_.faults.events) {
    if (ev.kind == FaultKind::kDelayLink && ev.worker == index) {
      ingress.latency_us += ev.extra_delay_us;
    }
  }
  auto w = std::make_unique<Worker>(index, slot, replica, ingress,
                                    cfg_.transport.egress,
                                    cfg_.transport.batch_size, process_bell_);
  if (cfg_.transport.worker_addresses.empty()) {
    w->engine = core::make_engine(engine_cfg);
  }
  w->engine_cfg = engine_cfg;  // recovery rebuilds the engine from this
  w->backend_tag = engine_cfg.backend;
  for (const FaultEvent& ev : cfg_.faults.events) {
    if (ev.kind != FaultKind::kDelayLink && ev.worker == index) {
      w->faults.push_back(ev);
    }
  }
  w->fault_fired.assign(w->faults.size(), false);
  w->pin_cpu = placement_.cpu_for(slot, replica, cfg_.replicas);
  if (cfg_.recovery.supervise) {
    w->inbox.enable_replay(cfg_.recovery.replay_log_batches);
  }
  return w;
}

void ClusterEngine::start_worker(Worker& w) {
  w.dead.store(false, std::memory_order_relaxed);
  Worker* raw = &w;
  w.thread = std::thread([this, raw] {
    worker_loop(*raw);
    // The process() thread may be parked on this return: it restarts a
    // supervised fail-stop (pump) or finishes a join (join_worker).
    raw->dead.store(true, std::memory_order_release);
    process_bell_.ring();
  });
}

void ClusterEngine::require_local_workers(const char* what) const {
  HAL_CHECK(cfg_.transport.worker_addresses.empty(),
            std::string(what) +
                " needs the workers' engines in this process; remote "
                "workers run theirs elsewhere");
}

net::EndpointOptions ClusterEngine::link_endpoint(const Worker& w,
                                                  bool ingress) const {
  net::EndpointOptions opts;
  opts.node_id = w.index;
  opts.shard = ingress ? 0 : 1;
  opts.window_frames = cfg_.transport.net_window_frames;
  if (cfg_.transport.net_connect_timeout_s > 0.0) {
    opts.connect_timeout_s = cfg_.transport.net_connect_timeout_s;
  }
  if (cfg_.transport.net_stall_timeout_ms > 0.0) {
    opts.stall_timeout_ms = cfg_.transport.net_stall_timeout_ms;
  }
  if (cfg_.transport.net_backoff_max_ms > 0.0) {
    opts.backoff_max_ms = cfg_.transport.net_backoff_max_ms;
  }
  const auto& fault_targets = cfg_.transport.net_fault_workers;
  if (ingress &&
      (fault_targets.empty() ||
       std::find(fault_targets.begin(), fault_targets.end(), w.index) !=
           fault_targets.end())) {
    opts.fault = cfg_.transport.net_fault;
  }
  return opts;
}

void ClusterEngine::setup_net_links() {
  const net::TransportKind kind = cfg_.transport.link_transport;
  if (kind == net::TransportKind::kInProcess) return;
  net_transport_ = cfg_.transport.shared_transport;
  if (net_transport_ == nullptr) {
    owned_transport_ = net::make_transport(kind);
    net_transport_ = owned_transport_.get();
  }
  const auto& addresses = cfg_.transport.worker_addresses;
  if (!addresses.empty()) {
    // Remote workers: one dialed connection per worker carries both of
    // its links, tuple batches out and result batches back.
    for (auto& w : workers_) {
      net_dialers_.push_back(net_transport_->connect(
          addresses[w->index], link_endpoint(*w, /*ingress=*/true)));
      w->inbox.attach_net(net_dialers_.back().get(), nullptr);
      w->outbox.attach_net(nullptr, net_dialers_.back().get());
    }
    return;
  }

  static std::atomic<std::uint64_t> instance_counter{0};
  const std::uint64_t id =
      instance_counter.fetch_add(1, std::memory_order_relaxed);
  std::string address;
  switch (kind) {
    case net::TransportKind::kLoopback:
      address = "cluster";  // the rendezvous hub is per-engine anyway
      break;
    case net::TransportKind::kUnix:
      address = "@hal-cluster-" + std::to_string(::getpid()) + "-" +
                std::to_string(id);
      break;
    case net::TransportKind::kTcp:
      address = "127.0.0.1:0";  // ephemeral; resolved below
      break;
    case net::TransportKind::kInProcess:
      break;
  }
  net::EndpointOptions opts;
  opts.window_frames = cfg_.transport.net_window_frames;
  if (cfg_.transport.net_stall_timeout_ms > 0.0) {
    opts.stall_timeout_ms = cfg_.transport.net_stall_timeout_ms;
  }
  net_listener_ = net_transport_->listen(address, opts);
  for (auto& w : workers_) attach_net_links(*w);
}

void ClusterEngine::attach_net_links(Worker& w) {
  if (net_transport_ == nullptr) return;
  const std::string dial_address = net_listener_->address();
  // One connection pair per link, established strictly dial-then-accept
  // so accept order matches dial order. shard 0 = ingress, 1 = egress.
  for (const bool ingress : {true, false}) {
    net_dialers_.push_back(
        net_transport_->connect(dial_address, link_endpoint(w, ingress)));
    net::Connection* accepted = net_listener_->accept(15.0);
    HAL_CHECK(accepted != nullptr, "net-backed link accept timed out");
    net_acceptors_.push_back(accepted);
    if (ingress) {
      w.inbox.attach_net(net_dialers_.back().get(), accepted);
    } else {
      w.outbox.attach_net(net_dialers_.back().get(), accepted);
    }
  }
}

ClusterEngine::~ClusterEngine() {
  stop_.store(true, std::memory_order_release);
  // Only process() restarts workers, so no respawn races these joins; a
  // dead worker left here has already returned and is never restarted.
  for (auto& w : workers_) {
    if (w->thread.joinable()) join_worker(*w);
  }
  // Net teardown after every thread that touches a connection is gone:
  // dialers first (their I/O threads stop; a remote worker sees the
  // shutdown and returns), then the listener (owns the acceptor ends),
  // then the transport.
  net_dialers_.clear();
  net_listener_.reset();
  owned_transport_.reset();
}

// Deadline-aware wait for the modeled wire time: sleep in coarse chunks
// while the deadline is comfortably far (so paced links do not burn a
// core), then yield-spin the final stretch for the precision the pacing
// tests assert. The 500 µs guard absorbs OS sleep overshoot.
void ClusterEngine::wait_until(double deadline_us) const {
  while (deadline_us - now_us() > 500.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  while (now_us() < deadline_us) std::this_thread::yield();
}

void ClusterEngine::worker_loop(Worker& w) {
  // Placement is best-effort: a rejected mask (CPU went offline, cgroup
  // restriction) just leaves the thread floating.
  if (w.pin_cpu >= 0 && pin_current_thread(w.pin_cpu)) {
    w.pinned.store(true, std::memory_order_relaxed);
  }
  // Respawned incarnations first re-process the since-checkpoint delta
  // recover() staged. Live batches already covered by it (link_seq <=
  // replay_floor) are discarded below, so every batch is processed exactly
  // once no matter where in the epoch the kill landed.
  if (!w.replay.empty() && !stop_.load(std::memory_order_acquire)) {
    std::vector<TupleBatch> delta = std::move(w.replay);
    w.replay.clear();
    for (TupleBatch& batch : delta) {
      ++w.replayed_batches;
      w.replayed_tuples += batch.tuples.size();
      if (!consume(w, std::move(batch), /*replaying=*/true)) return;
    }
  }
  SpinBackoff backoff(w.bell);
  while (true) {
    w.heartbeat.fetch_add(1, std::memory_order_relaxed);
    TupleBatch batch;
    bool got = false;
    try {
      got = w.inbox.try_recv(batch);
    } catch (const Error&) {
      // Protocol violation on the ingress wire (HAL_CHECK_RECOVERABLE in
      // the decode path): contained as a fail-stop of this worker, never
      // a crash of the process.
      if (!fail_stop(w, 0)) return;
      continue;
    }
    if (!got) {
      if (stop_.load(std::memory_order_acquire) ||
          w.exit_req.load(std::memory_order_acquire)) {
        return;  // shutdown, or elastic retirement at the epoch barrier
      }
      backoff.pause();
      continue;
    }
    backoff.reset();
    if (batch.link_seq != 0 && batch.link_seq <= w.replay_floor) {
      continue;  // covered by the replay delta (or drain-only respawn)
    }
    if (w.dropped.load(std::memory_order_relaxed)) continue;  // drain only
    if (!consume(w, std::move(batch), /*replaying=*/false)) return;
  }
}

bool ClusterEngine::consume(Worker& w, TupleBatch batch, bool replaying) {
  double slow_seconds = 0.0;
  if (!batch.tuples.empty()) {
    while (const FaultEvent* ev = due_fault(w, batch)) {
      if (ev->kind == FaultKind::kSlowWorker) {
        // Latch the gray failure; the delay itself is paid inside the
        // busy section below so service-time accounting sees it.
        w.slow_remaining = ev->duration_batches == 0
                               ? std::numeric_limits<std::uint64_t>::max()
                               : ev->duration_batches;
        w.slow_us = ev->extra_delay_us;
        w.slow_period = ev->period == 0 ? 1 : ev->period;
        w.slow_tick = 0;
        continue;  // a plan may stack further faults at the same batch
      }
      if (ev->kind == FaultKind::kKillWorker) {
        return fail_stop(w, batch.epoch);
      }
      // kWorkerError: throw-and-contain, exercising the recoverable-fault
      // path end to end rather than short-circuiting it.
      try {
        HAL_CHECK_RECOVERABLE(false, "injected worker fault");
      } catch (const Error&) {
        return fail_stop(w, batch.epoch);
      }
    }
    w.data_batches_in.fetch_add(1, std::memory_order_relaxed);
    ++w.epoch_batches;
    w.tuples_in.fetch_add(batch.tuples.size(), std::memory_order_relaxed);
    if (!replaying) wait_until(batch.deliver_at_us);  // modeled wire time
    if (w.slow_remaining > 0) {
      // Injected degradation: stretch the busy section the way a thermal
      // throttle or noisy neighbor would, leaving output untouched.
      Timer slow;
      if (w.slow_tick++ % w.slow_period == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(w.slow_us)));
        w.slow_batches.fetch_add(1, std::memory_order_relaxed);
      }
      --w.slow_remaining;
      slow_seconds = slow.elapsed_seconds();
    }
  } else if (!replaying) {
    wait_until(batch.deliver_at_us);
  }
  if (batch.end_of_epoch) w.epoch_batches = 0;

  bool sent = true;
  try {
    const WorkerStep::Outcome out = w.step.process(*w.engine, batch);
    // Counted before the result send: the process() thread reads them as
    // soon as it has merged the epoch this send may complete.
    w.busy_seconds.store(w.busy_seconds.load(std::memory_order_relaxed) +
                             slow_seconds + out.engine_seconds,
                         std::memory_order_relaxed);
    w.results_out.fetch_add(out.results, std::memory_order_relaxed);
    sent = w.step.ship(batch, [&](ResultBatch results) {
      // Checkpoint before the end-of-epoch send: once the main thread has
      // merged an epoch, the matching image is already published, which
      // is what makes replay-log truncation at the next process() sound.
      if (results.end_of_epoch) maybe_checkpoint(w, results.epoch);
      const auto n = static_cast<std::uint64_t>(results.results.size());
      return w.outbox.send(std::move(results), now_us(), n);
    });
  } catch (const Error&) {
    // A recoverable engine fault or a failed delivery audit fail-stops
    // this worker only.
    return fail_stop(w, batch.epoch);
  }
  return sent || egress_lost(w);
}

// The egress wire gave up (send budget exhausted / breaker open): the
// obituary path runs over the same broken link, so the death notice goes
// straight into the merge slot instead. The thread keeps running in
// drain-only mode — the router's bounded ingress must never wedge on a
// worker that stopped producing — and `dead` stays clear: a supervised
// restart would only thrash against the same tripped breaker, so the slot
// degrades to its replica (failover) or to accounted loss instead.
bool ClusterEngine::egress_lost(Worker& w) {
  w.dropped.store(true, std::memory_order_release);
  if (cfg_.recovery.supervise) {
    w.unrecoverable.store(true, std::memory_order_release);
  }
  w.merge.died.store(true, std::memory_order_release);
  process_bell_.ring();  // collect_slot may be parked on this slot
  return true;
}

const FaultEvent* ClusterEngine::due_fault(Worker& w,
                                           const TupleBatch& batch) {
  for (std::size_t i = 0; i < w.faults.size(); ++i) {
    if (w.fault_fired[i]) continue;
    const FaultEvent& ev = w.faults[i];
    bool due = false;
    if (ev.epoch == 0) {
      // Whole-run counting (the legacy drop_worker semantics).
      due = w.data_batches_in.load(std::memory_order_relaxed) >=
            ev.after_batches;
    } else if (batch.epoch == ev.epoch) {
      due = w.epoch_batches >= ev.after_batches;
    } else if (batch.epoch > ev.epoch) {
      // The trigger epoch passed without reaching the position (short
      // epoch): late-fire so seeded chaos plans stay deterministic.
      due = true;
    }
    if (due) {
      w.fault_fired[i] = true;  // at most once, across incarnations
      return &ev;
    }
  }
  return nullptr;
}

bool ClusterEngine::fail_stop(Worker& w, std::uint64_t epoch) {
  // Announce once: drain() discards the partial epoch on the obituary.
  w.dropped.store(true, std::memory_order_release);
  ResultBatch obituary;
  obituary.epoch = epoch;
  obituary.died = true;
  if (!w.outbox.send(std::move(obituary), now_us(), 0)) {
    // The obituary itself was lost to a broken egress: deliver the death
    // notice directly and stay drain-only — a supervised restart cannot
    // outrun the tripped breaker.
    return egress_lost(w);
  }
  if (cfg_.recovery.supervise) {
    // Supervised: the thread returns, and its return marks it dead and
    // rings process(), which restarts it from the newest checkpoint plus
    // the replay delta (start_worker, pump).
    return false;
  }
  // Unsupervised: keep draining so the router's bounded link never wedges
  // on a dead node (replica failover / clean degradation take over).
  return true;
}

void ClusterEngine::abandon_worker(std::uint32_t index) {
  HAL_CHECK(index < workers_.size(), "abandon_worker: index out of range");
  Worker& w = *workers_[index];
  if (w.retired.load(std::memory_order_acquire)) return;
  // Same containment as an egress-side trip, from the main thread: the
  // worker drains but its epochs stop counting, and collect_slot's wait
  // is released through the merge slot (unsupervised) or the
  // unrecoverable flag (supervised).
  w.dropped.store(true, std::memory_order_release);
  if (cfg_.recovery.supervise) {
    w.unrecoverable.store(true, std::memory_order_release);
  }
  w.merge.died.store(true, std::memory_order_release);
}

void ClusterEngine::maybe_checkpoint(Worker& w, std::uint64_t epoch) {
  if (!cfg_.recovery.supervise) return;
  const std::uint32_t interval = cfg_.recovery.checkpoint_interval_epochs;
  if (interval == 0 || epoch % interval != 0) return;
  core::WindowImage image;
  if (!w.engine->snapshot(image)) return;  // backend cannot snapshot
  image.epoch = epoch;
  std::vector<std::uint8_t> bytes = recovery::serialize(image);
  ++w.checkpoints;
  w.checkpoint_bytes += bytes.size();
  {
    std::lock_guard<std::mutex> lock(w.ckpt_mu);
    w.ckpt_bytes = std::move(bytes);
    w.ckpt_epoch = epoch;
  }
  w.ckpt_epoch_pub.store(epoch, std::memory_order_release);
}

void ClusterEngine::recover(Worker& w) {
  Timer repair;       // detect → respawned: the MTTR the bench reports
  w.thread.join();    // the incarnation set `dead` as it returned
  ++w.restarts;

  std::vector<std::uint8_t> bytes;
  std::uint64_t ckpt_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(w.ckpt_mu);
    bytes = w.ckpt_bytes;
    ckpt_epoch = w.ckpt_epoch;
  }
  // No checkpoint yet means the fresh engine below *is* the epoch-0 state
  // (exact only while the replay log still reaches back to the start and
  // nothing was prefilled — prefill warms engines before any checkpoint).
  w.engine = core::make_engine(w.engine_cfg);
  bool restored = bytes.empty();
  if (!bytes.empty()) {
    core::WindowImage image;
    restored = recovery::deserialize(bytes, image) && w.engine->restore(image);
  }

  std::uint64_t floor = 0;
  std::uint64_t evicted = 0;
  std::vector<TupleBatch> delta =
      w.inbox.replay_copy(ckpt_epoch, floor, evicted);
  const bool recoverable = restored && evicted <= ckpt_epoch;

  // The branch bookkeeping and the spawn are the only repair costs the
  // measurement misses.
  const double mttr = repair.elapsed_seconds();
  w.mttr_seconds_total += mttr;
  if (mttr > w.mttr_seconds_max) w.mttr_seconds_max = mttr;
  w.mttr_us_samples.push_back(mttr * 1e6);

  if (!recoverable) {
    // The log no longer covers the since-checkpoint delta (or the image
    // is damaged): exact recovery is impossible. Respawn drain-only so
    // the slot degrades cleanly instead of serving wrong answers.
    w.unrecoverable.store(true, std::memory_order_release);
    w.replay.clear();
    w.replay_floor = std::numeric_limits<std::uint64_t>::max();
  } else {
    w.replay = std::move(delta);
    w.replay_floor = floor;
    // The dead incarnation's partial epoch is discarded.
    w.step.reset();
    w.dropped.store(false, std::memory_order_release);
  }
  start_worker(w);
}

bool ClusterEngine::pump() {
  bool acted = false;
  for (auto& w : workers_) {
    if (w->retired.load(std::memory_order_relaxed)) continue;
    acted = drain(*w) || acted;
    if (w->dead.load(std::memory_order_acquire)) {  // supervised fail-stop
      recover(*w);
      acted = true;
    }
  }
  return acted;
}

bool ClusterEngine::drain(Worker& w) {
  MergeSlot& m = w.merge;
  // A failed worker's partial epoch is discarded wholesale; the replica's
  // complete epoch (or accounted loss) replaces it.
  const auto mark_died = [&m] {
    m.pending.clear();
    m.pending_dropped = 0;
    m.died.store(true, std::memory_order_release);
  };
  ResultBatch batch;
  bool received = false;
  try {
    while (w.outbox.try_recv(batch)) {
      received = true;
      if (batch.died) {
        mark_died();
        continue;
      }
      m.pending.insert(m.pending.end(), batch.results.begin(),
                       batch.results.end());
      m.pending_dropped += batch.dropped;
      if (batch.end_of_epoch) {
        m.completed = std::move(m.pending);
        m.pending.clear();
        m.completed_dropped = std::exchange(m.pending_dropped, 0);
        m.last_deliver_at_us = batch.deliver_at_us;
        m.completed_epoch = batch.epoch;
      }
    }
  } catch (const Error&) {
    // Garbage on a result wire (HAL_CHECK_RECOVERABLE in the decode
    // path): the same containment as a worker obituary.
    mark_died();
  }
  // A remote worker whose connection closed, with everything it sent
  // merged, has failed too: no answer can follow.
  if (!received && !m.died.load(std::memory_order_relaxed) &&
      w.outbox.peer_closed()) {
    mark_died();
  }
  return received;
}

void ClusterEngine::join_worker(Worker& w) {
  SpinBackoff backoff(process_bell_);
  while (!w.dead.load(std::memory_order_acquire)) {
    if (drain(w)) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  w.thread.join();
}

void ClusterEngine::flush_slot(std::uint32_t slot, bool end_of_epoch) {
  auto& staging = slot_staging_[slot];
  auto& stamps = slot_stamps_[slot];
  if (staging.empty() && !end_of_epoch) return;
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    Worker& w = *workers_[slot * cfg_.replicas + rep];
    TupleBatch batch;
    batch.epoch = epoch_;
    batch.end_of_epoch = end_of_epoch;
    batch.tuples = staging;  // replicas each get their own copy
    batch.stamps = stamps;
    if (end_of_epoch) {
      batch.r_count = slot_epoch_counts_[slot][0];
      batch.s_count = slot_epoch_counts_[slot][1];
    }
    const auto n = static_cast<std::uint64_t>(batch.tuples.size());
    // A stalled send keeps pumping: the worker may be stuck on a full
    // result link, or dead with its inbox full and waiting for a restart.
    if (w.inbox.breaker_open() ||
        !w.inbox.send(std::move(batch), now_us(), n, [this] { pump(); })) {
      // The worker's ingress wire is gone (budget exhausted / breaker
      // open): trip it off the serving path so its replica takes over
      // instead of the epoch stalling against a wedged link.
      abandon_worker(w.index);
    }
  }
  staging.clear();
  stamps.clear();
  pump();
}

void ClusterEngine::collect_slot(std::uint32_t slot,
                                 std::vector<ResultTuple>& out) {
  const std::uint32_t base = slot * cfg_.replicas;
  SpinBackoff backoff(process_bell_);
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    Worker& w = *workers_[base + rep];
    // A supervised worker's epoch still completes — after the restart,
    // restore and replay — so death is not a reason to stop waiting
    // unless recovery itself declared the worker unrecoverable.
    const auto gone = [&] {
      return cfg_.recovery.supervise
                 ? w.unrecoverable.load(std::memory_order_acquire)
                 : w.merge.died.load(std::memory_order_acquire);
    };
    DeliveryWatch ingress(w.inbox);
    while (true) {
      const bool progress = pump();
      if (w.merge.completed_epoch >= epoch_ || gone()) break;
      if (ingress.stalled()) {
        // Ends the wait: abandon_worker marks the worker gone.
        w.inbox.give_up_delivery();
        abandon_worker(w.index);
      } else if (ingress.orphaned()) {
        abandon_worker(w.index);  // no budget ran out: nothing is counted
      } else if (progress) {
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
    backoff.reset();
  }
  std::int64_t chosen = -1;
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    if (workers_[base + rep]->merge.completed_epoch >= epoch_) {
      chosen = rep;
      break;
    }
  }
  if (chosen < 0) {
    // Every replica of this slot is dead: clean degradation.
    degraded_ = true;
    lost_tuples_ += slot_epoch_counts_[slot][0] + slot_epoch_counts_[slot][1];
    return;
  }
  if (static_cast<std::uint32_t>(chosen) != active_replica_[slot]) {
    ++failovers_;
    active_replica_[slot] = static_cast<std::uint32_t>(chosen);
  }
  MergeSlot& m = workers_[base + static_cast<std::uint32_t>(chosen)]->merge;
  wait_until(m.last_deliver_at_us);  // modeled egress latency
  out.insert(out.end(), m.completed.begin(), m.completed.end());
  filtered_results_ += m.completed_dropped;
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    workers_[base + rep]->merge.completed.clear();
  }
}

core::RunReport ClusterEngine::process(const std::vector<Tuple>& tuples) {
  const std::uint64_t epoch_first_seq = next_seq_;
  next_seq_ = check_arrival_order(tuples, next_seq_);
  ++epoch_;
  std::fill(slot_epoch_counts_.begin(), slot_epoch_counts_.end(),
            std::array<std::uint64_t, 2>{0, 0});
  if (cfg_.recovery.supervise) {
    // Entries fully covered by each worker's newest published checkpoint
    // are dead weight; drop them before this epoch's sends (same thread
    // as the sends, so the log never truncates mid-epoch).
    for (auto& w : workers_) {
      if (w->retired.load(std::memory_order_relaxed)) continue;
      w->inbox.truncate_replay(
          w->ckpt_epoch_pub.load(std::memory_order_acquire));
    }
  }
  Timer wall;

  // Guarded ingress (hal::guard): shed BEFORE the exact-global horizon
  // stamps and the router, so a shed tuple reaches no window anywhere in
  // the cluster and the output is exactly the reference join of
  // (input − shed log). Disabled guards cost one branch per epoch.
  const std::vector<Tuple>* input = &tuples;
  if (cfg_.guard.enabled) {
    guard_.observe_delay_us(guard_.estimate_delay_us(tuples.size()));
    admitted_.clear();
    admitted_.reserve(tuples.size());
    guard_.filter(tuples, admitted_);
    input = &admitted_;
  }

  // Batched ingress: the whole epoch routes as one span (one virtual-free
  // pass, no per-tuple scratch vector), so the router amortizes its
  // per-tuple dispatch the way the engines do. Exact-global tuples travel
  // with their horizons, stamped in arrival order first; route_span hands
  // back references into the span, which index the stamps.
  const bool exact = cfg_.window_mode == WindowMode::kExactGlobal;
  if (exact) {
    stamps_.clear();
    for (const Tuple& t : *input) stamps_.push_back(horizons_.stamp(t));
  }
  router_.route_span(
      std::span<const Tuple>(*input), [&](const Tuple& t, std::uint32_t slot) {
        ++routed_tuples_;
        ++slot_epoch_counts_[slot][static_cast<std::size_t>(t.origin)];
        auto& staging = slot_staging_[slot];
        staging.push_back(t);
        if (exact) {
          slot_stamps_[slot].push_back(
              stamps_[static_cast<std::size_t>(&t - input->data())]);
        }
        if (staging.size() >= cfg_.transport.batch_size) {
          flush_slot(slot, false);
        }
      });
  for (std::uint32_t slot = 0; slot < slot_count(); ++slot) {
    if (!slot_retired_[slot]) flush_slot(slot, true);
  }

  const std::uint64_t filtered_before = filtered_results_;
  std::vector<ResultTuple> epoch_results;
  for (std::uint32_t slot = 0; slot < slot_count(); ++slot) {
    if (!slot_retired_[slot]) collect_slot(slot, epoch_results);
  }

  // The workers dropped the stale pairs. A result probing an earlier
  // epoch came from a worker that no longer held its probe's horizon: the
  // constructor refuses such engines in this process, but it cannot see a
  // remote worker's. The epoch fails and its results are dropped.
  if (exact && !probes_in_epoch(epoch_results, epoch_first_seq)) {
    filtered_results_ = filtered_before;
    HAL_CHECK(false,
              "a worker emitted a result after its probe's epoch; "
              "exact-global windows need workers that emit every pair in "
              "its probe's epoch");
  }
  // Deterministic, order-preserving emission: by probing-tuple arrival,
  // then by stored-tuple arrival — the gathering-network contract.
  std::sort(epoch_results.begin(), epoch_results.end(),
            [](const ResultTuple& a, const ResultTuple& b) {
              const auto pa = probe_seq(a), pb = probe_seq(b);
              if (pa != pb) return pa < pb;
              if (a.r.seq != b.r.seq) return a.r.seq < b.r.seq;
              return a.s.seq < b.s.seq;
            });

  core::RunReport report;
  report.tuples_processed = input->size();
  report.results_emitted = epoch_results.size();
  report.elapsed_seconds = wall.elapsed_seconds();
  if (cfg_.guard.enabled) {
    guard_.update_service_rate(report.elapsed_seconds * 1e6, input->size());
  }

  input_tuples_ += tuples.size();
  merged_results_ += epoch_results.size();
  elapsed_seconds_ += report.elapsed_seconds;
  collected_.insert(collected_.end(),
                    std::make_move_iterator(epoch_results.begin()),
                    std::make_move_iterator(epoch_results.end()));
  return report;
}

void ClusterEngine::prefill(const std::vector<Tuple>& tuples) {
  require_local_workers("prefill");
  next_seq_ = check_arrival_order(tuples, next_seq_);
  // The engine is quiescent (before the first process() or between
  // epochs); inner engines are warmed directly, and the next epoch's
  // inbox traffic publishes the writes to the worker threads.
  if (cfg_.window_mode == WindowMode::kExactGlobal) {
    for (const Tuple& t : tuples) {
      (void)horizons_.stamp(t);  // prefill emits no pairs to filter
    }
  }
  std::vector<std::vector<Tuple>> per_slot(slot_count());
  router_.route_span(std::span<const Tuple>(tuples),
                     [&](const Tuple& t, std::uint32_t slot) {
                       per_slot[slot].push_back(t);
                     });
  for (std::uint32_t slot = 0; slot < slot_count(); ++slot) {
    if (per_slot[slot].empty() || slot_retired_[slot]) continue;
    for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
      workers_[slot * cfg_.replicas + rep]->engine->prefill(per_slot[slot]);
    }
  }
}

// --- Elastic topology operations (hal::elastic) ----------------------------
// All run on the process() thread, strictly between process() calls: the
// engine is quiescent at that epoch barrier — collect_slot has observed
// every slot's completed epoch (supervised restarts included), so worker
// engines are safe to read and mutate directly. Mutations are published
// to worker threads by the next epoch's Link traffic (release/acquire on
// send/recv), the same contract prefill() relies on.

std::uint32_t ClusterEngine::active_slot_count() const noexcept {
  std::uint32_t n = 0;
  for (const std::uint8_t r : slot_retired_) n += r ? 0 : 1;
  return n;
}

bool ClusterEngine::slot_retired(std::uint32_t slot) const {
  HAL_CHECK(slot < slot_retired_.size(), "slot out of range");
  return slot_retired_[slot] != 0;
}

std::uint32_t ClusterEngine::add_slot() {
  require_local_workers("add_slot");
  HAL_CHECK(cfg_.partitioning == Partitioning::kKeyHash,
            "elastic topology changes require key-hash partitioning");
  const std::uint32_t slot = slot_count();
  slot_staging_.emplace_back();
  slot_stamps_.emplace_back();
  slot_epoch_counts_.push_back({0, 0});
  active_replica_.push_back(0);
  slot_retired_.push_back(0);
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    workers_.push_back(make_worker(slot, rep));
    attach_net_links(*workers_.back());
    start_worker(*workers_.back());
  }
  return slot;
}

void ClusterEngine::retire_slot(std::uint32_t slot) {
  require_local_workers("retire_slot");
  HAL_CHECK(cfg_.partitioning == Partitioning::kKeyHash,
            "elastic topology changes require key-hash partitioning");
  HAL_CHECK(slot < slot_count(), "slot out of range");
  HAL_CHECK(!slot_retired_[slot], "slot is already retired");
  HAL_CHECK(active_slot_count() > 1, "cannot retire the last live slot");
  // The installed revision must have stopped routing to the slot — that
  // ordering (rebuild targets, swap the map, then retire) is what makes
  // retirement invisible in the output.
  const KeyspaceMap& map = router_.keyspace();
  for (std::uint32_t ks = 0; ks < KeyspaceMap::kKeyslots; ++ks) {
    HAL_CHECK(map.owner(ks) != slot,
              "retire_slot: keyslots still route to the slot");
  }
  for (const auto& [key, members] : map.splits()) {
    for (const std::uint32_t m : members) {
      HAL_CHECK(m != slot,
                "retire_slot: a hot-key group still references the slot");
    }
    (void)key;
  }
  HAL_CHECK(slot_staging_[slot].empty(),
            "retire_slot: un-flushed traffic staged for the slot");
  slot_retired_[slot] = 1;
  const std::uint32_t base = slot * cfg_.replicas;
  // At the barrier every replica thread is alive and idle (supervised
  // kills were already recovered; unsupervised dropped workers sit in
  // their drain loop), so exit_req is honored promptly.
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    workers_[base + rep]->exit_req.store(true, std::memory_order_release);
  }
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    Worker& w = *workers_[base + rep];
    if (w.thread.joinable()) join_worker(w);
    w.engine.reset();
    w.retired.store(true, std::memory_order_release);
  }
}

void ClusterEngine::apply_keyspace(KeyspaceMap map) {
  HAL_CHECK(cfg_.partitioning == Partitioning::kKeyHash,
            "the keyspace map only exists under key-hash partitioning");
  for (const std::uint32_t shard : map.referenced_shards()) {
    HAL_CHECK(shard < slot_count() && !slot_retired_[shard],
              "keyspace revision references a slot that is not live");
  }
  router_.set_keyspace(std::move(map));  // version ordering checked there
}

std::vector<std::uint8_t> ClusterEngine::snapshot_slot(std::uint32_t slot) {
  require_local_workers("snapshot_slot");
  HAL_CHECK(slot < slot_count() && !slot_retired_[slot],
            "snapshot_slot: slot is not live");
  const std::uint32_t base = slot * cfg_.replicas;
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    Worker& w = *workers_[base + rep];
    if (w.dropped.load(std::memory_order_acquire) ||
        w.unrecoverable.load(std::memory_order_acquire)) {
      continue;  // this replica's window is stale or gone
    }
    core::WindowImage image;
    if (!w.engine->snapshot(image)) continue;
    image.epoch = epoch_;
    return recovery::serialize(image);
  }
  return {};
}

std::vector<std::uint8_t> ClusterEngine::checkpoint_slot(
    std::uint32_t slot, std::uint64_t& epoch_out) {
  require_local_workers("checkpoint_slot");
  HAL_CHECK(slot < slot_count() && !slot_retired_[slot],
            "checkpoint_slot: slot is not live");
  epoch_out = 0;
  std::vector<std::uint8_t> best;
  const std::uint32_t base = slot * cfg_.replicas;
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    Worker& w = *workers_[base + rep];
    if (w.unrecoverable.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(w.ckpt_mu);
    if (!w.ckpt_bytes.empty() && (best.empty() || w.ckpt_epoch > epoch_out)) {
      best = w.ckpt_bytes;
      epoch_out = w.ckpt_epoch;
    }
  }
  return best;
}

std::vector<TupleBatch> ClusterEngine::replay_delta_slot(
    std::uint32_t slot, std::uint64_t after_epoch, bool& complete_out) {
  require_local_workers("replay_delta_slot");
  HAL_CHECK(slot < slot_count() && !slot_retired_[slot],
            "replay_delta_slot: slot is not live");
  complete_out = false;
  const std::uint32_t base = slot * cfg_.replicas;
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    Worker& w = *workers_[base + rep];
    if (!w.inbox.replay_enabled()) continue;
    std::uint64_t floor = 0;
    std::uint64_t evicted = 0;
    std::vector<TupleBatch> delta =
        w.inbox.replay_copy(after_epoch, floor, evicted);
    complete_out = evicted <= after_epoch;
    return delta;  // replicas receive identical traffic; any log serves
  }
  return {};
}

void ClusterEngine::rebuild_slot(std::uint32_t slot,
                                 const std::vector<Tuple>& window) {
  require_local_workers("rebuild_slot");
  HAL_CHECK(slot < slot_count() && !slot_retired_[slot],
            "rebuild_slot: slot is not live");
  const std::uint32_t base = slot * cfg_.replicas;
  for (std::uint32_t rep = 0; rep < cfg_.replicas; ++rep) {
    Worker& w = *workers_[base + rep];
    HAL_CHECK(!w.dead.load(std::memory_order_acquire),
              "rebuild_slot ran outside the epoch barrier");
    w.engine = core::make_engine(w.engine_cfg);
    if (!window.empty()) w.engine->prefill(window);
    w.step.reset();
    w.epoch_batches = 0;
    // The rebuilt window is the slot's complete state: a replica that was
    // dead (unsupervised) or unrecoverable is healthy again from here on.
    w.dropped.store(false, std::memory_order_release);
    w.unrecoverable.store(false, std::memory_order_release);
    w.merge.died.store(false, std::memory_order_release);
    if (cfg_.recovery.supervise) {
      // Refresh the checkpoint: the old image and the replay log both
      // predate the migrated-in tuples, so a later restart restoring
      // them would serve a pre-migration window.
      core::WindowImage image;
      if (w.engine->snapshot(image)) {
        image.epoch = epoch_;
        std::vector<std::uint8_t> bytes = recovery::serialize(image);
        ++w.checkpoints;
        w.checkpoint_bytes += bytes.size();
        {
          std::lock_guard<std::mutex> lock(w.ckpt_mu);
          w.ckpt_bytes = std::move(bytes);
          w.ckpt_epoch = epoch_;
        }
        w.ckpt_epoch_pub.store(epoch_, std::memory_order_release);
      }
      w.inbox.truncate_replay(epoch_);
      w.replay.clear();
      w.replay_floor = w.inbox.last_seq();
    }
  }
}

void ClusterEngine::program(const stream::JoinSpec& spec) {
  HAL_CHECK(false,
            "kCluster does not support runtime re-programming; construct a "
            "new cluster");
  (void)spec;
}

std::vector<ResultTuple> ClusterEngine::take_results() {
  std::vector<ResultTuple> out = std::move(collected_);
  collected_.clear();
  return out;
}

ClusterReport ClusterEngine::report() const {
  ClusterReport rep;
  rep.input_tuples = input_tuples_;
  rep.routed_tuples = routed_tuples_;
  rep.merged_results = merged_results_;
  rep.filtered_results = filtered_results_;
  rep.failovers = failovers_;
  rep.lost_tuples = lost_tuples_;
  rep.degraded = degraded_;
  rep.elapsed_seconds = elapsed_seconds_;
  rep.workers.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerReport wr;
    wr.index = w->index;
    wr.slot = w->slot;
    wr.replica = w->replica;
    wr.backend = w->backend_tag;  // outlives the engine (retired slots)
    wr.tuples_in = w->tuples_in.load(std::memory_order_relaxed);
    wr.results_out = w->results_out.load(std::memory_order_relaxed);
    wr.data_batches_in =
        w->data_batches_in.load(std::memory_order_relaxed);
    wr.result_batches_out = w->outbox.stats().batches;
    wr.busy_seconds = w->busy_seconds.load(std::memory_order_relaxed);
    wr.dropped = w->dropped.load(std::memory_order_acquire);
    wr.pinned = w->pinned.load(std::memory_order_relaxed);
    wr.pin_cpu = w->pin_cpu;
    if (wr.pinned) ++rep.pinned_workers;
    wr.unrecoverable = w->unrecoverable.load(std::memory_order_acquire);
    wr.restarts = w->restarts;
    wr.checkpoints = w->checkpoints;
    wr.checkpoint_bytes = w->checkpoint_bytes;
    wr.replayed_batches = w->replayed_batches;
    wr.heartbeat = w->heartbeat.load(std::memory_order_relaxed);
    wr.slow_batches = w->slow_batches.load(std::memory_order_relaxed);
    wr.ingress = w->inbox.stats();
    wr.egress = w->outbox.stats();
    rep.budget_exhausted +=
        wr.ingress.budget_exhausted + wr.egress.budget_exhausted;
    rep.breaker_drops += wr.ingress.breaker_drops + wr.egress.breaker_drops;
    if (wr.ingress.breaker_open) ++rep.breaker_trips;
    if (wr.egress.breaker_open) ++rep.breaker_trips;
    rep.recovery.checkpoints += wr.checkpoints;
    rep.recovery.checkpoint_bytes += wr.checkpoint_bytes;
    rep.recovery.restarts += wr.restarts;
    rep.recovery.replayed_batches += wr.replayed_batches;
    rep.recovery.replayed_tuples += w->replayed_tuples;
    if (wr.unrecoverable) ++rep.recovery.unrecoverable;
    rep.recovery.mttr_seconds_total += w->mttr_seconds_total;
    rep.recovery.mttr_seconds_max =
        std::max(rep.recovery.mttr_seconds_max, w->mttr_seconds_max);
    rep.router_stall_spins += wr.ingress.stall_spins;
    rep.worker_stall_spins += wr.egress.stall_spins;
    rep.ingress_queue_high_water =
        std::max(rep.ingress_queue_high_water, wr.ingress.queue_high_water);
    rep.egress_queue_high_water =
        std::max(rep.egress_queue_high_water, wr.egress.queue_high_water);
    rep.workers.push_back(std::move(wr));
  }
  if (net_transport_ != nullptr) {
    rep.net_enabled = true;
    for (const auto& c : net_dialers_) rep.net.add(c->stats());
    for (const net::Connection* c : net_acceptors_) rep.net.add(c->stats());
  }
  rep.active_shards = active_slot_count();
  if (cfg_.partitioning == Partitioning::kKeyHash) {
    rep.keyspace_version = router_.keyspace().version();
  }
  rep.guard_enabled = cfg_.guard.enabled;
  rep.guard = guard_.stats();
  return rep;
}

void ClusterEngine::collect_metrics(obs::MetricRegistry& registry,
                                    const std::string& prefix) const {
  const ClusterReport rep = report();
  registry.set_counter(prefix + "input_tuples", rep.input_tuples);
  registry.set_counter(prefix + "routed_tuples", rep.routed_tuples);
  registry.set_counter(prefix + "merged_results", rep.merged_results);
  registry.set_counter(prefix + "filtered_results", rep.filtered_results);
  registry.set_counter(prefix + "failovers", rep.failovers);
  registry.set_counter(prefix + "lost_tuples", rep.lost_tuples);
  registry.set_counter(prefix + "degraded", rep.degraded ? 1 : 0);
  // Elastic topology: both track the reconfiguration schedule, which is
  // caller-driven and reproducible under a fixed plan.
  registry.set_counter(prefix + "elastic.active_shards", rep.active_shards);
  registry.set_counter(prefix + "elastic.keyspace_version",
                       rep.keyspace_version);
  // Recovery: checkpoint/restart totals track batch positions and epoch
  // cadence (deterministic); replay-phase sizes and repair times track
  // the restart's race with live traffic (runtime).
  registry.set_counter(prefix + "recovery.checkpoints",
                       rep.recovery.checkpoints);
  registry.set_counter(prefix + "recovery.checkpoint_bytes",
                       rep.recovery.checkpoint_bytes);
  registry.set_counter(prefix + "recovery.restarts", rep.recovery.restarts);
  registry.set_counter(prefix + "recovery.unrecoverable",
                       rep.recovery.unrecoverable);
  registry.set_counter(prefix + "recovery.replayed_batches",
                       rep.recovery.replayed_batches,
                       obs::Stability::kRuntime);
  registry.set_counter(prefix + "recovery.replayed_tuples",
                       rep.recovery.replayed_tuples,
                       obs::Stability::kRuntime);
  {
    // MTTR distribution across all supervised restarts. Samples are
    // re-recorded in full at each collection, so export from a fresh
    // registry per collection (the harness convention).
    obs::Histogram& h = registry.histogram(
        prefix + "recovery.mttr_us",
        {100.0, 1000.0, 10000.0, 100000.0, 1000000.0},
        obs::Stability::kRuntime);
    for (const auto& w : workers_) {
      for (const double v : w->mttr_us_samples) h.record(v);
    }
  }
  // Host-topology dependent (how many affinity masks stuck), never part
  // of the deterministic projection.
  registry.set_counter(prefix + "placement.pinned_workers",
                       rep.pinned_workers, obs::Stability::kRuntime);
  registry.set_counter(prefix + "router.stall_spins", rep.router_stall_spins,
                       obs::Stability::kRuntime);
  registry.set_counter(prefix + "worker.stall_spins", rep.worker_stall_spins,
                       obs::Stability::kRuntime);
  registry.set_counter(prefix + "ingress.queue_high_water",
                       rep.ingress_queue_high_water,
                       obs::Stability::kRuntime);
  registry.set_counter(prefix + "egress.queue_high_water",
                       rep.egress_queue_high_water,
                       obs::Stability::kRuntime);
  registry.set_gauge(prefix + "elapsed_seconds", rep.elapsed_seconds,
                     obs::Stability::kRuntime);
  // Exact-global horizon state: each stream's last W admitted arrivals,
  // at most 2W. It follows which tuples were admitted, so only the
  // guard's timing makes it racy.
  registry.set_gauge(prefix + "tracker.retained_arrivals",
                     static_cast<double>(horizons_.retained()),
                     rep.guard_enabled ? obs::Stability::kRuntime
                                       : obs::Stability::kDeterministic);
  // hal::guard: admission totals depend on the latch's timing history and
  // breaker state on real wire behavior, so everything here is runtime.
  if (rep.guard_enabled) {
    registry.set_counter(prefix + "guard.admitted", rep.guard.admitted,
                         obs::Stability::kRuntime);
    registry.set_counter(prefix + "guard.shed", rep.guard.shed,
                         obs::Stability::kRuntime);
    registry.set_counter(prefix + "guard.latch_transitions",
                         rep.guard.latch_transitions,
                         obs::Stability::kRuntime);
    registry.set_counter(prefix + "guard.overload_observations",
                         rep.guard.overload_observations,
                         obs::Stability::kRuntime);
  }
  // Parks of the cluster's own waits (workers and process()): the ones
  // that ran out their quantum are idle time, the rest ended on a ring.
  // Scheduling-dependent, so runtime.
  std::uint64_t parks = process_bell_.parks();
  std::uint64_t park_timeouts = process_bell_.park_timeouts();
  for (const auto& w : workers_) {
    parks += w->bell.parks();
    park_timeouts += w->bell.park_timeouts();
  }
  registry.set_counter(prefix + "parks", parks, obs::Stability::kRuntime);
  registry.set_counter(prefix + "park_timeouts", park_timeouts,
                       obs::Stability::kRuntime);
  registry.set_counter(prefix + "breaker.budget_exhausted",
                       rep.budget_exhausted, obs::Stability::kRuntime);
  registry.set_counter(prefix + "breaker.drops", rep.breaker_drops,
                       obs::Stability::kRuntime);
  registry.set_counter(prefix + "breaker.trips", rep.breaker_trips,
                       obs::Stability::kRuntime);
  if (rep.net_enabled) {
    net::collect_metrics(registry, prefix + "net.", rep.net);
  }
  for (const WorkerReport& wr : rep.workers) {
    const std::string wp =
        prefix + "worker." + std::to_string(wr.index) + ".";
    // A worker's raw emissions are only reproducible when its inner
    // engine's are; the threaded handshake chain races (exact-global mode
    // admits only its one-core form, which does not).
    const obs::Stability emit_stability =
        wr.backend == core::Backend::kSwHandshake
            ? obs::Stability::kRuntime
            : obs::Stability::kDeterministic;
    registry.set_counter(wp + "tuples_in", wr.tuples_in);
    registry.set_counter(wp + "results_out", wr.results_out, emit_stability);
    // Wire framing, not data: the batch count tracks the transport
    // granularity (TransportParams::batch_size / dispatch_batch), so it is
    // runtime-shaped like the stall and high-water counters — the
    // deterministic projection must not change with the dispatch path.
    registry.set_counter(wp + "data_batches_in", wr.data_batches_in,
                         obs::Stability::kRuntime);
    registry.set_counter(wp + "dropped", wr.dropped ? 1 : 0);
    registry.set_counter(wp + "recovery.restarts", wr.restarts);
    registry.set_counter(wp + "recovery.unrecoverable",
                         wr.unrecoverable ? 1 : 0);
    // Liveness ticks: pure scheduling noise, but a flat-lined gauge next
    // to a live peer set is the at-a-glance "worker is wedged" signal.
    registry.set_gauge(wp + "heartbeat", static_cast<double>(wr.heartbeat),
                       obs::Stability::kRuntime);
    registry.set_gauge(wp + "busy_seconds", wr.busy_seconds,
                       obs::Stability::kRuntime);
    if (wr.slow_batches > 0) {
      registry.set_counter(wp + "slow_batches", wr.slow_batches,
                           obs::Stability::kRuntime);
    }
    registry.set_counter(wp + "ingress.stall_spins", wr.ingress.stall_spins,
                         obs::Stability::kRuntime);
    registry.set_counter(wp + "egress.stall_spins", wr.egress.stall_spins,
                         obs::Stability::kRuntime);
  }
  for (const auto& w : workers_) {
    if (w->engine == nullptr) continue;  // retired, or remote
    if (!w->dropped.load(std::memory_order_acquire)) {
      w->engine->collect_metrics(
          registry, prefix + "worker." + std::to_string(w->index) + ".engine.");
    }
  }
}

std::unique_ptr<ClusterEngine> make_cluster_engine(const ClusterConfig& cfg) {
  return std::make_unique<ClusterEngine>(cfg);
}

}  // namespace hal::cluster
