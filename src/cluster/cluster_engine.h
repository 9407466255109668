// hal::cluster — sharded multi-node stream-join runtime.
//
// A ClusterEngine implements the core::StreamJoinEngine facade but runs
// the sliding-window join across N worker nodes, each wrapping an
// unmodified single-node backend (hardware uni-flow on the cycle sim,
// software SplitJoin, batched, ...) on its own thread — or, with
// TransportParams::worker_addresses, in another process that serves it
// through serve_worker (cluster/remote.h). It is the one coordinator for
// both: the pieces below serve in-process and remote workers alike.
//
//   router   — partitions tuples SplitJoin-style across a worker grid
//              (store-to-one-shard, process-against-all) or by key hash
//              for equi-joins (see cluster/router.h for the exactness
//              argument).
//   transport— bounded links carrying epoch-tagged tuple/result batches
//              (cluster/transport.h): SPSC queues with modeled per-link
//              bandwidth/latency, so dist::PathModel predictions are
//              testable against runs, or hal::net connections. Each
//              epoch's last batch on a link carries the link's R/S tuple
//              counts, which the worker audits (exactly-once delivery).
//   workers  — one thread per in-process worker; pops ingress batches
//              and runs each through WorkerStep (inner engine, stale-pair
//              filter, egress staging), the step serve_worker runs too.
//              Replication factor ≥ 2 runs hot replicas per shard slot
//              for failover.
//   merger   — the cluster-level gathering node, run by the thread that
//              calls process() wherever it waits (pump()): it drains every
//              worker's egress link into per-epoch result sets and, under
//              supervision, restarts dead workers, so an in-process
//              cluster runs one thread per worker and no other. With
//              WindowMode::kExactGlobal the workers have already dropped
//              the stale pairs against the router's per-tuple horizons,
//              so the cluster's output multiset is byte-identical to the
//              single-node reference oracle. Results are emitted in a
//              deterministic order (by probing-tuple arrival).
//
// Robustness: bounded queues give backpressure (stalls are counted, never
// dropped); fault injection can fail-stop a worker or delay a link. A
// failed worker's partial epoch is discarded — its replica's complete
// epoch is used instead (failover) or, with no replica, the loss is
// accounted and reported (clean degradation) while the cluster keeps
// serving the surviving shards. A remote worker whose connection closes
// counts as failed the same way. Supervision, worker fault events,
// placement, prefill and the elastic slot operations need the workers'
// engines in this process; with remote workers they throw
// PreconditionError.
//
// An epoch is one process() call: feed, drain, merge, report. The engine
// is quiescent between epochs, which is when report() may be read. Seqs
// must strictly increase across every process() and prefill() input of
// the run; an input that breaks this throws PreconditionError before the
// engine changes any state.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "cluster/placement.h"
#include "cluster/router.h"
#include "cluster/transport.h"
#include "common/backoff.h"
#include "common/timer.h"
#include "core/stream_join.h"
#include "guard/guard.h"

namespace hal::cluster {

enum class FaultKind : std::uint8_t {
  // Fail-stop: the worker dies immediately before processing the trigger
  // batch. Unsupervised it announces the failure and keeps draining its
  // inbox so the router never wedges; supervised it exits and is
  // restarted from its last checkpoint (see RecoveryConfig).
  kKillWorker,
  // Contained fault: the worker throws hal::Error at the trigger batch
  // (exercising the HAL_CHECK_RECOVERABLE path) and fail-stops like
  // kKillWorker.
  kWorkerError,
  // Link fault: extra one-way delay on the worker's ingress link for the
  // whole run (applied at construction; epoch/after_batches ignored).
  kDelayLink,
  // Gray failure: the worker stays alive and correct but turns slow — an
  // injected per-batch delay of extra_delay_us inside its busy section
  // (so service-time accounting sees it, exactly like a thermal throttle
  // or noisy neighbor would look) for duration_batches batches starting
  // at the trigger. period > 1 makes it a stutter: only every period-th
  // batch is delayed (GC-pause shaped). Output is unaffected — which is
  // the point: only hal::guard's detector can tell.
  kSlowWorker,
};

struct FaultEvent {
  FaultKind kind = FaultKind::kKillWorker;
  // Flat worker index = slot * replicas + replica.
  std::uint32_t worker = 0;
  // Trigger position for kill/error events: the event fires immediately
  // before the worker processes its (after_batches + 1)-th non-empty data
  // batch — counted within `epoch` when epoch >= 1, or across the whole
  // run when epoch == 0 (the legacy drop_worker semantics). An epoch
  // trigger the stream never reaches fires at the first batch of a later
  // epoch instead, so seeded chaos plans stay deterministic on short
  // runs. Each event fires at most once, surviving worker restarts.
  std::uint64_t epoch = 0;
  std::uint32_t after_batches = 0;
  // kDelayLink: permanent extra link latency. kSlowWorker: injected
  // per-batch processing delay.
  double extra_delay_us = 0.0;
  // kSlowWorker only: how many batches the degradation lasts (0 = the
  // rest of the run) and the stutter period (1 = every batch is slow).
  std::uint64_t duration_batches = 0;
  std::uint32_t period = 1;
};

struct FaultPlan {
  // Any number of simultaneous faults (multiple kills, kill + delay, ...).
  std::vector<FaultEvent> events;
};

struct RecoveryConfig {
  // Master switch: enables per-worker checkpoints and ingress replay logs,
  // and process() restarts a killed worker from them. With it off a
  // killed worker stays dead (replica failover / clean degradation, the
  // pre-recovery behavior).
  bool supervise = false;
  // A worker checkpoints its engine after every k-th completed epoch
  // (before publishing the epoch, so the checkpoint is always at least as
  // fresh as what the main thread has observed). 0 disables checkpoints:
  // restarts then replay from an empty window, which is only exact while
  // the replay log still covers everything since epoch 0.
  std::uint32_t checkpoint_interval_epochs = 1;
  // Per-ingress-link replay log bound, in batches. When a restart needs
  // batches the log already evicted, exact recovery is impossible and the
  // worker degrades to a drained slot (counted in RecoveryStats).
  std::size_t replay_log_batches = std::size_t{1} << 12;
};

struct RecoveryStats {
  std::uint64_t checkpoints = 0;       // images taken across all workers
  std::uint64_t checkpoint_bytes = 0;  // Σ serialized image sizes
  std::uint64_t restarts = 0;          // supervised respawns
  std::uint64_t replayed_batches = 0;  // delta batches reprocessed
  std::uint64_t replayed_tuples = 0;
  std::uint64_t unrecoverable = 0;  // restarts that lost replay coverage
  double mttr_seconds_total = 0.0;  // Σ kill-detect → worker respawned
  double mttr_seconds_max = 0.0;
};

struct ElasticParams {
  // Per-key routed-tuple counters in the router: the measured-skew feed
  // for elastic::Controller::rebalance(). Off by default (one hash-map
  // increment per routed tuple).
  bool track_key_load = false;
};

struct ClusterConfig {
  Partitioning partitioning = Partitioning::kKeyHash;
  std::uint32_t shards = 4;     // kKeyHash slot count (initial, elastic)
  std::uint32_t grid_rows = 2;  // kSplitGrid layout (slots = rows × cols)
  std::uint32_t grid_cols = 2;
  // Workers per shard slot; 2 enables failover under fault injection.
  std::uint32_t replicas = 1;
  WindowMode window_mode = WindowMode::kExactGlobal;

  // Global per-stream sliding window; the per-worker engine window is
  // derived from it (see worker_window_size()).
  std::size_t window_size = 1 << 10;
  stream::JoinSpec spec = stream::JoinSpec::equi_on_key();

  // Template for every worker's inner engine (backend, num_cores,
  // collect_results, hw network/clock options). window_size and spec are
  // overridden by the cluster.
  core::EngineConfig worker;
  // Optional per-slot overrides (mixed-backend clusters), indexed by slot.
  std::vector<core::EngineConfig> worker_overrides;

  // Links; transport.worker_addresses makes every worker remote.
  TransportParams transport;
  FaultPlan faults;
  RecoveryConfig recovery;
  ElasticParams elastic;
  // Core pinning / NUMA-aware shard layout for the worker threads
  // (cluster/placement.h). Off by default.
  PlacementConfig placement;
  // SLO-bounded admission at the cluster ingress (hal::guard): tuples are
  // shed — with exact accounting — before routing and before the
  // exact-global horizon stamps, so the guarded output equals the
  // reference join of (input − shed log). Off by default; with
  // guard.enabled false the hot path pays one branch per epoch.
  guard::GuardConfig guard;
};

// Per-worker engine window implied by the partitioning scheme (the
// divisibility requirements are HAL_CHECKed at construction).
[[nodiscard]] std::size_t worker_window_size(const ClusterConfig& cfg);

// True iff the spec pins r.key == s.key, making hash partitioning lossless.
[[nodiscard]] bool key_hashable(const stream::JoinSpec& spec);

// True iff an engine built from `worker` emits every result during the
// process() call that delivers its probe. A multi-core chain (kSwHandshake,
// kHwBiflow) finds a cross-core pair only when a later arrival hands one
// of its tuples over, often in a later epoch. An exact-global worker keeps
// its arrivals' horizons for the current epoch only, so that mode rejects
// such workers at construction.
[[nodiscard]] bool emits_results_in_probe_epoch(
    const core::EngineConfig& worker);

// One worker's half of the link protocol, shared by the in-process worker
// threads and serve_worker so the two cannot drift. Each ingress batch
// runs through the engine and the exact-global stale-pair filter into the
// egress staging; a result batch ships once batch_size results are
// staged, and the epoch's answer ships at its end. The end-of-epoch batch
// also closes the exactly-once audit: the R and S tuples it says the
// router sent this link in the epoch must be the ones that arrived.
class WorkerStep {
 public:
  struct Outcome {
    std::uint64_t results = 0;    // engine emissions, before the filter
    double engine_seconds = 0.0;  // inside the engine
  };

  explicit WorkerStep(std::size_t batch_size) : batch_size_(batch_size) {}

  // Runs `batch` through the audit, the engine and the filter, and stages
  // the kept results. Throws hal::Error on an engine fault or a failed
  // audit: the cluster contains it as a fail-stop of the worker,
  // serve_worker fails its run.
  Outcome process(core::StreamJoinEngine& engine, const TupleBatch& batch);

  // Then ships the staged results if `batch` ends the epoch or they fill a
  // result batch: `send(ResultBatch)` ships one and returns false if it
  // gave up, and so does ship(). A caller accounts for the batch between
  // the two steps, so the end-of-epoch send publishes its counters.
  template <typename SendFn>
  bool ship(const TupleBatch& batch, SendFn&& send) {
    if (!batch.end_of_epoch && staged_.size() < batch_size_) return true;
    return send(take_staged(batch));
  }

  // Forgets the partial epoch (a restart or a rebuild discards it).
  void reset();

 private:
  [[nodiscard]] ResultBatch take_staged(const TupleBatch& batch);

  std::size_t batch_size_;
  StaleFilter filter_;  // this epoch's arrival horizons (exact-global)
  std::vector<stream::ResultTuple> staged_;  // results awaiting egress
  std::uint64_t staged_dropped_ = 0;  // stale pairs since the last send
  std::uint64_t epoch_r_ = 0;  // R/S tuples received this epoch (audit)
  std::uint64_t epoch_s_ = 0;
};

// Remote workers report only their links' counters: engine-side fields
// (tuples_in, results_out, busy_seconds, ...) stay zero.
struct WorkerReport {
  std::uint32_t index = 0;
  std::uint32_t slot = 0;
  std::uint32_t replica = 0;
  core::Backend backend = core::Backend::kSwSplitJoin;
  std::uint64_t tuples_in = 0;
  std::uint64_t results_out = 0;
  std::uint64_t data_batches_in = 0;
  std::uint64_t result_batches_out = 0;
  double busy_seconds = 0.0;  // time inside the inner engine
  bool pinned = false;        // thread affinity applied successfully
  int pin_cpu = -1;           // assigned CPU (-1 = unpinned)
  bool dropped = false;
  bool unrecoverable = false;  // supervised restart lost replay coverage
  std::uint64_t restarts = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t replayed_batches = 0;
  std::uint64_t heartbeat = 0;  // worker-loop liveness ticks
  std::uint64_t slow_batches = 0;  // batches degraded by kSlowWorker
  LinkStats ingress;  // router → this worker (stalls charged to router)
  LinkStats egress;   // this worker → merger (stalls charged to worker)
};

struct ClusterReport {
  std::vector<WorkerReport> workers;  // incl. retired slots (elastic)
  std::uint64_t input_tuples = 0;   // tuples offered to process()
  std::uint64_t routed_tuples = 0;  // tuple-sends incl. grid replication
  std::uint64_t merged_results = 0;
  // Stale pairs the exact-global workers dropped (counted per completed
  // epoch of the replica whose results were merged).
  std::uint64_t filtered_results = 0;
  std::uint64_t failovers = 0;
  std::uint64_t lost_tuples = 0;  // routed to a dead, replica-less slot
  bool degraded = false;
  std::uint64_t router_stall_spins = 0;   // Σ ingress stalls
  std::uint64_t worker_stall_spins = 0;   // Σ egress stalls
  // Workers whose thread affinity was applied (0 unless
  // config().placement.pin_workers and the host honors the mask).
  std::uint64_t pinned_workers = 0;
  std::size_t ingress_queue_high_water = 0;
  std::size_t egress_queue_high_water = 0;
  double elapsed_seconds = 0.0;  // Σ process() wall time
  // Net-backed links only: every connection end's counters, summed (so
  // each wire frame shows up once as sent and once as received). With
  // remote workers only this process's ends count.
  bool net_enabled = false;
  net::NetStats net;
  // Supervised-recovery totals (all zero when recovery.supervise is off).
  RecoveryStats recovery;
  // Elastic topology (kKeyHash): live slots and the installed keyspace
  // revision. A never-reconfigured cluster reports active_shards ==
  // config().shards and keyspace_version == 1.
  std::uint32_t active_shards = 0;
  std::uint64_t keyspace_version = 0;
  // hal::guard: ingress admission totals (zero when guard is disabled)
  // and circuit-breaker accounting across all links.
  bool guard_enabled = false;
  guard::GuardStats guard;
  std::uint64_t budget_exhausted = 0;  // sends abandoned at their budget
  std::uint64_t breaker_drops = 0;     // fast-failed sends (breaker open)
  std::uint64_t breaker_trips = 0;     // links whose breaker is open

  [[nodiscard]] double throughput_tuples_per_sec() const noexcept {
    return elapsed_seconds > 0.0
               ? static_cast<double>(input_tuples) / elapsed_seconds
               : 0.0;
  }
};

class ClusterEngine final : public core::StreamJoinEngine {
 public:
  explicit ClusterEngine(const ClusterConfig& cfg);
  ~ClusterEngine() override;

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  core::RunReport process(const std::vector<stream::Tuple>& tuples) override;
  void prefill(const std::vector<stream::Tuple>& tuples) override;
  void program(const stream::JoinSpec& spec) override;
  std::vector<stream::ResultTuple> take_results() override;
  [[nodiscard]] core::Backend backend() const noexcept override {
    return core::Backend::kCluster;
  }
  [[nodiscard]] std::optional<hw::DesignStats> design_stats() const override {
    return std::nullopt;
  }

  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint32_t num_workers() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }
  // Aggregated runtime metrics. Valid between process() calls.
  [[nodiscard]] ClusterReport report() const;

  // --- Elastic topology (hal::elastic, kKeyHash only) -------------------
  // All of these run on the thread that calls process(), strictly between
  // process() calls: the engine is quiescent at that epoch barrier (every
  // slot's epoch has been collected, supervised restarts included), which
  // is the migration protocol's freeze point. elastic::Controller is the
  // intended caller; the primitives are public so tests can drive them.

  // Slots ever created, retired included (slot ids are never reused).
  [[nodiscard]] std::uint32_t slot_count() const noexcept {
    return static_cast<std::uint32_t>(slot_staging_.size());
  }
  [[nodiscard]] std::uint32_t active_slot_count() const noexcept;
  [[nodiscard]] bool slot_retired(std::uint32_t slot) const;

  // Appends a new shard slot (cfg.replicas fresh workers, net links when
  // net-backed) and returns its id. It receives traffic only once a
  // keyspace revision maps keyslots (or split members) to it.
  std::uint32_t add_slot();
  // Permanently retires a slot the installed keyspace no longer
  // references: worker threads exit and their engines are destroyed.
  void retire_slot(std::uint32_t slot);

  // Installed routing revision; apply_keyspace requires version exactly
  // current+1 and every referenced shard to be a live slot.
  [[nodiscard]] const KeyspaceMap& keyspace() const {
    return router_.keyspace();
  }
  void apply_keyspace(KeyspaceMap map);

  // Serialized recovery::serialize frame of the freshest live replica's
  // current window (epoch-stamped at the barrier); empty when every
  // replica of the slot is dead or cannot snapshot.
  [[nodiscard]] std::vector<std::uint8_t> snapshot_slot(std::uint32_t slot);
  // Newest *published* checkpoint frame of a live replica plus its epoch;
  // empty when none was taken yet (requires recovery.supervise).
  [[nodiscard]] std::vector<std::uint8_t> checkpoint_slot(
      std::uint32_t slot, std::uint64_t& epoch_out);
  // Copy of the slot's ingress replay-log suffix newer than after_epoch
  // (replicas receive identical traffic, so any live replica's log
  // serves). complete_out: the log still covers everything after
  // after_epoch. Requires recovery.supervise (the logs exist only then).
  [[nodiscard]] std::vector<TupleBatch> replay_delta_slot(
      std::uint32_t slot, std::uint64_t after_epoch, bool& complete_out);
  // Replaces every replica engine of `slot` with a fresh engine prefilled
  // with `window` (arrival order; the engine's own count-based eviction
  // trims it). Also heals dead/unrecoverable replicas — the rebuilt
  // window *is* their complete state — and, under supervision, publishes
  // a fresh checkpoint so a later restart replays only post-rebuild
  // deltas instead of restoring a pre-migration image.
  void rebuild_slot(std::uint32_t slot,
                    const std::vector<stream::Tuple>& window);

  // Per-key routed-tuple counts since the last reset (empty unless
  // cfg.elastic.track_key_load).
  [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint64_t>&
  key_load() const noexcept {
    return router_.key_load();
  }
  void reset_key_load() { router_.reset_key_load(); }

  // Folds the ClusterReport into the registry: routing/merge totals and
  // per-worker traffic are deterministic (routing and the fault plan are
  // batch-count driven), stall spins / queue depths / wall times are not.
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const override;

  // --- hal::guard -------------------------------------------------------
  // The cluster-ingress admission guard (shed log, stats, latch state).
  // Read between process() calls; non-null even when disabled.
  [[nodiscard]] const guard::AdmissionGuard* admission_guard()
      const noexcept override {
    return &guard_;
  }
  // Trips one worker permanently off the serving path (main thread, used
  // on ingress send failure; also callable from tests). The worker keeps
  // draining but its epochs stop counting — replica failover or clean
  // degradation take over, instead of the epoch stalling forever.
  void abandon_worker(std::uint32_t index);

 private:
  // Per-worker result assembly, owned by the process() thread (pump()):
  // `pending` gathers the epoch in flight, `completed` holds the newest
  // finished one until collect_slot takes it.
  struct MergeSlot {
    std::vector<stream::ResultTuple> pending;
    std::vector<stream::ResultTuple> completed;
    std::uint64_t pending_dropped = 0;  // the workers' stale-pair counts
    std::uint64_t completed_dropped = 0;
    double last_deliver_at_us = 0.0;
    std::uint64_t completed_epoch = 0;
    // Also set by the worker thread when its egress is lost (egress_lost).
    std::atomic<bool> died{false};
  };

  struct Worker {
    Worker(std::uint32_t index, std::uint32_t slot, std::uint32_t replica,
           const LinkParams& ingress, const LinkParams& egress,
           std::size_t batch_size, Doorbell& process_bell)
        : index(index), slot(slot), replica(replica), inbox(ingress, &bell),
          outbox(egress, &process_bell), step(batch_size) {}

    const std::uint32_t index;
    const std::uint32_t slot;
    const std::uint32_t replica;
    // Null for a remote worker, which has neither engine nor thread here.
    std::unique_ptr<core::StreamJoinEngine> engine;
    Doorbell bell;  // the worker thread parks here; inbox sends ring it
    Link<TupleBatch> inbox;
    Link<ResultBatch> outbox;  // sends ring process_bell_
    MergeSlot merge;           // what process() has drained of the outbox
    std::thread thread;

    // Worker-thread-written; normally published to the main thread by the
    // end-of-epoch / died message on the outbox, but an abandoned worker
    // keeps draining with no barrier left, so report() may read these
    // live — relaxed atomics (single writer) keep that torn-free.
    std::atomic<std::uint64_t> tuples_in{0};
    std::atomic<std::uint64_t> results_out{0};
    std::atomic<std::uint64_t> data_batches_in{0};
    std::atomic<double> busy_seconds{0.0};
    WorkerStep step;  // engine, stale-pair filter, egress staging, audit
    std::atomic<bool> dropped{false};

    // kSlowWorker state (worker-thread owned once consume() latches it).
    std::uint64_t slow_remaining = 0;  // batches still degraded
    double slow_us = 0.0;              // injected delay per slow batch
    std::uint32_t slow_period = 1;     // stutter period (1 = every batch)
    std::uint64_t slow_tick = 0;
    // Total batches actually delayed; atomic for the same abandoned-worker
    // live read as the counters above.
    std::atomic<std::uint64_t> slow_batches{0};

    // Placement: CPU assigned by the policy (-1 = none); `pinned` set by
    // the worker thread once the affinity mask sticks (relaxed is enough —
    // reporting only).
    int pin_cpu = -1;
    std::atomic<bool> pinned{false};

    // --- Elastic retirement (main thread orchestrates) ------------------
    core::Backend backend_tag = core::Backend::kSwSplitJoin;  // outlives engine
    std::atomic<bool> exit_req{false};  // ask the thread to return at idle
    std::atomic<bool> retired{false};   // thread joined, engine destroyed

    // --- Supervised-recovery state (recovery.supervise only) ------------
    core::EngineConfig engine_cfg;  // to rebuild the engine on restart
    // This worker's fault events; `fault_fired` persists across
    // incarnations so a replayed trigger position cannot re-fire.
    std::vector<FaultEvent> faults;
    std::vector<bool> fault_fired;
    std::uint64_t epoch_batches = 0;  // non-empty batches this epoch

    std::atomic<std::uint64_t> heartbeat{0};  // liveness ticks (obs gauge)
    // The thread has returned: a supervised fail-stop that process() must
    // restart, or a retirement or shutdown join (start_worker).
    std::atomic<bool> dead{false};
    std::atomic<bool> unrecoverable{false};  // restart lost coverage

    // Newest checkpoint: worker thread writes, recover() reads. The
    // published epoch additionally feeds replay-log truncation on the
    // main thread (reading it there is sound: the worker stores before
    // sending the end-of-epoch batch the main thread has already merged).
    std::mutex ckpt_mu;
    std::vector<std::uint8_t> ckpt_bytes;   // guarded by ckpt_mu
    std::uint64_t ckpt_epoch = 0;           // guarded by ckpt_mu
    std::atomic<std::uint64_t> ckpt_epoch_pub{0};

    // Replay handoff, set by recover() before respawning the thread (the
    // spawn publishes it). The respawned loop processes `replay` first,
    // then discards inbox batches with link_seq <= replay_floor — every
    // batch is processed exactly once under any interleaving.
    std::vector<TupleBatch> replay;
    std::uint64_t replay_floor = 0;

    // Recovery tallies. checkpoints/checkpoint_bytes/replayed_* are
    // worker-owned (published like tuples_in); restarts/mttr belong to the
    // process() thread, which runs recover().
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t replayed_batches = 0;
    std::uint64_t replayed_tuples = 0;
    double mttr_seconds_total = 0.0;
    double mttr_seconds_max = 0.0;
    std::vector<double> mttr_us_samples;  // for the mttr_us histogram
  };

  void worker_loop(Worker& w);
  // Processes one ingress batch inside the worker loop; returns false iff
  // the worker fail-stopped and (supervised) its thread must exit.
  bool consume(Worker& w, TupleBatch batch, bool replaying);
  // First unfired kill/error event due at this batch, or nullptr.
  [[nodiscard]] const FaultEvent* due_fault(Worker& w,
                                            const TupleBatch& batch);
  // Fail-stop bookkeeping shared by kills, injected errors and contained
  // hal::Error faults; returns the value consume() must return.
  bool fail_stop(Worker& w, std::uint64_t epoch);
  // Worker-thread handling of an abandoned egress send (budget exhausted
  // or breaker open): drain-only containment without a restart. Returns
  // the value consume() must return (true — the thread keeps draining).
  bool egress_lost(Worker& w);
  void maybe_checkpoint(Worker& w, std::uint64_t epoch);
  void recover(Worker& w);
  // The process() thread's control step, run wherever it waits: drains
  // every live worker's outbox into its merge slot and restarts the dead
  // (supervised) ones. True iff it received a batch or restarted a worker.
  bool pump();
  // Drains w's outbox into w.merge; true iff it received a batch.
  bool drain(Worker& w);
  // Joins w's thread once it has returned, draining w's outbox meanwhile:
  // only this thread drains it, and a worker may still be sending.
  void join_worker(Worker& w);
  void flush_slot(std::uint32_t slot, bool end_of_epoch);
  void collect_slot(std::uint32_t slot,
                    std::vector<stream::ResultTuple>& out);
  void wait_until(double deadline_us) const;
  [[nodiscard]] double now_us() const { return timer_.elapsed_us(); }

  // Throws PreconditionError naming `what` when the workers are remote.
  void require_local_workers(const char* what) const;
  // Establishes the net connections of every worker's links and attaches
  // them (constructor, net-backed transports only): a connection pair per
  // link in this process, or one dialed connection per remote worker.
  void setup_net_links();
  // Endpoint options of the cluster's end of worker `w`'s ingress (or
  // egress) link.
  [[nodiscard]] net::EndpointOptions link_endpoint(const Worker& w,
                                                   bool ingress) const;
  // Dials and accepts the two connections of one worker's links
  // (net-backed transports; no-op otherwise). add_slot() uses it to wire
  // workers created after construction.
  void attach_net_links(Worker& w);
  // Builds (but does not start) one worker.
  [[nodiscard]] std::unique_ptr<Worker> make_worker(std::uint32_t slot,
                                                    std::uint32_t replica);
  // Spawns (or, after a fail-stop, respawns) w's thread.
  void start_worker(Worker& w);

  ClusterConfig cfg_;
  Router router_;
  PlacementPolicy placement_;
  HorizonStamper horizons_;  // used iff window_mode == kExactGlobal
  Timer timer_;              // cluster clock: µs since construction
  guard::AdmissionGuard guard_;          // cluster-ingress admission
  std::vector<stream::Tuple> admitted_;  // guard scratch, reused per epoch

  // Net-backed link state (unused when link_transport == kInProcess).
  // Dialer ends are owned here; acceptor ends by the listener (remote
  // workers have none). Teardown order matters: threads join first, then
  // dialers close, then the listener (and its connections), then the
  // transport.
  std::unique_ptr<net::Transport> owned_transport_;
  net::Transport* net_transport_ = nullptr;  // owned_ or the shared hub
  std::unique_ptr<net::Listener> net_listener_;
  std::vector<std::unique_ptr<net::Connection>> net_dialers_;
  std::vector<net::Connection*> net_acceptors_;

  // The process() thread parks on process_bell_ wherever it waits, and
  // every worker thread rings it when it has something for that thread:
  // each outbox send, a lost egress, and the thread's return (start_worker).
  // Declared before workers_, whose outboxes point at it.
  Doorbell process_bell_;

  // Grow-only (elastic): retirement never erases entries, so worker
  // indices stay stable. Only the process() thread touches the vector;
  // each Worker is heap-stable for its thread.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};

  // Main-thread epoch state. Slot-indexed vectors cover retired slots
  // too (grow-only, like workers_).
  std::uint64_t epoch_ = 0;
  std::uint64_t next_seq_ = 0;  // least seq the next arrival may carry
  std::vector<std::vector<stream::Tuple>> slot_staging_;
  std::vector<std::vector<std::uint64_t>> slot_stamps_;  // beside staging
  std::vector<std::uint64_t> stamps_;  // per admitted tuple, this epoch
  // R and S tuples routed to each slot this epoch, by StreamId: the
  // end-of-epoch audit counts, and the loss when the slot dies.
  std::vector<std::array<std::uint64_t, 2>> slot_epoch_counts_;
  std::vector<std::uint32_t> active_replica_;
  std::vector<std::uint8_t> slot_retired_;
  std::vector<stream::ResultTuple> collected_;

  // Accumulated report counters (main thread).
  std::uint64_t input_tuples_ = 0;
  std::uint64_t routed_tuples_ = 0;
  std::uint64_t merged_results_ = 0;
  std::uint64_t filtered_results_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t lost_tuples_ = 0;
  bool degraded_ = false;
  double elapsed_seconds_ = 0.0;
};

[[nodiscard]] std::unique_ptr<ClusterEngine> make_cluster_engine(
    const ClusterConfig& cfg);

}  // namespace hal::cluster
