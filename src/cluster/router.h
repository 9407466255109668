// Tuple routing for the sharded cluster runtime.
//
// Two partitioning policies:
//
// * kSplitGrid — the SplitJoin discipline (store-to-one-shard,
//   process-against-all) generalized to a rows×cols worker grid, the
//   join-matrix layout: R tuples are assigned round-robin to a *row* and
//   replicated across that row's workers; S tuples are assigned
//   round-robin to a *column* and replicated down it. Every (r, s) pair
//   meets at exactly one worker — (row(r), col(s)) — and, because the
//   round-robin row/column assignment slices each stream exactly like
//   SplitJoin's per-core turn counting, each worker's local count-based
//   sub-window of W/rows (resp. W/cols) tuples is precisely its slice of
//   the global W-tuple window. Works for arbitrary join predicates.
//
// * kKeyHash — equi-join fast path: each tuple goes to the single worker
//   owning its key, so matches co-locate and no replication is needed.
//   State is partitioned (each worker stores only its key range), which
//   cuts per-probe scan work by the shard count — the scaling mode.
//   Ownership is indirected through a versioned KeyspaceMap (keyslot →
//   shard table plus hot-key split groups) so hal::elastic can move key
//   ranges and split skewed keys at runtime; a fresh router starts from
//   KeyspaceMap::uniform(shards), which reproduces the static
//   hash(key) % shards layout. The router can additionally count routed
//   tuples per key (enable_load_tracking) — the measured-skew feed for
//   the elastic rebalance policy.
//
// Exactness: a worker wraps an unmodified single-node engine, which evicts
// by *local* arrival count. Whenever a worker's local window can outlive
// the global W-tuple window (kKeyHash, or the long side of a non-square
// grid), the engine is given a window large enough to never *miss* a
// global-window partner, and the stale extras it finds are dropped at the
// worker, before they reach the wire. Seq is the global arrival index,
// strictly increasing across a run (gaps allowed, e.g. where the guard
// shed), so a stream's n-th arrival can be named by its seq: a probe that
// arrived after A tuples of the other stream X still held a stored X tuple
// q iff A <= W or q.seq >= the seq of X's arrival number A - W. The router
// computes that cutoff once per admitted tuple — its horizon: the seq of
// the other stream's W-th most recent arrival, or 0 while that stream has
// at most W arrivals (HorizonStamper, O(W) state however long the run) —
// and ships it beside the tuple. The worker keeps its epoch's (seq,
// horizon) pairs and drops every result whose stored tuple's seq is below
// its probe's horizon (StaleFilter), counting the drops for the merger's
// report. The coordinator rejects an input whose seqs do not strictly
// increase (check_arrival_order) before it changes any state, and checks
// that every merged result probes the current epoch: a worker that emits
// a pair in a later epoch has already forgotten its probe's horizon, which
// rules out multi-core handshake and bi-flow chains (see
// emits_results_in_probe_epoch in cluster_engine.h).
// Subset guarantee + exact drop rule ⇒ byte-identical result multisets to
// the single-node oracle. WindowTracker applies the same rule per pair from
// arrival counts, as a reference for tests and the benchmark replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/keyspace.h"
#include "common/assert.h"
#include "simd/probe.h"
#include "stream/tuple.h"

namespace hal::cluster {

enum class Partitioning : std::uint8_t {
  kSplitGrid,  // store-to-one, process-against-all (any predicate)
  kKeyHash,    // hash(key) ownership (equi-joins)
};

[[nodiscard]] constexpr const char* to_string(Partitioning p) noexcept {
  switch (p) {
    case Partitioning::kSplitGrid: return "split-grid";
    case Partitioning::kKeyHash: return "key-hash";
  }
  return "?";
}

// Per-shard window discipline (see header comment).
enum class WindowMode : std::uint8_t {
  // Workers hold enough history that, after dropping the pairs below
  // their router-stamped horizons, the cluster is byte-identical to the
  // global count-based W window.
  kExactGlobal,
  // Workers hold W/shards each (kKeyHash) — the discipline real
  // key-partitioned deployments use: per-partition count-based windows.
  // Aggregate state is W, per-probe work drops by the shard count.
  kPartitionedLocal,
};

[[nodiscard]] constexpr const char* to_string(WindowMode m) noexcept {
  switch (m) {
    case WindowMode::kExactGlobal: return "exact-global";
    case WindowMode::kPartitionedLocal: return "partitioned-local";
  }
  return "?";
}

class Router {
 public:
  Router(Partitioning partitioning, std::uint32_t rows, std::uint32_t cols);

  // Routes an arrival-order span: invokes emit(tuple, slot) for every
  // shard slot (grid cell or hash partition) each tuple must visit, in
  // arrival order and, per tuple, in slot-index order. Every tuple must be
  // routed exactly once, in arrival order, across calls (grid assignment
  // advances per-stream round-robin counters), so splitting a stream into
  // spans does not change the routing. One call per span amortizes the
  // per-tuple dispatch the way the engines' batched paths do.
  template <typename EmitFn>
  void route_span(std::span<const stream::Tuple> tuples, EmitFn&& emit) {
    if (partitioning_ == Partitioning::kKeyHash) {
      if (!track_load_ && map_.splits().empty()) {
        // Hot-loop fast path: no per-key accounting, no split groups —
        // every tuple goes to owners[keyslot(key)]. Hash a chunk of keys
        // at a time through the simd kernel (identical output to
        // KeyspaceMap::hash_key lane by lane, pinned by the kernel
        // tests), then emit through the owner table.
        const std::uint32_t* owners = map_.owners().data();
        std::size_t pos = 0;
        while (pos < tuples.size()) {
          const std::size_t n = std::min(kHashChunk, tuples.size() - pos);
          for (std::size_t j = 0; j < n; ++j) {
            hash_keys_[j] = tuples[pos + j].key;
          }
          simd::hash_fib_hi16(hash_keys_.data(), n, hash_out_.data());
          for (std::size_t j = 0; j < n; ++j) {
            emit(tuples[pos + j],
                 owners[hash_out_[j] % KeyspaceMap::kKeyslots]);
          }
          pos += n;
        }
        return;
      }
      for (const stream::Tuple& t : tuples) route_hashed(t, emit);
      return;
    }
    for (const stream::Tuple& t : tuples) {
      if (t.origin == stream::StreamId::R) {
        const auto row = static_cast<std::uint32_t>(count_r_++ % rows_);
        for (std::uint32_t col = 0; col < cols_; ++col) {
          emit(t, row * cols_ + col);
        }
      } else {
        const auto col = static_cast<std::uint32_t>(count_s_++ % cols_);
        for (std::uint32_t row = 0; row < rows_; ++row) {
          emit(t, row * cols_ + col);
        }
      }
    }
  }

  // Construction-time slot count (grid cells, or the initial shard count
  // for kKeyHash). Elastic reconfiguration can grow past this; the
  // cluster engine tracks the live slot set itself.
  [[nodiscard]] std::uint32_t num_slots() const noexcept {
    return rows_ * cols_;
  }
  [[nodiscard]] Partitioning partitioning() const noexcept {
    return partitioning_;
  }
  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }

  // --- Elastic keyspace (kKeyHash only) --------------------------------
  [[nodiscard]] const KeyspaceMap& keyspace() const {
    HAL_CHECK(partitioning_ == Partitioning::kKeyHash,
              "the keyspace map only exists under key-hash partitioning");
    return map_;
  }
  // Atomic (from the routing thread's perspective: between route calls)
  // swap to the next revision. Revisions install strictly in order.
  void set_keyspace(KeyspaceMap map);

  // --- Per-key load accounting (skew detection) ------------------------
  void enable_load_tracking() noexcept { track_load_ = true; }
  [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint64_t>&
  key_load() const noexcept {
    return key_load_;
  }
  void reset_key_load() { key_load_.clear(); }

 private:
  // Key-hash dispatch for one tuple: hot-key groups replicate R to every
  // member and deal S round-robin (each (r, s) pair of the key meets at
  // exactly one member — s's member, which holds every windowed r);
  // everything else goes to the keyslot owner.
  template <typename EmitFn>
  void route_hashed(const stream::Tuple& t, EmitFn&& emit) {
    if (track_load_) ++key_load_[t.key];
    if (!map_.splits().empty()) {
      if (const std::vector<std::uint32_t>* group = map_.split_group(t.key)) {
        if (t.origin == stream::StreamId::R) {
          for (const std::uint32_t slot : *group) emit(t, slot);
        } else {
          emit(t, (*group)[split_turn_[t.key]++ % group->size()]);
        }
        return;
      }
    }
    emit(t, map_.shard_of_key(t.key));
  }

  Partitioning partitioning_;
  std::uint32_t rows_;  // kKeyHash: rows_ == 1, cols_ == initial shards
  std::uint32_t cols_;
  std::uint64_t count_r_ = 0;  // grid round-robin turn counters
  std::uint64_t count_s_ = 0;

  KeyspaceMap map_;  // kKeyHash only; starts at uniform(cols_)
  // Per-split-key S-side deal counters. Survive re-splits; routing stays
  // deterministic either way (single routing thread).
  std::unordered_map<std::uint32_t, std::uint64_t> split_turn_;

  bool track_load_ = false;
  std::unordered_map<std::uint32_t, std::uint64_t> key_load_;

  // Gather/landing buffers of the batched keyslot-hash fast path (the
  // router is single-threaded, like the turn counters above).
  static constexpr std::size_t kHashChunk = 256;
  std::vector<std::uint32_t> hash_keys_ = std::vector<std::uint32_t>(kHashChunk);
  std::vector<std::uint32_t> hash_out_ = std::vector<std::uint32_t>(kHashChunk);
};

// Throws PreconditionError unless the seqs of `tuples` strictly increase
// and start at or above `next_seq`, the least seq the next arrival of the
// run may carry. Returns the new least seq. Checks the whole span, so a
// caller that checks first changes no state on a rejected input.
[[nodiscard]] std::uint64_t check_arrival_order(
    std::span<const stream::Tuple> tuples, std::uint64_t next_seq);

// Seq of the result's probe: the later arrival of the pair.
[[nodiscard]] inline std::uint64_t probe_seq(
    const stream::ResultTuple& t) noexcept {
  return t.r.seq > t.s.seq ? t.r.seq : t.s.seq;
}

// True iff every result probes an arrival of the epoch whose arrivals
// carry seqs of at least `epoch_first_seq`, i.e. no worker emitted a pair
// after its probe's epoch.
[[nodiscard]] bool probes_in_epoch(
    std::span<const stream::ResultTuple> results,
    std::uint64_t epoch_first_seq);

// One stream's newest arrival seqs, oldest first, and its arrival count.
struct ArrivalLog {
  std::deque<std::uint64_t> seqs;
  std::uint64_t arrivals = 0;  // of this stream so far

  void push(std::uint64_t seq) {
    seqs.push_back(seq);
    ++arrivals;
  }
  // Seq of arrival number `n` (0-based), which must still be held.
  [[nodiscard]] std::uint64_t seq_of(std::uint64_t n) const {
    const std::uint64_t first = arrivals - seqs.size();
    HAL_ASSERT(n >= first && n < arrivals);
    return seqs[n - first];
  }
  void keep_newest(std::size_t n) {
    if (seqs.size() > n) {
      seqs.erase(seqs.begin(), seqs.end() - static_cast<std::ptrdiff_t>(n));
    }
  }
};

// Router half of the exact-global window (see the header comment): stamps
// each admitted arrival, in arrival order, with its horizon. A stored
// tuple of the other stream was inside the arrival's window iff its seq is
// at least the stamp. Keeps each stream's last W seqs.
class HorizonStamper {
 public:
  explicit HorizonStamper(std::size_t window) : window_(window) {}

  // Records `t` as the newest arrival of its stream and returns its
  // horizon: the seq of the other stream's W-th most recent arrival, or 0
  // while that stream has at most W arrivals.
  [[nodiscard]] std::uint64_t stamp(const stream::Tuple& t) {
    const bool is_r = t.origin == stream::StreamId::R;
    const ArrivalLog& other = is_r ? s_ : r_;
    const std::uint64_t horizon =
        other.arrivals > window_ ? other.seqs.front() : 0;
    ArrivalLog& own = is_r ? r_ : s_;
    own.push(t.seq);
    if (own.seqs.size() > window_) own.seqs.pop_front();
    return horizon;
  }

  // Arrival seqs held: at most 2W, independent of the run's length.
  [[nodiscard]] std::size_t retained() const noexcept {
    return r_.seqs.size() + s_.seqs.size();
  }

 private:
  std::size_t window_;
  ArrivalLog r_;
  ArrivalLog s_;
};

// Worker half of the exact-global window: the (seq, stamp) pairs of the
// arrivals a worker received in the current epoch, and the drop rule they
// give its engine's results. A result whose probe is not among them (a
// batch without stamps, or a pair emitted after its probe's epoch) passes
// unfiltered; the coordinator rejects the latter.
class StaleFilter {
 public:
  // Records an ingress batch. `stamps` is empty or parallel to `tuples`.
  void observe(std::span<const stream::Tuple> tuples,
               std::span<const std::uint64_t> stamps);

  // Appends to `out` every result of `fresh` whose stored tuple's seq is
  // at least its probe's stamp, and returns how many it dropped.
  std::uint64_t keep_in_window(std::span<const stream::ResultTuple> fresh,
                               std::vector<stream::ResultTuple>& out) const;

  // Forgets the epoch's arrivals: at the epoch's end, and when a restart
  // or rebuild discards a partial epoch.
  void clear() noexcept { epoch_.clear(); }

 private:
  struct Stamped {
    std::uint64_t seq;
    std::uint64_t stamp;
  };
  // Stamp of the recorded arrival `seq`, or 0 (keeps every pair) if the
  // epoch holds no such arrival.
  [[nodiscard]] std::uint64_t stamp_of(std::uint64_t seq) const;

  std::vector<Stamped> epoch_;  // in arrival order, so seqs increase
};

// Arrival-order accounting for a merger-side exact-global window filter:
// the seq-horizon rule of the header comment, checked per pair. The
// coordinator does not use it (its workers drop stale pairs against
// HorizonStamper's stamps); it is the reference those stamps are tested
// against.
//
// Epochs follow the coordinator's call order: observe() an epoch's
// arrivals, then pair_in_window() its results. The first observe() after
// a pair check starts a new epoch, whose results may only probe tuples
// observed in it; an epoch without pair checks runs on into the next. The
// first pair check fixes W. Per stream the tracker keeps the seqs of the
// last W arrivals before the epoch plus every arrival since, and for the
// epoch's arrivals alone the count of earlier other-stream arrivals.
class WindowTracker {
 public:
  // Pre-sizes the epoch log for `n` further observations.
  void reserve(std::size_t n) {
    epoch_.reserve((checked_ ? 0 : epoch_.size()) + n);
  }

  // Records one arrival. Seqs must strictly increase across the run.
  void observe(const stream::Tuple& t) {
    if (checked_) start_epoch();
    const bool is_r = t.origin == stream::StreamId::R;
    epoch_.push_back({t.seq, (is_r ? s_ : r_).arrivals});
    (is_r ? r_ : s_).push(t.seq);
  }

  // True iff the earlier tuple of the pair was still inside the later
  // (probing) tuple's opposite-stream window of `window` tuples when the
  // probe arrived — the reference oracle's probe-then-insert semantics.
  // `window` must be the same on every call. The probe must be an arrival
  // of the current epoch; a result that probes an earlier one (a worker
  // that emits pairs after their probe's epoch) throws PreconditionError.
  [[nodiscard]] bool pair_in_window(const stream::ResultTuple& result,
                                    std::size_t window) {
    if (window != window_) {
      HAL_CHECK(window_ == 0 && window > 0,
                "a WindowTracker filters for one window size W >= 1");
      window_ = window;
    }
    checked_ = true;
    const bool r_probes = result.r.seq > result.s.seq;
    const std::uint64_t probe = r_probes ? result.r.seq : result.s.seq;
    const std::uint64_t stored = r_probes ? result.s.seq : result.r.seq;
    const auto it = std::partition_point(
        epoch_.begin(), epoch_.end(),
        [probe](const Arrival& a) { return a.seq < probe; });
    HAL_CHECK(it != epoch_.end() && it->seq == probe,
              "result probes a tuple outside the epoch being filtered; the "
              "exact-global filter needs workers that emit every pair in its "
              "probe's epoch");
    if (it->before_other <= window_) return true;
    return stored >= (r_probes ? s_ : r_).seq_of(it->before_other - window_);
  }

  // Arrival seqs held: at most 2W plus the current epoch's arrivals once a
  // pair check has fixed W, and independent of the run's length.
  [[nodiscard]] std::size_t retained() const noexcept {
    return r_.seqs.size() + s_.seqs.size();
  }

 private:
  struct Arrival {
    std::uint64_t seq;
    std::uint64_t before_other;  // other-stream arrivals strictly before
  };

  void start_epoch() {
    // Probes of the new epoch saw at least the arrivals counted so far, so
    // no later check reads further back than W arrivals per stream.
    r_.keep_newest(window_);
    s_.keep_newest(window_);
    epoch_.clear();
    checked_ = false;
  }

  ArrivalLog r_;
  ArrivalLog s_;
  std::vector<Arrival> epoch_;  // arrivals since the epoch started
  std::size_t window_ = 0;      // W; 0 until the first pair check
  bool checked_ = false;        // a pair check ran since the last observe
};

}  // namespace hal::cluster
