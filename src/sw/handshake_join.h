// Software realization of the bi-flow model: handshake join on a
// multi-core CPU (Teubner & Mueller, SIGMOD'11 — the paper's [33]).
//
// One thread per join core, arranged in a chain. R tuples enter at core 0
// and flow right, S tuples enter at core N-1 and flow left. The shared
// state between adjacent cores lives on the *boundary*: a mutex (the
// paper's "locks needed to avoid race conditions") plus the two eviction
// queues whose occupants are still logically resident in their source
// core's window. A tuple entering a core through a boundary is scanned
// against the core's opposite sub-window and that boundary's opposite
// eviction queue while the boundary lock is held, which makes every R/S
// crossing observable exactly once — the same discipline the hardware
// HandshakeChannel enforces with its one-transfer-at-a-time lock.
//
// Lock acquisition is ordered (entry boundary first, eviction boundary
// second; R operations lean rightward, S leftward), which excludes
// deadlock cycles on the boundary mutexes.
//
// The eviction queues are bounded. Their occupants stay visible to
// crossing scans until the neighbor takes them in, so an unbounded queue
// behind a descheduled core would widen the window without limit. A core
// takes an R tuple in only when it can store it: its R sub-window has a
// free slot, the tuple expires at the right end, or the right eviction
// queue has room (S mirrors this leftward). Only core i pushes into
// boundary i's R queue and only core i+1 drains it, and the chain ends
// can always expire, so every direction drains end to end and the room
// checks cannot deadlock. A tuple is therefore visible for at most W plus
// (N-1) * input_queue_capacity arrivals of its stream.
//
// The batched data path (`process_batched`) feeds the chain ends one
// TupleBatch per SPSC push instead of one tuple; the consuming end core
// enters the batch's tuples in arrival order and retires the whole batch
// with a single release RMW on `pending_`. Entry scans use the same
// vectorized contiguous-key kernel as SplitJoin when the spec is a pure
// key equi-join. Batching widens the feeder decoupling (the ordering-
// precision knob below now counts batches, not tuples), which multi-core
// tests must absorb with the usual window tolerance; a 1-core chain
// consumes mixed batches in exact arrival order and stays an exact oracle.
// A chain end enters a batch tuple by tuple and parks the rest when its
// eviction queue fills; the tuples it entered retire together.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spsc_queue.h"
#include "core/window_image.h"
#include "obs/metrics.h"
#include "stream/join_spec.h"
#include "stream/tuple.h"
#include "stream/tuple_batch.h"
#include "sw/indexed_window.h"
#include "sw/probe_path.h"
#include "sw/splitjoin.h"  // SwRunReport

namespace hal::sw {

struct HandshakeJoinConfig {
  std::uint32_t num_cores = 4;
  std::size_t window_size = 1 << 12;  // per stream, summed across cores
  // Deliberately small: the feeder blocks on a full end queue, which keeps
  // the two streams' processing order close to their merged arrival order.
  // This is the software analogue of the hardware chain's rendezvous
  // backpressure, and the knob behind "adjustable ordering precision" in
  // the SplitJoin paper's terminology — a larger queue trades window-
  // semantics fidelity for feeder decoupling. The same bound caps each
  // boundary eviction queue (see above), the decoupling between
  // neighboring cores.
  std::size_t input_queue_capacity = 4;
  // Equi-probe strategy of the sub-window entry scan (see
  // sw/probe_path.h); boundary-queue scans stay scalar either way.
  ProbePath probe = ProbePath::kIndexed;
};

class HandshakeJoinEngine {
 public:
  HandshakeJoinEngine(HandshakeJoinConfig cfg, stream::JoinSpec spec);
  ~HandshakeJoinEngine();

  HandshakeJoinEngine(const HandshakeJoinEngine&) = delete;
  HandshakeJoinEngine& operator=(const HandshakeJoinEngine&) = delete;

  // Feeds the batch and blocks until the chain is fully drained (all
  // queues empty, all cores idle). Results accumulate across calls.
  SwRunReport process(const std::vector<stream::Tuple>& tuples);

  // Batched feed: slices `tuples` into arrival-order spans of
  // `batch_size`. With one core the mixed span enters as-is (exact
  // arrival order, same results as `process`); with more cores each span
  // is split per stream and handed to its chain end as one batch.
  SwRunReport process_batched(const std::vector<stream::Tuple>& tuples,
                              std::size_t batch_size);

  // Results collected so far (call only between process() calls).
  [[nodiscard]] std::vector<stream::ResultTuple> results() const;
  // Results collected since the previous call with the same cursor: each
  // core's new tail, in core order. `taken` holds one offset per core and
  // is advanced past the returned results (call between process() calls).
  [[nodiscard]] std::vector<stream::ResultTuple> results_since(
      std::vector<std::size_t>& taken) const;
  [[nodiscard]] const HandshakeJoinConfig& config() const noexcept {
    return cfg_;
  }

  // Checkpoint/restore of the chain state (hal::recovery): per-core
  // sub-windows in age order plus the boundary eviction queues (whose
  // occupants are still logically resident). Both wait for a drained chain
  // (pending_ == 0) before touching state; restore_state returns false
  // (chain untouched) on a core-count/window-size/shape mismatch.
  void snapshot_state(core::WindowImage& out);
  [[nodiscard]] bool restore_state(const core::WindowImage& image);

  // Publishes per-core probe/match/handover tallies. Everything here is
  // kRuntime: with more than one core the chain's window semantics depend
  // on thread interleaving (crossings race against arrivals), so even the
  // total result count varies run to run. Call only between process()
  // calls (quiescent chain).
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const;

 private:
  using BatchPtr = std::shared_ptr<const stream::TupleBatch>;

  struct Boundary {
    std::mutex mu;
    std::deque<stream::Tuple> r_q;  // evicted from core b, visible, → b+1
    std::deque<stream::Tuple> s_q;  // evicted from core b+1, visible, → b
    // Queue lengths, stored under `mu` after every push and pop, for the
    // producer's lock-free room check. The producer never reads a value
    // older than its own last push, so a stale read only overstates.
    std::atomic<std::size_t> r_len{0};
    std::atomic<std::size_t> s_len{0};
  };

  struct Core {
    Core(std::size_t sub_window, std::size_t queue_capacity, ProbePath probe)
        : win_r(sub_window, probe),
          win_s(sub_window, probe),
          input(queue_capacity),
          batch_input(queue_capacity) {}
    IndexedSoaWindow win_r;
    IndexedSoaWindow win_s;
    SpscQueue<stream::Tuple> input;  // driver feed (used at chain ends)
    SpscQueue<BatchPtr> batch_input;  // batched driver feed (chain ends)
    std::vector<stream::ResultTuple> local_results;
    // Core-thread-owned tallies, read at quiescence (published by the
    // pending_ release/acquire pair).
    std::uint64_t probes = 0;
    std::uint64_t entries = 0;
    std::uint64_t handovers = 0;
  };

  void core_loop(std::uint32_t i);
  // Scans `t` against core i's opposite residents (own sub-window plus the
  // boundary eviction queue `extra`, which must be guarded by a lock the
  // caller already holds when non-null), then stores and evicts.
  void enter(std::uint32_t i, const stream::Tuple& t,
             const std::deque<stream::Tuple>* extra);
  // Whether core i can store a tuple of the given stream without pushing
  // past the eviction-queue bound. Lock-free; called only by core i's
  // thread.
  [[nodiscard]] bool can_store(std::uint32_t i, bool is_r) const;

  HandshakeJoinConfig cfg_;
  stream::JoinSpec spec_;
  bool pure_key_equi_ = false;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<Boundary>> boundaries_;  // size N-1
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> results_count_{0};
  // Tuples in flight anywhere in the chain (fresh input + handovers);
  // zero ⇔ the chain is drained and all results are visible. Per-match
  // results_count_ adds are relaxed; the release edge that publishes them
  // (and local_results) is the fetch_sub on pending_ when an entry or a
  // whole batch retires, paired with process()'s acquire load of zero.
  std::atomic<std::uint64_t> pending_{0};
};

}  // namespace hal::sw
