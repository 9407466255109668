// Software realization of the uni-flow model: SplitJoin on a multi-core
// CPU (the system the paper benchmarks in Figs. 14d and 16; original
// design in [34], Najafi et al., ATC'16).
//
// Architecture mirrors the hardware engine: the caller thread plays the
// distribution network (broadcasting every tuple to every join core's
// inbox — the paper notes the distribution/result-gathering networks
// "consume a portion of the processors' capacity", which is why 28 of 32
// cores was their sweet spot); N join-core threads each own a sub-window
// pair and process every tuple, storing in round-robin turn; a collector
// thread plays the result gathering network, draining the outboxes.
//
// Communication uses bounded lock-free SPSC rings, the software analogue
// of the hardware FIFO links. Each hand-off rings the receiving thread's
// doorbell (common/backoff.h): a broadcast rings every core, a core's
// outbox push rings the collector, and a core that has caught up with
// every broadcast and the collector's collected count ring the caller,
// so a thread parked in an idle stretch wakes when its input lands. The
// sliding window lives in ordinary heap memory — the paper's point that
// the software variant pays main-memory traffic for every probe while the
// FPGA couples each sub-window to its core's BRAM.
//
// A 1-core engine has nothing to distribute or gather, so it has no
// distribution, core or collector threads: the caller's thread runs core
// 0's probe loop itself and settles its matches straight into the
// collected results. Every call blocks as before, and the results and the
// deterministic metrics are the same as a core thread's.
//
// Two data paths share the engine:
//   - tuple-at-a-time (`process`): one SPSC push per core per tuple, one
//     branchy probe per candidate. This is the correctness oracle and the
//     cost model of the paper's measured software baseline.
//   - batched (`process_batched`): arrival-order tuple batches travel as
//     one SPSC push per core per batch; each core runs a vectorizable
//     probe kernel over its contiguous sub-window key lane and flushes
//     buffered matches with one outbox push + one counter add per batch.
//     Per-tuple semantics (probe-then-insert, round-robin store) are
//     preserved exactly, so the result multiset and the deterministic obs
//     projection are byte-identical to the oracle path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/spsc_queue.h"
#include "common/stats.h"
#include "core/window_image.h"
#include "obs/metrics.h"
#include "stream/join_spec.h"
#include "stream/tuple.h"
#include "stream/tuple_batch.h"
#include "sw/indexed_window.h"
#include "sw/probe_path.h"

namespace hal::sw {

struct SplitJoinConfig {
  std::uint32_t num_cores = 4;
  // Per-stream window size summed across cores; multiple of num_cores.
  std::size_t window_size = 1 << 12;
  std::size_t queue_capacity = 1 << 10;
  // Collect full result tuples (tests) or count only (benchmarks, where
  // materializing hundreds of millions of results would swamp memory).
  bool collect_results = true;
  // Equi-probe strategy of the batched path (see sw/probe_path.h). The
  // tuple-at-a-time oracle is unaffected.
  ProbePath probe = ProbePath::kIndexed;
};

struct SwRunReport {
  double elapsed_seconds = 0.0;
  std::uint64_t tuples_processed = 0;
  std::uint64_t results_emitted = 0;
  [[nodiscard]] double throughput_tuples_per_sec() const noexcept {
    return elapsed_seconds > 0.0
               ? static_cast<double>(tuples_processed) / elapsed_seconds
               : 0.0;
  }
};

class SplitJoinEngine {
 public:
  SplitJoinEngine(SplitJoinConfig cfg, stream::JoinSpec spec);
  ~SplitJoinEngine();

  SplitJoinEngine(const SplitJoinEngine&) = delete;
  SplitJoinEngine& operator=(const SplitJoinEngine&) = delete;

  // Feeds the batch through the engine and blocks until every tuple is
  // fully processed and every result collected.
  SwRunReport process(const std::vector<stream::Tuple>& tuples);

  // Batched data path: slices `tuples` into arrival-order TupleBatches of
  // `batch_size` and feeds each as a unit (batch_size == 0 or 1 degrades
  // to per-tuple batches, still through the batched machinery). Blocks
  // until quiescent, like `process`. Results and deterministic metrics
  // are identical to `process` on the same input.
  SwRunReport process_batched(const std::vector<stream::Tuple>& tuples,
                              std::size_t batch_size);

  // Warm-start: loads tuples into the sliding windows (round-robin
  // storage) without streaming them, so large-window benches start from
  // the steady state the paper measures. Must be called while the engine
  // is idle and before any subsequent `process` call that should observe
  // the prefilled windows (the inbox push/pop pair publishes the writes).
  void prefill(const std::vector<stream::Tuple>& tuples);

  // Checkpoint/restore of the windowed state (hal::recovery). Both block
  // until the engine is quiescent, then touch the core-owned windows from
  // the caller thread — sound under the same publication argument as
  // `prefill` (the next inbox push/pop pair publishes the writes).
  // snapshot captures per-core windows in age order plus the round-robin
  // store counters; restore_state replaces them, returning false (engine
  // untouched) on a core-count/window-size/shape mismatch.
  void snapshot_state(core::WindowImage& out);
  [[nodiscard]] bool restore_state(const core::WindowImage& image);

  // Latency of a single tuple against the current window contents: feeds
  // one tuple and blocks until every core finished its scan and all its
  // results were collected. Call after `process()` has filled the windows.
  double measure_tuple_latency_seconds(const stream::Tuple& t);

  [[nodiscard]] const std::vector<stream::ResultTuple>& results() const {
    return collected_;
  }
  void clear_results() { collected_.clear(); }
  // Moves the collected results out (results() is empty afterwards).
  [[nodiscard]] std::vector<stream::ResultTuple> take_results() {
    return std::exchange(collected_, {});
  }
  [[nodiscard]] std::uint64_t result_count() const {
    return result_count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const SplitJoinConfig& config() const noexcept { return cfg_; }

  // Publishes per-core probe/match counters (deterministic: every core
  // scans its full sub-window for every tuple regardless of thread
  // timing), inbox-depth high-water marks and the parks of every core,
  // collector and caller wait (runtime: they depend on scheduling races).
  // Call only while the engine is idle.
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const;

 private:
  using BatchPtr = std::shared_ptr<const stream::TupleBatch>;

  struct Core {
    Core(std::size_t sub_window, std::size_t queue_capacity, ProbePath probe)
        : win_r(sub_window, probe),
          win_s(sub_window, probe),
          inbox(queue_capacity),
          batch_inbox(queue_capacity),
          outbox(queue_capacity),
          batch_outbox(queue_capacity) {}
    IndexedSoaWindow win_r;
    IndexedSoaWindow win_s;
    SpscQueue<stream::Tuple> inbox;        // tuple-at-a-time path
    SpscQueue<BatchPtr> batch_inbox;       // batched path
    SpscQueue<stream::ResultTuple> outbox;
    SpscQueue<std::vector<stream::ResultTuple>> batch_outbox;
    std::uint64_t count_r = 0;
    std::uint64_t count_s = 0;
    std::vector<stream::ResultTuple> match_buf;  // core-owned flush buffer
    // Core-thread-owned observability tallies; read at quiescence only
    // (the processed counter's release/acquire pair publishes them).
    std::uint64_t probes = 0;
    std::uint64_t matches = 0;
    std::size_t inbox_high_water = 0;
    alignas(kCacheLineSize) std::atomic<std::uint64_t> processed{0};
    alignas(kCacheLineSize) Doorbell bell;  // broadcasts ring the core
  };

  void core_loop(std::uint32_t index);
  void process_one(Core& core, std::uint32_t index, const stream::Tuple& t);
  void process_batch(Core& core, std::uint32_t index,
                     const stream::TupleBatch& batch);
  // Where no collector takes them (an inline core, or count-only batches):
  // adds `n` matches to both result counters and, when collecting, appends
  // `results` to collected_.
  void settle(std::span<const stream::ResultTuple> results, std::uint64_t n);
  void ring_caller_if_caught_up(std::uint64_t processed);
  void collector_loop();
  void broadcast(const stream::Tuple& t);
  void broadcast_batch(const BatchPtr& batch);
  void wait_quiescent();

  SplitJoinConfig cfg_;
  stream::JoinSpec spec_;
  bool pure_key_equi_ = false;  // fixed at construction; spec_ is immutable
  bool inline_ = false;         // one core, run on the caller's thread
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::thread> threads_;
  std::thread collector_;

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> broadcast_count_{0};
  std::atomic<std::uint64_t> result_count_{0};
  std::atomic<std::uint64_t> collected_count_{0};
  // Collector-thread-owned while running; the caller's when inline_.
  std::vector<stream::ResultTuple> collected_;
  Doorbell collector_bell_;  // outbox pushes ring the collector
  Doorbell caller_bell_;     // processed and collected adds ring the caller
};

}  // namespace hal::sw
