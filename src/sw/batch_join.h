// Batch-parallel stream join — the GPU/Cell column of the accelerator
// spectrum (Figs. 1/3; the paper cites CellJoin [35] as the batched
// data-parallel realization of windowed stream joins).
//
// GPU-class accelerators process streams in *batches*: tuples accumulate
// until a batch fills, then a data-parallel kernel joins the whole batch
// against the windows at once. Compared to the per-tuple engines this
// trades latency for throughput — results for a tuple appear only when
// its batch completes, but the per-tuple synchronization cost is
// amortized over the batch (one dispatch per batch instead of one queue
// round trip per tuple), and the inner loop is a dense, vectorizable
// scan. That positioning (throughput above the CPU engines, latency above
// the FPGA engines) is exactly where Fig. 1 places GPUs.
//
// Semantics remain *exactly* the eager oracle's: within a batch, tuple i
// probes the window state plus the earlier-in-batch tuples of the
// opposite stream, so batching changes when results appear, never which.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/spsc_queue.h"
#include "core/window_image.h"
#include "obs/metrics.h"
#include "stream/join_spec.h"
#include "stream/tuple.h"
#include "sw/key_bucket_index.h"
#include "sw/probe_path.h"
#include "sw/splitjoin.h"  // SwRunReport

namespace hal::sw {

struct BatchJoinConfig {
  std::uint32_t num_workers = 4;  // "streaming multiprocessors"
  std::size_t window_size = 1 << 12;  // per stream
  std::size_t batch_size = 1 << 10;
  // Equi-probe strategy of the batch kernel (see sw/probe_path.h).
  // kIndexed probes the key bucket and filters the few candidates by the
  // logical-expiry cutoff; kScan runs the masked simd kernels over the
  // full dense lanes.
  ProbePath probe = ProbePath::kIndexed;
};

class BatchJoinEngine {
 public:
  BatchJoinEngine(BatchJoinConfig cfg, stream::JoinSpec spec);
  ~BatchJoinEngine();

  BatchJoinEngine(const BatchJoinEngine&) = delete;
  BatchJoinEngine& operator=(const BatchJoinEngine&) = delete;

  // Processes the tuples (padding the final partial batch is not needed —
  // it is flushed) and blocks until every batch completed.
  SwRunReport process(const std::vector<stream::Tuple>& tuples);

  // Same, but with an explicit dispatch granularity overriding the
  // configured batch_size for this call (still capped by the window —
  // larger batches would let in-batch pairs expire mid-batch). Batch size
  // changes when results appear, never which: the result multiset is
  // identical for every granularity, including 1 (the tuple-at-a-time
  // oracle).
  SwRunReport process_batched(const std::vector<stream::Tuple>& tuples,
                              std::size_t batch_size);

  // Latency of the first result of a batch: seconds from the arrival of a
  // batch's first tuple until the batch's results are available, at the
  // given sustained input rate (tuples/s). Computed from the measured
  // batch kernel time plus the accumulation delay — the structural
  // latency floor of batched processing.
  [[nodiscard]] double batch_latency_seconds(double input_rate_tps) const;

  [[nodiscard]] const std::vector<stream::ResultTuple>& results() const {
    return results_;
  }
  void clear_results() { results_.clear(); }
  // Moves the results out (results() is empty afterwards).
  [[nodiscard]] std::vector<stream::ResultTuple> take_results() {
    return std::exchange(results_, {});
  }
  [[nodiscard]] double last_kernel_seconds() const {
    return last_kernel_seconds_;
  }
  [[nodiscard]] const BatchJoinConfig& config() const noexcept { return cfg_; }

  // Checkpoint/restore of the windowed state (hal::recovery): per-slice
  // entries in age order with their arrival indices (the logical-expiry
  // cursors) plus the global per-stream turn counters. The engine is
  // quiescent between process() calls (batch dispatch is synchronous), so
  // no waiting is needed; the next dispatch's generation release/acquire
  // publishes restored state to the workers. restore_state returns false
  // (engine untouched) on a worker-count/window-size/shape mismatch.
  void snapshot_state(core::WindowImage& out);
  [[nodiscard]] bool restore_state(const core::WindowImage& image);

  // Publishes batch counts, a batch-fill histogram (how full each
  // dispatched batch was — partial flushes show up as underfilled
  // buckets) and kernel timing. Fill/result metrics are deterministic;
  // kernel seconds are wall-clock and therefore kRuntime. The fill
  // histogram accumulates records, so call at most once per registry.
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const;

 private:
  // A windowed tuple tagged with its per-stream arrival index, so the
  // batch kernel can apply *logical expiry*: a batch tuple at position i
  // must not see window entries that the earlier same-batch arrivals of
  // the candidate's stream would already have evicted.
  struct Entry {
    stream::Tuple tuple;
    std::uint64_t arrival = 0;
  };

  struct WorkerSlice {
    // Sub-windows owned by this worker (round-robin slices, as in
    // SplitJoin, so the union is the exact count-based window). The key
    // and arrival lanes mirror the Entry array in storage order so the
    // equi-join kernel can run a branchless count pass over dense arrays
    // (key match AND not logically expired) before the rare scalar
    // materialization pass; the bucket indices serve the kIndexed path.
    explicit WorkerSlice(std::size_t sub_window)
        : win_r(sub_window),
          win_s(sub_window),
          keys_r(sub_window, 0),
          keys_s(sub_window, 0),
          arrivals_r(sub_window, 0),
          arrivals_s(sub_window, 0),
          idx_r(sub_window),
          idx_s(sub_window),
          scratch(sub_window, 0) {}
    std::vector<Entry> win_r;
    std::vector<Entry> win_s;
    std::vector<std::uint32_t> keys_r;
    std::vector<std::uint32_t> keys_s;
    std::vector<std::uint64_t> arrivals_r;
    std::vector<std::uint64_t> arrivals_s;
    KeyBucketIndex idx_r;
    KeyBucketIndex idx_s;
    std::vector<std::uint32_t> scratch;  // probe_collect landing pad
    std::size_t head_r = 0;  // circular
    std::size_t head_s = 0;
    std::size_t size_r = 0;
    std::size_t size_s = 0;
    std::vector<stream::ResultTuple> out;
  };

  void worker_loop(std::uint32_t index);
  void run_batch(const stream::Tuple* data, std::size_t count);
  void insert_into_slice(WorkerSlice& slice, const stream::Tuple& t,
                         std::uint64_t arrival);

  BatchJoinConfig cfg_;
  stream::JoinSpec spec_;
  bool pure_key_equi_ = false;
  std::size_t sub_window_ = 0;

  std::vector<std::unique_ptr<WorkerSlice>> slices_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};

  // Batch dispatch: generation counter the workers watch; the batch data
  // pointer/count and the prefix counts are published before the
  // generation bump.
  const stream::Tuple* batch_data_ = nullptr;
  std::size_t batch_count_ = 0;
  std::vector<std::uint64_t> r_before_;  // R tuples at positions < i
  std::vector<std::uint64_t> s_before_;
  std::uint64_t batch_base_r_ = 0;  // per-stream counts before the batch
  std::uint64_t batch_base_s_ = 0;
  alignas(kCacheLineSize) std::atomic<std::uint64_t> generation_{0};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> done_count_{0};

  std::uint64_t count_r_ = 0;  // round-robin turn counters
  std::uint64_t count_s_ = 0;
  std::vector<stream::ResultTuple> results_;
  double last_kernel_seconds_ = 0.0;
  double total_kernel_seconds_ = 0.0;
  std::uint64_t batches_run_ = 0;
  std::vector<std::size_t> batch_fills_;  // per-batch tuple counts (obs)
};

}  // namespace hal::sw
