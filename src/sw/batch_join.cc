#include "sw/batch_join.h"

#include "common/assert.h"
#include "common/backoff.h"
#include "common/timer.h"

namespace hal::sw {

using stream::ResultTuple;
using stream::StreamId;
using stream::Tuple;

BatchJoinEngine::BatchJoinEngine(BatchJoinConfig cfg, stream::JoinSpec spec)
    : cfg_(cfg), spec_(std::move(spec)) {
  HAL_CHECK(cfg_.num_workers >= 1, "need at least one worker");
  HAL_CHECK(cfg_.batch_size >= 1, "batch size must be positive");
  HAL_CHECK(cfg_.window_size >= cfg_.num_workers,
            "window must hold at least one tuple per worker");
  HAL_CHECK(cfg_.window_size % cfg_.num_workers == 0,
            "window_size must be a multiple of num_workers");
  HAL_CHECK(cfg_.batch_size <= cfg_.window_size,
            "batch larger than the window would let in-batch pairs expire "
            "mid-batch");
  pure_key_equi_ = spec_.is_pure_key_equi();
  sub_window_ = cfg_.window_size / cfg_.num_workers;
  for (std::uint32_t i = 0; i < cfg_.num_workers; ++i) {
    slices_.push_back(std::make_unique<WorkerSlice>(sub_window_));
  }
  for (std::uint32_t i = 0; i < cfg_.num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

BatchJoinEngine::~BatchJoinEngine() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) w.join();
}

void BatchJoinEngine::insert_into_slice(WorkerSlice& slice, const Tuple& t,
                                        std::uint64_t arrival) {
  const bool is_r = t.origin == StreamId::R;
  auto& win = is_r ? slice.win_r : slice.win_s;
  auto& keys = is_r ? slice.keys_r : slice.keys_s;
  auto& arrivals = is_r ? slice.arrivals_r : slice.arrivals_s;
  KeyBucketIndex& idx = is_r ? slice.idx_r : slice.idx_s;
  std::size_t& head = is_r ? slice.head_r : slice.head_s;
  std::size_t& size = is_r ? slice.size_r : slice.size_s;
  if (size == sub_window_) {
    // Overwriting a resident entry: unhook its old key from the index.
    idx.remove(keys[head], static_cast<std::uint32_t>(head));
  }
  win[head] = Entry{t, arrival};
  keys[head] = t.key;
  arrivals[head] = arrival;
  idx.add(t.key, static_cast<std::uint32_t>(head));
  head = (head + 1) % sub_window_;
  if (size < sub_window_) ++size;
}

void BatchJoinEngine::worker_loop(std::uint32_t index) {
  WorkerSlice& slice = *slices_[index];
  std::uint64_t seen_generation = 0;
  SpinBackoff backoff;
  while (true) {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (gen == seen_generation) {
      if (stop_.load(std::memory_order_acquire)) return;
      backoff.pause();
      continue;
    }
    seen_generation = gen;
    backoff.reset();

    // The batch kernel: every batch tuple probes this worker's slices of
    // the pre-batch window state. Logical expiry: for the batch tuple at
    // position i, only window entries that would still be in the window —
    // arrival >= (pre-batch stream count + same-stream arrivals earlier
    // in the batch) - W — are valid candidates. Earlier-in-batch pairs
    // are handled centrally by the dispatcher.
    slice.out.clear();
    for (std::size_t i = 0; i < batch_count_; ++i) {
      // Hide the bucket-lane miss of the probe a few tuples ahead.
      constexpr std::size_t kPrefetchDistance = 8;
      if (pure_key_equi_ && cfg_.probe == ProbePath::kIndexed &&
          i + kPrefetchDistance < batch_count_) {
        const Tuple& ahead = batch_data_[i + kPrefetchDistance];
        (ahead.origin == StreamId::R ? slice.idx_s : slice.idx_r)
            .prefetch(ahead.key);
      }
      const Tuple& t = batch_data_[i];
      const bool is_r = t.origin == StreamId::R;
      const auto& win = is_r ? slice.win_s : slice.win_r;
      const std::size_t size = is_r ? slice.size_s : slice.size_r;
      const std::uint64_t opposite_total =
          is_r ? batch_base_s_ + s_before_[i] : batch_base_r_ + r_before_[i];
      const std::uint64_t cutoff = opposite_total > cfg_.window_size
                                       ? opposite_total - cfg_.window_size
                                       : 0;
      if (pure_key_equi_ && cfg_.probe == ProbePath::kIndexed) {
        // Bucket probe: gather the slots whose key matches, then filter
        // the few candidates by the logical-expiry cutoff in scalar code.
        const KeyBucketIndex& idx = is_r ? slice.idx_s : slice.idx_r;
        const std::uint64_t* arrivals =
            (is_r ? slice.arrivals_s : slice.arrivals_r).data();
        const std::size_t b = idx.bucket_of(t.key);
        const std::size_t hits =
            simd::probe_collect(idx.bucket_keys(b), idx.bucket_size(b),
                                t.key, slice.scratch.data());
        const std::uint32_t* bucket_slots = idx.bucket_slots(b);
        for (std::size_t j = 0; j < hits; ++j) {
          const std::uint32_t k = bucket_slots[slice.scratch[j]];
          if (arrivals[k] < cutoff) continue;  // logically expired
          const Entry& candidate = win[k];
          const Tuple& r = is_r ? t : candidate.tuple;
          const Tuple& s = is_r ? candidate.tuple : t;
          slice.out.push_back(ResultTuple{r, s});
        }
        continue;
      }
      if (pure_key_equi_) {
        // kScan: two-pass equi kernel over the dense key/arrival lanes —
        // an explicit-SIMD count (key match AND still resident), then a
        // materialization pass only when something hit.
        const std::uint32_t* keys =
            (is_r ? slice.keys_s : slice.keys_r).data();
        const std::uint64_t* arrivals =
            (is_r ? slice.arrivals_s : slice.arrivals_r).data();
        const std::size_t hits =
            simd::probe_count_since(keys, arrivals, size, t.key, cutoff);
        if (hits == 0) continue;
        const std::size_t found = simd::probe_collect_since(
            keys, arrivals, size, t.key, cutoff, slice.scratch.data());
        for (std::size_t j = 0; j < found; ++j) {
          const Entry& candidate = win[slice.scratch[j]];
          const Tuple& r = is_r ? t : candidate.tuple;
          const Tuple& s = is_r ? candidate.tuple : t;
          slice.out.push_back(ResultTuple{r, s});
        }
        continue;
      }
      for (std::size_t k = 0; k < size; ++k) {
        const Entry& candidate = win[k];
        if (candidate.arrival < cutoff) continue;  // logically expired
        const Tuple& r = is_r ? t : candidate.tuple;
        const Tuple& s = is_r ? candidate.tuple : t;
        if (spec_.matches(r, s)) slice.out.push_back(ResultTuple{r, s});
      }
    }
    done_count_.fetch_add(1, std::memory_order_release);
  }
}

void BatchJoinEngine::run_batch(const Tuple* data, std::size_t count) {
  Timer timer;
  batch_data_ = data;
  batch_count_ = count;
  batch_base_r_ = count_r_;
  batch_base_s_ = count_s_;
  r_before_.assign(count, 0);
  s_before_.assign(count, 0);
  std::uint64_t r_seen = 0;
  std::uint64_t s_seen = 0;
  for (std::size_t i = 0; i < count; ++i) {
    r_before_[i] = r_seen;
    s_before_[i] = s_seen;
    ++(data[i].origin == StreamId::R ? r_seen : s_seen);
  }
  done_count_.store(0, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);

  // Meanwhile handle the intra-batch pairs on the host thread: tuple i vs
  // earlier opposite-stream batch tuples (exact eager semantics).
  std::vector<ResultTuple> intra;
  for (std::size_t i = 0; i < count; ++i) {
    const Tuple& t = data[i];
    const bool is_r = t.origin == StreamId::R;
    for (std::size_t j = 0; j < i; ++j) {
      const Tuple& o = data[j];
      if ((o.origin == StreamId::R) == is_r) continue;
      const Tuple& r = is_r ? t : o;
      const Tuple& s = is_r ? o : t;
      if (spec_.matches(r, s)) intra.push_back(ResultTuple{r, s});
    }
  }

  {
    SpinBackoff backoff;
    while (done_count_.load(std::memory_order_acquire) < cfg_.num_workers) {
      backoff.pause();
    }
  }

  // Collect worker results, then append the batch to the windows
  // (round-robin slices, continuing the global turn counters).
  for (auto& slice : slices_) {
    results_.insert(results_.end(), slice->out.begin(), slice->out.end());
  }
  results_.insert(results_.end(), intra.begin(), intra.end());
  for (std::size_t i = 0; i < count; ++i) {
    const Tuple& t = data[i];
    std::uint64_t& turn = t.origin == StreamId::R ? count_r_ : count_s_;
    insert_into_slice(*slices_[turn % cfg_.num_workers], t, turn);
    ++turn;
  }

  last_kernel_seconds_ = timer.elapsed_seconds();
  total_kernel_seconds_ += last_kernel_seconds_;
  ++batches_run_;
  batch_fills_.push_back(count);
}

void BatchJoinEngine::snapshot_state(core::WindowImage& out) {
  out.num_cores = cfg_.num_workers;
  out.window_size = cfg_.window_size;
  out.count_r = count_r_;
  out.count_s = count_s_;
  out.results_emitted = results_.size();
  out.cores.assign(cfg_.num_workers, {});
  out.boundaries.clear();
  for (std::uint32_t i = 0; i < cfg_.num_workers; ++i) {
    const WorkerSlice& slice = *slices_[i];
    auto& dst = out.cores[i];
    // Age order, oldest first, with the per-entry arrival indices the
    // logical-expiry cutoff needs.
    const std::size_t oldest_r =
        slice.size_r < sub_window_ ? 0 : slice.head_r;
    for (std::size_t k = 0; k < slice.size_r; ++k) {
      const Entry& e = slice.win_r[(oldest_r + k) % sub_window_];
      dst.win_r.push_back(e.tuple);
      dst.arr_r.push_back(e.arrival);
    }
    const std::size_t oldest_s =
        slice.size_s < sub_window_ ? 0 : slice.head_s;
    for (std::size_t k = 0; k < slice.size_s; ++k) {
      const Entry& e = slice.win_s[(oldest_s + k) % sub_window_];
      dst.win_s.push_back(e.tuple);
      dst.arr_s.push_back(e.arrival);
    }
  }
}

bool BatchJoinEngine::restore_state(const core::WindowImage& image) {
  if (image.num_cores != cfg_.num_workers ||
      image.window_size != cfg_.window_size ||
      image.cores.size() != slices_.size() || !image.boundaries.empty()) {
    return false;
  }
  for (const auto& src : image.cores) {
    if (src.win_r.size() > sub_window_ || src.win_s.size() > sub_window_ ||
        src.arr_r.size() != src.win_r.size() ||
        src.arr_s.size() != src.win_s.size()) {
      return false;
    }
  }
  for (std::uint32_t i = 0; i < cfg_.num_workers; ++i) {
    WorkerSlice& slice = *slices_[i];
    const auto& src = image.cores[i];
    // Age-ordered images bulk-load into the dense lanes, then each bucket
    // index is rebuilt in one exact-reserve pass — the batched rebuild
    // path (no per-tuple hook/unhook as in the old tuple-at-a-time loop).
    const auto load_side = [&](const std::vector<Tuple>& win,
                               const std::vector<std::uint64_t>& arr,
                               std::vector<Entry>& dst_win,
                               std::vector<std::uint32_t>& dst_keys,
                               std::vector<std::uint64_t>& dst_arrivals,
                               KeyBucketIndex& idx, std::size_t& head,
                               std::size_t& size) {
      for (std::size_t k = 0; k < win.size(); ++k) {
        dst_win[k] = Entry{win[k], arr[k]};
        dst_keys[k] = win[k].key;
        dst_arrivals[k] = arr[k];
      }
      size = win.size();
      head = size % sub_window_;
      idx.rebuild(dst_keys.data(), size);
    };
    load_side(src.win_r, src.arr_r, slice.win_r, slice.keys_r,
              slice.arrivals_r, slice.idx_r, slice.head_r, slice.size_r);
    load_side(src.win_s, src.arr_s, slice.win_s, slice.keys_s,
              slice.arrivals_s, slice.idx_s, slice.head_s, slice.size_s);
  }
  count_r_ = image.count_r;
  count_s_ = image.count_s;
  return true;
}

SwRunReport BatchJoinEngine::process(const std::vector<Tuple>& tuples) {
  return process_batched(tuples, cfg_.batch_size);
}

SwRunReport BatchJoinEngine::process_batched(const std::vector<Tuple>& tuples,
                                             std::size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  HAL_CHECK(batch_size <= cfg_.window_size,
            "batch larger than the window would let in-batch pairs expire "
            "mid-batch");
  Timer timer;
  const std::uint64_t before = results_.size();
  for (std::size_t pos = 0; pos < tuples.size(); pos += batch_size) {
    const std::size_t count = std::min(batch_size, tuples.size() - pos);
    run_batch(tuples.data() + pos, count);
  }
  SwRunReport report;
  report.elapsed_seconds = timer.elapsed_seconds();
  report.tuples_processed = tuples.size();
  report.results_emitted = results_.size() - before;
  return report;
}

void BatchJoinEngine::collect_metrics(obs::MetricRegistry& registry,
                                      const std::string& prefix) const {
  registry.set_counter(prefix + "batches_run", batches_run_);
  registry.set_counter(prefix + "tuples_processed", count_r_ + count_s_);
  registry.set_counter(prefix + "results", results_.size());
  registry.set_gauge(prefix + "kernel.total_seconds", total_kernel_seconds_,
                     obs::Stability::kRuntime);
  registry.set_gauge(prefix + "kernel.last_seconds", last_kernel_seconds_,
                     obs::Stability::kRuntime);
  // Fill distribution: powers of two up to the configured batch size, so
  // a flushed partial batch is visibly separated from the full ones.
  std::vector<double> bounds;
  for (std::size_t b = 1; b < cfg_.batch_size; b *= 2) {
    bounds.push_back(static_cast<double>(b));
  }
  bounds.push_back(static_cast<double>(cfg_.batch_size));
  auto& fill = registry.histogram(prefix + "batch.fill", std::move(bounds),
                                  obs::Stability::kDeterministic);
  for (const std::size_t f : batch_fills_) {
    fill.record(static_cast<double>(f));
  }
}

double BatchJoinEngine::batch_latency_seconds(double input_rate_tps) const {
  HAL_CHECK(input_rate_tps > 0.0, "input rate must be positive");
  const double fill_seconds =
      static_cast<double>(cfg_.batch_size) / input_rate_tps;
  const double kernel = batches_run_ > 0
                            ? total_kernel_seconds_ /
                                  static_cast<double>(batches_run_)
                            : 0.0;
  // A batch's first tuple waits for the batch to fill, then for the
  // kernel; that is the structural latency floor of batched processing.
  return fill_seconds + kernel;
}

}  // namespace hal::sw
