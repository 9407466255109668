#include "sw/splitjoin.h"

#include <chrono>
#include <span>
#include <utility>

#include "common/assert.h"
#include "common/backoff.h"
#include "common/timer.h"

namespace hal::sw {

using stream::ResultTuple;
using stream::StreamId;
using stream::Tuple;
using stream::TupleBatch;

SplitJoinEngine::SplitJoinEngine(SplitJoinConfig cfg, stream::JoinSpec spec)
    : cfg_(cfg), spec_(std::move(spec)) {
  HAL_CHECK(cfg_.num_cores >= 1, "need at least one join core");
  HAL_CHECK(cfg_.window_size >= cfg_.num_cores,
            "window must hold at least one tuple per core");
  HAL_CHECK(cfg_.window_size % cfg_.num_cores == 0,
            "window_size must be a multiple of num_cores");
  pure_key_equi_ = spec_.is_pure_key_equi();
  inline_ = cfg_.num_cores == 1;
  const std::size_t sub_window = cfg_.window_size / cfg_.num_cores;
  // An inline core's queues never carry anything.
  const std::size_t queue_capacity = inline_ ? 1 : cfg_.queue_capacity;
  cores_.reserve(cfg_.num_cores);
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    cores_.push_back(
        std::make_unique<Core>(sub_window, queue_capacity, cfg_.probe));
  }
  if (inline_) return;
  threads_.reserve(cfg_.num_cores);
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    threads_.emplace_back([this, i] { core_loop(i); });
  }
  collector_ = std::thread([this] { collector_loop(); });
}

SplitJoinEngine::~SplitJoinEngine() {
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads_) t.join();
  if (collector_.joinable()) collector_.join();
}

void SplitJoinEngine::process_one(Core& core, std::uint32_t index,
                                  const Tuple& t) {
  const bool is_r = t.origin == StreamId::R;
  const IndexedSoaWindow& opposite = is_r ? core.win_s : core.win_r;
  // +1 for the tuple just popped: the depth the broadcaster saw.
  const std::size_t depth = core.inbox.size_approx() + 1;
  if (depth > core.inbox_high_water) core.inbox_high_water = depth;
  core.probes += opposite.size();
  // Probe: nested-loop scan over the local sub-window, exactly the
  // hardware Processing Core's job on this fraction of the window.
  for (std::size_t i = 0; i < opposite.size(); ++i) {
    const Tuple& candidate = opposite.at(i);
    const Tuple& r = is_r ? t : candidate;
    const Tuple& s = is_r ? candidate : t;
    if (spec_.matches(r, s)) {
      ++core.matches;
      const ResultTuple result{r, s};
      if (inline_) {
        settle({&result, 1}, 1);
      } else {
        SpinBackoff backoff;  // gatherer backpressure
        while (!core.outbox.try_push(result)) backoff.pause();
        collector_bell_.ring();
        result_count_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Store: round-robin turn counting, identical to the Storage Core.
  IndexedSoaWindow& own = is_r ? core.win_r : core.win_s;
  std::uint64_t& count = is_r ? core.count_r : core.count_s;
  if (count % cfg_.num_cores == index) own.insert(t);
  ++count;

  // The size-1 "batch boundary": this release RMW publishes the relaxed
  // result_count_ add and the window/tally writes above.
  ring_caller_if_caught_up(
      core.processed.fetch_add(1, std::memory_order_release) + 1);
}

void SplitJoinEngine::process_batch(Core& core, std::uint32_t index,
                                    const TupleBatch& batch) {
  const bool count_only = !cfg_.collect_results;
  core.match_buf.clear();
  std::size_t batch_matches = 0;
  const std::size_t n = batch.size();
  const std::size_t depth = core.batch_inbox.size_approx() + 1;
  if (depth > core.inbox_high_water) core.inbox_high_water = depth;
  // Tuples are consumed in arrival order with the same probe-then-insert
  // step as process_one — batching changes the dispatch and flush
  // granularity, never the per-tuple semantics, which is what keeps the
  // deterministic obs projection byte-identical to the oracle path.
  for (std::size_t i = 0; i < n; ++i) {
    // Hide the bucket-lane miss of a probe a few tuples ahead (no-op on
    // the kScan path).
    constexpr std::size_t kPrefetchDistance = 8;
    if (i + kPrefetchDistance < n) {
      const bool pf_r = batch.origin_at(i + kPrefetchDistance) == StreamId::R;
      (pf_r ? core.win_s : core.win_r)
          .prefetch_equal(batch.key_at(i + kPrefetchDistance));
    }
    const bool is_r = batch.origin_at(i) == StreamId::R;
    const IndexedSoaWindow& opposite = is_r ? core.win_s : core.win_r;
    core.probes += opposite.size();
    std::size_t hits = 0;
    if (pure_key_equi_ && count_only) {
      // Pure count kernel: one vectorized pass, nothing materialized.
      hits = opposite.count_equal(batch.key_at(i));
    } else if (pure_key_equi_) {
      const Tuple t = batch.tuple_at(i);
      hits = opposite.collect_equal(batch.key_at(i), [&](const Tuple& c) {
        core.match_buf.push_back(is_r ? ResultTuple{t, c}
                                      : ResultTuple{c, t});
      });
    } else {
      const Tuple t = batch.tuple_at(i);
      hits = opposite.collect_matching(
          [&](const Tuple& c) {
            const Tuple& r = is_r ? t : c;
            const Tuple& s = is_r ? c : t;
            return spec_.matches(r, s);
          },
          [&](const Tuple& c) {
            if (!count_only) {
              core.match_buf.push_back(is_r ? ResultTuple{t, c}
                                            : ResultTuple{c, t});
            }
          });
    }
    core.matches += hits;
    batch_matches += hits;

    IndexedSoaWindow& own = is_r ? core.win_r : core.win_s;
    std::uint64_t& count = is_r ? core.count_r : core.count_s;
    if (count % cfg_.num_cores == index) own.insert(batch.tuple_at(i));
    ++count;
  }
  // Flush: one outbox push + one relaxed counter add for the whole batch.
  // In count-only mode the collector is bypassed entirely — the core
  // settles both counters itself (they are multi-producer atomics; the
  // "collector-owned" convention only applies to the materializing path).
  // An inline core settles its matches too: it runs on the caller's
  // thread, which owns collected_.
  if (batch_matches > 0) {
    if (count_only || inline_) {
      settle(core.match_buf, batch_matches);
    } else {
      std::vector<ResultTuple> flush;
      flush.swap(core.match_buf);
      SpinBackoff backoff;  // gatherer backpressure
      while (!core.batch_outbox.try_push(std::move(flush))) backoff.pause();
      collector_bell_.ring();
      result_count_.fetch_add(batch_matches, std::memory_order_relaxed);
    }
  }
  // Batch boundary: one release RMW publishes everything above.
  ring_caller_if_caught_up(
      core.processed.fetch_add(n, std::memory_order_release) + n);
}

void SplitJoinEngine::settle(std::span<const ResultTuple> results,
                             std::uint64_t n) {
  if (cfg_.collect_results) {
    collected_.insert(collected_.end(), results.begin(), results.end());
  }
  result_count_.fetch_add(n, std::memory_order_relaxed);
  collected_count_.fetch_add(n, std::memory_order_relaxed);
}

// wait_quiescent waits for every core to process every broadcast so far,
// so a ring before a core has caught up would wake the caller for nothing
// (on the tuple path, once per tuple). broadcast_count_ counts a broadcast
// only after it reached every inbox, so a core still behind it has more
// input queued and rings once it has caught up.
void SplitJoinEngine::ring_caller_if_caught_up(std::uint64_t processed) {
  if (processed >= broadcast_count_.load(std::memory_order_acquire)) {
    caller_bell_.ring();
  }
}

void SplitJoinEngine::core_loop(std::uint32_t index) {
  Core& core = *cores_[index];
  SpinBackoff backoff(core.bell);
  while (true) {
    bool did_work = false;
    BatchPtr batch;
    if (core.batch_inbox.try_pop(batch)) {
      process_batch(core, index, *batch);
      did_work = true;
    }
    Tuple t;
    if (core.inbox.try_pop(t)) {
      process_one(core, index, t);
      did_work = true;
    }
    if (did_work) {
      backoff.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    backoff.pause();
  }
}

void SplitJoinEngine::collector_loop() {
  SpinBackoff backoff(collector_bell_);
  while (true) {
    std::size_t drained = 0;
    for (auto& core : cores_) {
      std::uint64_t from_core = 0;
      ResultTuple result;
      while (core->outbox.try_pop(result)) {
        ++from_core;
        if (cfg_.collect_results) collected_.push_back(result);
      }
      std::vector<ResultTuple> flush;
      while (core->batch_outbox.try_pop(flush)) {
        from_core += flush.size();
        if (cfg_.collect_results) {
          collected_.insert(collected_.end(), flush.begin(), flush.end());
        }
      }
      if (from_core > 0) {
        // One release add per drained core: publishes the collected_
        // appends to whoever acquires collected_count_ (wait_quiescent).
        collected_count_.fetch_add(from_core, std::memory_order_release);
        caller_bell_.ring();
        drained += from_core;
      }
    }
    if (drained > 0) {
      backoff.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    backoff.pause();
  }
}

void SplitJoinEngine::broadcast(const Tuple& t) {
  if (inline_) {
    broadcast_count_.fetch_add(1, std::memory_order_relaxed);
    process_one(*cores_[0], 0, t);
    return;
  }
  for (auto& core : cores_) {
    SpinBackoff backoff;
    while (!core->inbox.try_push(t)) backoff.pause();
    core->bell.ring();
  }
  broadcast_count_.fetch_add(1, std::memory_order_release);
}

void SplitJoinEngine::broadcast_batch(const BatchPtr& batch) {
  if (inline_) {
    broadcast_count_.fetch_add(batch->size(), std::memory_order_relaxed);
    process_batch(*cores_[0], 0, *batch);
    return;
  }
  for (auto& core : cores_) {
    SpinBackoff backoff;
    BatchPtr copy = batch;  // refcount bump, not a data copy
    while (!core->batch_inbox.try_push(std::move(copy))) backoff.pause();
    core->bell.ring();
  }
  broadcast_count_.fetch_add(batch->size(), std::memory_order_release);
}

// Ordering contract. Per-match result_count_ adds and per-tuple tallies
// are relaxed / plain; the only release edges on the processing side are
// (a) each core's `processed.fetch_add(n, release)` at its batch boundary
// (n == 1 on the tuple path) and (b) the collector's per-sweep
// `collected_count_` release add. Correspondingly this function:
//   1. acquires `processed` per core until it reaches broadcast_count_ —
//      that acquire pairs with (a) and makes every relaxed result_count_
//      add, window write, and obs tally of those tuples visible here, so
//      result_count_ read afterwards is final for this quiescent period;
//   2. acquires `collected_count_` until it catches result_count_ — that
//      pairs with (b) and publishes the collector's `collected_` appends
//      to the caller.
// A release RMW (not a standalone fence) is used at the batch boundary so
// the contract is visible to TSan, which does not model bare fences.
void SplitJoinEngine::wait_quiescent() {
  const std::uint64_t target = broadcast_count_.load(std::memory_order_acquire);
  SpinBackoff backoff(caller_bell_);
  for (auto& core : cores_) {
    while (core->processed.load(std::memory_order_acquire) < target) {
      backoff.pause();
    }
    backoff.reset();
  }
  while (collected_count_.load(std::memory_order_acquire) <
         result_count_.load(std::memory_order_acquire)) {
    backoff.pause();
  }
}

void SplitJoinEngine::prefill(const std::vector<Tuple>& tuples) {
  wait_quiescent();
  // Deal round-robin per stream into per-core age-ordered runs, then
  // bulk-load each sub-window (one exact-reserve index rebuild per core
  // instead of a hook/unhook per tuple — the elastic rebuild hot path).
  std::vector<std::vector<Tuple>> runs_r(cfg_.num_cores);
  std::vector<std::vector<Tuple>> runs_s(cfg_.num_cores);
  std::uint64_t idx_r = 0;
  std::uint64_t idx_s = 0;
  for (const Tuple& t : tuples) {
    const bool is_r = t.origin == StreamId::R;
    std::uint64_t& idx = is_r ? idx_r : idx_s;
    (is_r ? runs_r : runs_s)[idx % cfg_.num_cores].push_back(t);
    ++idx;
  }
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    Core& core = *cores_[i];
    core.win_r.load(runs_r[i].data(), runs_r[i].size());
    core.win_s.load(runs_s[i].data(), runs_s[i].size());
    core.count_r = idx_r;
    core.count_s = idx_s;
  }
}

void SplitJoinEngine::snapshot_state(core::WindowImage& out) {
  wait_quiescent();
  out.num_cores = cfg_.num_cores;
  out.window_size = cfg_.window_size;
  // Every core tracks the same global per-stream counts (it sees every
  // tuple and stores on its round-robin turn), so core 0's are canonical.
  out.count_r = cores_[0]->count_r;
  out.count_s = cores_[0]->count_s;
  out.results_emitted = collected_count_.load(std::memory_order_acquire);
  out.cores.assign(cfg_.num_cores, {});
  out.boundaries.clear();
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    const Core& core = *cores_[i];
    auto& dst = out.cores[i];
    dst.win_r.reserve(core.win_r.size());
    for (std::size_t k = 0; k < core.win_r.size(); ++k) {
      dst.win_r.push_back(core.win_r.at(k));
    }
    dst.win_s.reserve(core.win_s.size());
    for (std::size_t k = 0; k < core.win_s.size(); ++k) {
      dst.win_s.push_back(core.win_s.at(k));
    }
  }
}

bool SplitJoinEngine::restore_state(const core::WindowImage& image) {
  if (image.num_cores != cfg_.num_cores ||
      image.window_size != cfg_.window_size ||
      image.cores.size() != cores_.size() || !image.boundaries.empty()) {
    return false;
  }
  const std::size_t sub_window = cfg_.window_size / cfg_.num_cores;
  for (const auto& src : image.cores) {
    if (src.win_r.size() > sub_window || src.win_s.size() > sub_window ||
        !src.arr_r.empty() || !src.arr_s.empty()) {
      return false;
    }
  }
  wait_quiescent();
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    Core& core = *cores_[i];
    const auto& src = image.cores[i];
    // Image windows are age-ordered; bulk-load rebuilds lanes + index in
    // one pass (recovery restores sit on the supervised-restart MTTR
    // path).
    core.win_r.load(src.win_r.data(), src.win_r.size());
    core.win_s.load(src.win_s.data(), src.win_s.size());
    core.count_r = image.count_r;
    core.count_s = image.count_s;
  }
  return true;
}

SwRunReport SplitJoinEngine::process(const std::vector<Tuple>& tuples) {
  Timer timer;
  for (const Tuple& t : tuples) broadcast(t);
  wait_quiescent();
  SwRunReport report;
  report.elapsed_seconds = timer.elapsed_seconds();
  report.tuples_processed = tuples.size();
  report.results_emitted = collected_count_.load(std::memory_order_acquire);
  return report;
}

SwRunReport SplitJoinEngine::process_batched(const std::vector<Tuple>& tuples,
                                             std::size_t batch_size) {
  const std::size_t step = batch_size == 0 ? 1 : batch_size;
  Timer timer;
  for (std::size_t pos = 0; pos < tuples.size(); pos += step) {
    const std::size_t count = std::min(step, tuples.size() - pos);
    auto batch = std::make_shared<TupleBatch>(
        TupleBatch::from(std::span(tuples.data() + pos, count)));
    broadcast_batch(batch);
  }
  wait_quiescent();
  SwRunReport report;
  report.elapsed_seconds = timer.elapsed_seconds();
  report.tuples_processed = tuples.size();
  report.results_emitted = collected_count_.load(std::memory_order_acquire);
  return report;
}

void SplitJoinEngine::collect_metrics(obs::MetricRegistry& registry,
                                      const std::string& prefix) const {
  std::uint64_t probes = 0;
  std::uint64_t matches = 0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const Core& core = *cores_[i];
    const std::string core_prefix =
        prefix + "core." + std::to_string(i) + ".";
    registry.set_counter(core_prefix + "probes", core.probes);
    registry.set_counter(core_prefix + "matches", core.matches);
    registry.set_counter(core_prefix + "inbox.high_water",
                         core.inbox_high_water, obs::Stability::kRuntime);
    probes += core.probes;
    matches += core.matches;
  }
  registry.set_counter(prefix + "probes", probes);
  registry.set_counter(prefix + "matches", matches);
  registry.set_counter(prefix + "tuples_broadcast",
                       broadcast_count_.load(std::memory_order_acquire));
  registry.set_counter(prefix + "results",
                       collected_count_.load(std::memory_order_acquire));
  std::uint64_t parks = collector_bell_.parks() + caller_bell_.parks();
  std::uint64_t park_timeouts =
      collector_bell_.park_timeouts() + caller_bell_.park_timeouts();
  for (const auto& core : cores_) {
    parks += core->bell.parks();
    park_timeouts += core->bell.park_timeouts();
  }
  registry.set_counter(prefix + "parks", parks, obs::Stability::kRuntime);
  registry.set_counter(prefix + "park_timeouts", park_timeouts,
                       obs::Stability::kRuntime);
}

double SplitJoinEngine::measure_tuple_latency_seconds(const Tuple& t) {
  wait_quiescent();
  Timer timer;
  broadcast(t);
  wait_quiescent();
  return timer.elapsed_seconds();
}

}  // namespace hal::sw
