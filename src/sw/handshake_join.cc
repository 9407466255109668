#include "sw/handshake_join.h"

#include <span>

#include "common/assert.h"
#include "common/backoff.h"
#include "common/timer.h"

namespace hal::sw {

using stream::StreamId;
using stream::Tuple;
using stream::TupleBatch;

HandshakeJoinEngine::HandshakeJoinEngine(HandshakeJoinConfig cfg,
                                         stream::JoinSpec spec)
    : cfg_(cfg), spec_(std::move(spec)) {
  HAL_CHECK(cfg_.num_cores >= 1, "need at least one join core");
  HAL_CHECK(cfg_.window_size >= cfg_.num_cores,
            "window must hold at least one tuple per core");
  HAL_CHECK(cfg_.window_size % cfg_.num_cores == 0,
            "window_size must be a multiple of num_cores");
  HAL_CHECK(cfg_.input_queue_capacity >= 1,
            "input_queue_capacity must be at least 1 (it also bounds the "
            "eviction queues)");
  pure_key_equi_ = spec_.is_pure_key_equi();
  const std::size_t sub_window = cfg_.window_size / cfg_.num_cores;
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(
        sub_window, cfg_.input_queue_capacity, cfg_.probe));
  }
  for (std::uint32_t i = 0; i + 1 < cfg_.num_cores; ++i) {
    boundaries_.push_back(std::make_unique<Boundary>());
  }
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    threads_.emplace_back([this, i] { core_loop(i); });
  }
}

HandshakeJoinEngine::~HandshakeJoinEngine() {
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads_) t.join();
}

void HandshakeJoinEngine::enter(std::uint32_t i, const Tuple& t,
                                const std::deque<Tuple>* extra) {
  Core& core = *cores_[i];
  const bool is_r = t.origin == StreamId::R;

  // Entry scan: opposite sub-window plus the still-resident occupants of
  // the opposite eviction queue on the entry boundary. The sub-window leg
  // takes the vectorized contiguous-key kernel on pure equi-joins; the
  // per-match counter add is relaxed (see pending_'s ordering note).
  const IndexedSoaWindow& opposite = is_r ? core.win_s : core.win_r;
  std::uint64_t hits = 0;
  auto emit = [&](const Tuple& candidate) {
    const Tuple& r = is_r ? t : candidate;
    const Tuple& s = is_r ? candidate : t;
    core.local_results.push_back(stream::ResultTuple{r, s});
  };
  if (pure_key_equi_) {
    hits += opposite.collect_equal(t.key, emit);
  } else {
    hits += opposite.collect_matching(
        [&](const Tuple& candidate) {
          const Tuple& r = is_r ? t : candidate;
          const Tuple& s = is_r ? candidate : t;
          return spec_.matches(r, s);
        },
        emit);
  }
  if (extra != nullptr) {
    for (const Tuple& candidate : *extra) {
      const Tuple& r = is_r ? t : candidate;
      const Tuple& s = is_r ? candidate : t;
      if (spec_.matches(r, s)) {
        emit(candidate);
        ++hits;
      }
    }
  }
  if (hits > 0) results_count_.fetch_add(hits, std::memory_order_relaxed);
  core.probes += opposite.size() + (extra != nullptr ? extra->size() : 0);
  ++core.entries;

  // Store + evict. R evicts rightward onto boundary[i], S leftward onto
  // boundary[i-1]; past the chain ends the tuple expires.
  IndexedSoaWindow& own = is_r ? core.win_r : core.win_s;
  if (own.size() == own.capacity()) {
    const Tuple evicted = own.oldest();
    if (is_r && i + 1 < cfg_.num_cores) {
      // The handover stays in flight: count it before this entry retires
      // so the pending count can never dip to zero mid-chain.
      pending_.fetch_add(1, std::memory_order_relaxed);
      ++core.handovers;
      Boundary& b = *boundaries_[i];
      std::lock_guard<std::mutex> lk(b.mu);
      b.r_q.push_back(evicted);
      b.r_len.store(b.r_q.size(), std::memory_order_relaxed);
    } else if (!is_r && i > 0) {
      pending_.fetch_add(1, std::memory_order_relaxed);
      ++core.handovers;
      Boundary& b = *boundaries_[i - 1];
      std::lock_guard<std::mutex> lk(b.mu);
      b.s_q.push_back(evicted);
      b.s_len.store(b.s_q.size(), std::memory_order_relaxed);
    }
    // else: traversed the full window — expired.
  }
  own.insert(t);
}

bool HandshakeJoinEngine::can_store(std::uint32_t i, bool is_r) const {
  const Core& core = *cores_[i];
  const IndexedSoaWindow& own = is_r ? core.win_r : core.win_s;
  if (own.size() < own.capacity()) return true;  // nothing to evict
  if (is_r) {
    if (i + 1 == cfg_.num_cores) return true;  // expires at the right end
    return boundaries_[i]->r_len.load(std::memory_order_relaxed) <
           cfg_.input_queue_capacity;
  }
  if (i == 0) return true;  // expires at the left end
  return boundaries_[i - 1]->s_len.load(std::memory_order_relaxed) <
         cfg_.input_queue_capacity;
}

void HandshakeJoinEngine::core_loop(std::uint32_t i) {
  Core& core = *cores_[i];
  const bool leftmost = i == 0;
  const bool rightmost = i + 1 == cfg_.num_cores;
  bool prefer_r = true;

  // Every completed entry releases one unit of `pending_`; the matching
  // acquisition happened either in process() (fresh input) or in enter()
  // (handover). The release ordering makes all of the entry's effects —
  // stored results included — visible to whoever observes pending_ == 0.
  // A whole input batch retires with a single release RMW: its batch
  // boundary, which is what lets the per-match adds above stay relaxed.
  auto retire = [this](std::uint64_t n) {
    pending_.fetch_sub(n, std::memory_order_release);
  };

  // Input batch being entered; a full eviction queue parks the rest of it
  // here until the neighbor makes room.
  BatchPtr batch;
  std::size_t batch_pos = 0;

  SpinBackoff backoff;
  while (true) {
    bool did_work = false;
    const bool r_first = prefer_r;
    prefer_r = !prefer_r;

    // Fresh input at the chain ends (either stream for a 1-core chain,
    // which has no eviction queues and so always has room).
    auto try_input = [&] {
      if (!leftmost && !rightmost) return false;
      if (batch == nullptr && core.batch_input.try_pop(batch)) batch_pos = 0;
      if (batch != nullptr) {
        const std::size_t first = batch_pos;
        while (batch_pos < batch->size()) {
          const Tuple& t = batch->tuple_at(batch_pos);
          if (!can_store(i, t.origin == StreamId::R)) break;
          enter(i, t, nullptr);
          ++batch_pos;
        }
        const std::size_t entered = batch_pos - first;
        if (batch_pos == batch->size()) batch.reset();
        if (entered > 0) retire(entered);
        return entered > 0;
      }
      // A multi-core chain feeds R at the left end and S at the right.
      // Check for input first: restore_state() rewrites the sub-windows
      // that can_store() reads, and it runs only while nothing is queued.
      if (core.input.empty() || !can_store(i, leftmost)) return false;
      Tuple t;
      if (!core.input.try_pop(t)) return false;
      enter(i, t, nullptr);
      retire(1);
      return true;
    };
    auto try_r = [&] {
      if (leftmost) return false;
      Boundary& b = *boundaries_[i - 1];
      std::unique_lock<std::mutex> lk(b.mu);
      if (b.r_q.empty() || !can_store(i, true)) return false;
      const Tuple t = b.r_q.front();
      b.r_q.pop_front();
      b.r_len.store(b.r_q.size(), std::memory_order_relaxed);
      enter(i, t, &b.s_q);  // lock held across the scan: atomic crossing
      lk.unlock();
      retire(1);
      return true;
    };
    auto try_s = [&] {
      if (rightmost) return false;
      Boundary& b = *boundaries_[i];
      std::unique_lock<std::mutex> lk(b.mu);
      if (b.s_q.empty() || !can_store(i, false)) return false;
      const Tuple t = b.s_q.front();
      b.s_q.pop_front();
      b.s_len.store(b.s_q.size(), std::memory_order_relaxed);
      enter(i, t, &b.r_q);
      lk.unlock();
      retire(1);
      return true;
    };

    // Rotate fairly over the three sources so neither fresh input nor
    // either ripple direction can starve the others (unbounded starvation
    // would skew the two streams' windows apart).
    if (r_first) {
      did_work = try_r() || try_input() || try_s();
    } else {
      did_work = try_s() || try_input() || try_r();
    }

    if (did_work) {
      backoff.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    backoff.pause();
  }
}

SwRunReport HandshakeJoinEngine::process(const std::vector<Tuple>& tuples) {
  Timer timer;
  Core& left = *cores_.front();
  Core& right = *cores_.back();
  for (const Tuple& t : tuples) {
    pending_.fetch_add(1, std::memory_order_relaxed);
    auto& q = t.origin == StreamId::R ? left.input : right.input;
    SpinBackoff backoff;
    while (!q.try_push(t)) backoff.pause();
  }
  {
    SpinBackoff backoff;
    while (pending_.load(std::memory_order_acquire) != 0) backoff.pause();
  }
  SwRunReport report;
  report.elapsed_seconds = timer.elapsed_seconds();
  report.tuples_processed = tuples.size();
  report.results_emitted = results_count_.load(std::memory_order_acquire);
  return report;
}

SwRunReport HandshakeJoinEngine::process_batched(
    const std::vector<Tuple>& tuples, std::size_t batch_size) {
  const std::size_t step = batch_size == 0 ? 1 : batch_size;
  Timer timer;
  Core& left = *cores_.front();
  Core& right = *cores_.back();
  auto feed = [this](Core& core, TupleBatch&& span) {
    if (span.empty()) return;
    const std::uint64_t n = span.size();
    pending_.fetch_add(n, std::memory_order_relaxed);
    auto batch = std::make_shared<const TupleBatch>(std::move(span));
    SpinBackoff backoff;
    BatchPtr to_push = batch;
    while (!core.batch_input.try_push(std::move(to_push))) backoff.pause();
  };
  for (std::size_t pos = 0; pos < tuples.size(); pos += step) {
    const std::size_t count = std::min(step, tuples.size() - pos);
    const std::span<const Tuple> span(tuples.data() + pos, count);
    if (cfg_.num_cores == 1) {
      // One core is both chain ends: the mixed span enters in exact
      // arrival order, keeping the 1-core chain an exact oracle.
      feed(left, TupleBatch::from(span));
    } else {
      TupleBatch r_span;
      TupleBatch s_span;
      for (const Tuple& t : span) {
        (t.origin == StreamId::R ? r_span : s_span).push_back(t);
      }
      feed(left, std::move(r_span));
      feed(right, std::move(s_span));
    }
  }
  {
    SpinBackoff backoff;
    while (pending_.load(std::memory_order_acquire) != 0) backoff.pause();
  }
  SwRunReport report;
  report.elapsed_seconds = timer.elapsed_seconds();
  report.tuples_processed = tuples.size();
  report.results_emitted = results_count_.load(std::memory_order_acquire);
  return report;
}

void HandshakeJoinEngine::collect_metrics(obs::MetricRegistry& registry,
                                          const std::string& prefix) const {
  std::uint64_t probes = 0;
  std::uint64_t entries = 0;
  std::uint64_t handovers = 0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const Core& core = *cores_[i];
    const std::string core_prefix =
        prefix + "core." + std::to_string(i) + ".";
    registry.set_counter(core_prefix + "probes", core.probes,
                         obs::Stability::kRuntime);
    registry.set_counter(core_prefix + "matches", core.local_results.size(),
                         obs::Stability::kRuntime);
    registry.set_counter(core_prefix + "entries", core.entries,
                         obs::Stability::kRuntime);
    registry.set_counter(core_prefix + "handovers", core.handovers,
                         obs::Stability::kRuntime);
    probes += core.probes;
    entries += core.entries;
    handovers += core.handovers;
  }
  registry.set_counter(prefix + "probes", probes, obs::Stability::kRuntime);
  registry.set_counter(prefix + "entries", entries, obs::Stability::kRuntime);
  registry.set_counter(prefix + "handovers", handovers,
                       obs::Stability::kRuntime);
  registry.set_counter(prefix + "results",
                       results_count_.load(std::memory_order_acquire),
                       obs::Stability::kRuntime);
}

void HandshakeJoinEngine::snapshot_state(core::WindowImage& out) {
  SpinBackoff backoff;
  while (pending_.load(std::memory_order_acquire) != 0) backoff.pause();
  out.num_cores = cfg_.num_cores;
  out.window_size = cfg_.window_size;
  out.count_r = 0;  // the chain has no global turn counters
  out.count_s = 0;
  out.results_emitted = results_count_.load(std::memory_order_acquire);
  out.cores.assign(cfg_.num_cores, {});
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
  // Handovers count toward pending_, so the eviction queues have drained
  // by now; captured anyway so the image shape matches the chain and a
  // future mid-flight snapshot would not silently lose occupants.
  out.boundaries.assign(boundaries_.size(), {});
  for (std::size_t b = 0; b < boundaries_.size(); ++b) {
    Boundary& boundary = *boundaries_[b];
    std::lock_guard<std::mutex> lock(boundary.mu);
    out.boundaries[b].r_q.assign(boundary.r_q.begin(), boundary.r_q.end());
    out.boundaries[b].s_q.assign(boundary.s_q.begin(), boundary.s_q.end());
  }
}

bool HandshakeJoinEngine::restore_state(const core::WindowImage& image) {
  if (image.num_cores != cfg_.num_cores ||
      image.window_size != cfg_.window_size ||
      image.cores.size() != cores_.size() ||
      image.boundaries.size() != boundaries_.size()) {
    return false;
  }
  const std::size_t sub_window = cfg_.window_size / cfg_.num_cores;
  for (const auto& src : image.cores) {
    if (src.win_r.size() > sub_window || src.win_s.size() > sub_window ||
        !src.arr_r.empty() || !src.arr_s.empty()) {
      return false;
    }
  }
  SpinBackoff backoff;
  while (pending_.load(std::memory_order_acquire) != 0) backoff.pause();
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    Core& core = *cores_[i];
    const auto& src = image.cores[i];
    // Age-ordered images bulk-load straight into the lanes + one index
    // rebuild (the batched rebuild path, as in SplitJoin's restore).
    core.win_r.load(src.win_r.data(), src.win_r.size());
    core.win_s.load(src.win_s.data(), src.win_s.size());
  }
  for (std::size_t b = 0; b < boundaries_.size(); ++b) {
    Boundary& boundary = *boundaries_[b];
    std::lock_guard<std::mutex> lock(boundary.mu);
    boundary.r_q.assign(image.boundaries[b].r_q.begin(),
                        image.boundaries[b].r_q.end());
    boundary.s_q.assign(image.boundaries[b].s_q.begin(),
                        image.boundaries[b].s_q.end());
    boundary.r_len.store(boundary.r_q.size(), std::memory_order_relaxed);
    boundary.s_len.store(boundary.s_q.size(), std::memory_order_relaxed);
  }
  return true;
}

std::vector<stream::ResultTuple> HandshakeJoinEngine::results() const {
  std::vector<std::size_t> from_start;
  return results_since(from_start);
}

std::vector<stream::ResultTuple> HandshakeJoinEngine::results_since(
    std::vector<std::size_t>& taken) const {
  taken.resize(cores_.size(), 0);
  std::vector<stream::ResultTuple> fresh;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const auto& local = cores_[i]->local_results;
    fresh.insert(fresh.end(),
                 local.begin() + static_cast<std::ptrdiff_t>(taken[i]),
                 local.end());
    taken[i] = local.size();
  }
  return fresh;
}

}  // namespace hal::sw
