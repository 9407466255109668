// The clock driver: steps the registered modules through eval/commit.
//
// Two execution kernels share one register/FIFO substrate:
//
//   threads == 1 — the serial kernel, activity-driven: each cycle it
//                  first wakes the modules whose timed wake is due, then
//                  evaluates only the awake modules and commits only the
//                  channels that staged a push or pop; a channel whose
//                  commit changes it wakes the modules that watch it (the
//                  sleep contract in module.h).
//   threads >= 2 — the parallel stepper (parallel_stepper.h): registered
//                  modules are sharded once (topology-aware via link()
//                  declarations, see partition.h) and persistent workers
//                  run the eval | barrier | commit | barrier cycle over
//                  every module. Evaluating a sleeping module changes
//                  nothing, so this all-module kernel is the reference the
//                  serial kernel's wake bookkeeping (watch lists, timed
//                  wakes) is checked against: results are byte-identical
//                  for any shard assignment.
//
// Wake lists come from the modules' own watch() declarations, never from
// link(): links stay a pure partitioning hint.
//
// run_until() batches predicate checks to `predicate_epoch` cycles; the
// batching applies identically to both kernels, so for a fixed config the
// parallel run always matches the serial one cycle-for-cycle. The default
// epoch of 1 preserves the historical check-before-every-step semantics
// bit-exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "obs/metrics.h"
#include "sim/module.h"
#include "sim/parallel_stepper.h"
#include "sim/partition.h"

namespace hal::sim {

struct SimConfig {
  // Shards/threads for the stepping kernel; 1 selects the serial kernel.
  // Clamped to the module count at partition time (an empty shard would
  // still pay barrier crossings).
  std::uint32_t threads = 1;
  // run_until() checks its predicate every `predicate_epoch` cycles
  // instead of every cycle. 1 = historical semantics. Larger epochs trade
  // predicate latency (completion overshoot of up to epoch-1 cycles) for
  // fewer kernel entries — the win is largest for the parallel kernel,
  // where each entry is a worker wakeup.
  std::uint64_t predicate_epoch = 1;
};

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(SimConfig cfg) { configure(cfg); }

  void configure(const SimConfig& cfg) {
    HAL_CHECK(!started_, "the simulator is configured before the first step");
    HAL_CHECK(cfg.threads >= 1, "SimConfig.threads must be >= 1");
    HAL_CHECK(cfg.predicate_epoch >= 1,
              "SimConfig.predicate_epoch must be >= 1");
    config_ = cfg;
    stepper_.reset();
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  // Engines know their module population up front; reserving avoids the
  // reallocation churn of thousands of push_backs at construction.
  void reserve(std::size_t n) { modules_.reserve(n); }

  // Non-owning registration; callers (engines) own their modules and must
  // keep them alive for the simulator's lifetime. Hands the module the
  // clock and the serial kernel's work lists.
  void add(Module& m) {
    HAL_CHECK(!started_, "modules are added before the first step");
    m.clock_ = &cycle_;
    m.activity_ = &activity_;
    modules_.push_back(&m);
  }

  // Declares that `a` and `b` share a wire (FIFO endpoint, register
  // handoff). Purely a partitioning hint: linked modules are co-sharded
  // when balance allows, keeping their shared state on one thread's cache.
  // Undeclared links cost locality, never correctness.
  void link(const Module& a, const Module& b) {
    links_.emplace_back(&a, &b);
    stepper_.reset();
  }

  // Advance one clock cycle.
  void step() { step_n(1); }

  // Advance `cycles` clock cycles with no intervening predicate checks —
  // the batched entry point both kernels implement natively.
  void step_n(std::uint64_t cycles) {
    if (cycles == 0) return;
    if (effective_threads() > 1) {
      ensure_stepper();
      stepper_->run(cycles);
      return;
    }
    if (!started_) {
      // Every module is awake for the first cycle.
      started_ = true;
      activity_.awake = modules_;
      for (Module* m : modules_) m->asleep_ = false;
    }
    std::vector<Module*>& awake = activity_.awake;
    std::vector<Channel*>& staged = activity_.staged;
    for (std::uint64_t c = 0; c < cycles; ++c) {
      const std::uint64_t now = cycle_.load(std::memory_order_relaxed);
      std::vector<Activity::Timer>& slot =
          activity_.wheel[now % Activity::kSlots];
      if (!slot.empty()) {
        std::size_t later = 0;
        for (const Activity::Timer& t : slot) {
          if (t.cycle <= now) {
            t.module->wake();
          } else {
            slot[later++] = t;
          }
        }
        slot.resize(later);
      }
      std::size_t kept = 0;
      for (Module* m : awake) {
        m->eval();
        if (!m->asleep_) awake[kept++] = m;
      }
      awake.resize(kept);
      // Commits append the modules they wake to `awake`.
      for (Channel* ch : staged) {
        ch->queued_ = false;
        ch->commit();
      }
      staged.clear();
      cycle_.store(now + 1, std::memory_order_relaxed);
    }
  }

  // Run until `done()` returns true or `max_cycles` elapse (counted from
  // the call). Returns the number of cycles stepped. The predicate is
  // checked before each epoch of `predicate_epoch` cycles, so a predicate
  // that is already true costs 0 and the default epoch of 1 checks before
  // every step.
  template <typename Pred>
  std::uint64_t run_until(Pred&& done, std::uint64_t max_cycles) {
    const std::uint64_t epoch = config_.predicate_epoch;
    std::uint64_t stepped = 0;
    while (stepped < max_cycles && !done()) {
      const std::uint64_t batch = std::min(epoch, max_cycles - stepped);
      step_n(batch);
      stepped += batch;
    }
    return stepped;
  }

  [[nodiscard]] std::uint64_t cycle() const noexcept {
    return cycle_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t module_count() const noexcept {
    return modules_.size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  // Shards the parallel kernel would use for the current config (1 for the
  // serial kernel). Partition introspection below is only populated once a
  // threaded step has forced the partition to exist.
  [[nodiscard]] std::uint32_t effective_threads() const noexcept {
    if (config_.threads <= 1 || modules_.size() <= 1) return 1;
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(config_.threads, modules_.size()));
  }
  [[nodiscard]] const ParallelStepper* stepper() const noexcept {
    return stepper_.get();
  }

  // Publishes the clock-domain metrics under `prefix`. Engines layer their
  // per-module counters on top. The simulated-design values (cycles,
  // modules) are deterministic; the execution-descriptive ones (threads,
  // partition shape, barrier stalls) are tagged runtime so the
  // deterministic projection is identical across thread counts.
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const {
    // One reused key buffer: metric names share the prefix, so rebuilding
    // `prefix + name` per metric is pure allocation churn on the snapshot
    // path (set_counter only needs a string_view).
    std::string key;
    key.reserve(prefix.size() + 32);
    const auto with = [&](std::string_view suffix) -> const std::string& {
      key.assign(prefix);
      key.append(suffix);
      return key;
    };
    registry.set_counter(with("sim.cycles"), cycle());
    registry.set_counter(with("sim.modules"), modules_.size());
    registry.set_counter(with("sim.threads"), effective_threads(),
                         obs::Stability::kRuntime);
    if (stepper_ == nullptr) return;
    registry.set_counter(with("sim.partition.links"), partition_links_,
                         obs::Stability::kRuntime);
    registry.set_counter(with("sim.partition.cut_links"), partition_cut_links_,
                         obs::Stability::kRuntime);
    for (std::size_t s = 0; s < stepper_->shard_count(); ++s) {
      key.assign(prefix);
      key.append("sim.shard.");
      key.append(std::to_string(s));
      const std::size_t stem = key.size();
      key.append(".modules");
      registry.set_counter(key, stepper_->shard_modules(s),
                           obs::Stability::kRuntime);
      key.resize(stem);
      key.append(".spin_waits");
      registry.set_counter(key, stepper_->shard_spin_waits(s),
                           obs::Stability::kRuntime);
    }
  }

 private:
  void ensure_stepper() {
    if (stepper_ != nullptr) return;
    // The all-module kernel keeps no work lists or timers: detach them
    // before any worker thread could stage or wake through them.
    started_ = true;
    for (Module* m : modules_) m->activity_ = nullptr;
    activity_ = Activity{};
    Partition part = partition_modules(modules_, links_, effective_threads());
    partition_links_ = part.total_links;
    partition_cut_links_ = part.cut_links;
    stepper_ = std::make_unique<ParallelStepper>(std::move(part.shards),
                                                 cycle_);
  }

  std::vector<Module*> modules_;
  std::vector<std::pair<const Module*, const Module*>> links_;
  SimConfig config_;
  // Serial kernel only; add() and configure() are refused once set.
  Activity activity_;
  bool started_ = false;
  // Atomic because drivers/sinks read the clock during a parallel eval
  // phase while the leader shard republishes it between barriers; relaxed
  // ops keep the serial path a plain load/store.
  std::atomic<std::uint64_t> cycle_{0};
  std::unique_ptr<ParallelStepper> stepper_;
  std::size_t partition_links_ = 0;
  std::size_t partition_cut_links_ = 0;
};

}  // namespace hal::sim
