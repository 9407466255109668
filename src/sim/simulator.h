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
// Idle jumps. While no module is awake, no channel is staged and a timed
// wake is pending, no state can change before that timer fires: the serial
// kernel moves the clock straight to it (never past the end of the call).
// Finding it walks the timer wheel one slot per skipped cycle, which costs
// less than stepping those cycles. With no timer pending a frozen fabric
// is stepped cycle by cycle. A push() or wake() from outside the kernel
// between calls stages a channel or wakes a module, so no jump spans it.
// The threaded kernel keeps no timers and steps every cycle.
//
// The predicate contract. run_until()'s predicate reads module state, not
// the clock. An idle stretch changes no state, so run_until() checks its
// predicate once per stretch, after the timer's cycle, and stops on the
// cycle a check before every cycle would: both kernels stop on the same
// cycle.
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
};

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(SimConfig cfg) { configure(cfg); }

  void configure(const SimConfig& cfg) {
    HAL_CHECK(!started_, "the simulator is configured before the first step");
    HAL_CHECK(cfg.threads >= 1, "SimConfig.threads must be >= 1");
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
    while (cycles > 0) {
      cycles -= skip_idle(cycles);
      if (cycles == 0) return;
      step_serial();
      --cycles;
    }
  }

  // Run until `done()` returns true or `max_cycles` elapse (counted from
  // the call). Returns the number of cycles stepped. `done` must read
  // module state only (the predicate contract above): it is checked before
  // the first cycle, so a predicate that is already true costs 0, and
  // after every cycle that can change state; an idle stretch and the
  // timer's cycle that ends it are stepped as one batch.
  template <typename Pred>
  std::uint64_t run_until(Pred&& done, std::uint64_t max_cycles) {
    std::uint64_t stepped = 0;
    while (stepped < max_cycles && !done()) {
      stepped += skip_idle(max_cycles - stepped);
      if (stepped == max_cycles) break;
      step_n(1);
      ++stepped;
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
  // One cycle of the serial kernel: fire the timers due now, evaluate the
  // awake modules, commit the staged channels.
  void step_serial() {
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
      activity_.timers -= slot.size() - later;
      slot.resize(later);
    }
    std::vector<Module*>& awake = activity_.awake;
    std::size_t kept = 0;
    for (Module* m : awake) {
      m->eval();
      if (!m->asleep_) awake[kept++] = m;
    }
    awake.resize(kept);
    // Commits append the modules they wake to `awake`.
    for (Channel* ch : activity_.staged) {
      ch->queued_ = false;
      ch->commit();
    }
    activity_.staged.clear();
    cycle_.store(now + 1, std::memory_order_relaxed);
  }

  // Moves the clock over the idle cycles ahead, at most `limit`, and
  // returns how many it skipped: the cycles before the first one whose
  // wheel slot holds a due timer, while no module is awake and no channel
  // is staged. 0 when any module is awake, a channel is staged or no timer
  // is pending (always so on the threaded kernel, which keeps none). The
  // walk visits one slot per skipped cycle, as stepping them would.
  std::uint64_t skip_idle(std::uint64_t limit) {
    if (activity_.timers == 0 || !activity_.awake.empty() ||
        !activity_.staged.empty()) {
      return 0;
    }
    const std::uint64_t now = cycle_.load(std::memory_order_relaxed);
    std::uint64_t idle = 0;
    for (; idle < limit; ++idle) {
      const std::uint64_t c = now + idle;
      const std::vector<Activity::Timer>& slot =
          activity_.wheel[c % Activity::kSlots];
      if (std::any_of(slot.begin(), slot.end(),
                      [c](const Activity::Timer& t) { return t.cycle <= c; })) {
        break;
      }
    }
    cycle_.store(now + idle, std::memory_order_relaxed);
    return idle;
  }

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
