// Thread-parallel two-phase kernel: Graphite-style parallel cycle-level
// simulation with the determinism kept bit-exact.
//
// The serial Simulator::step() runs every awake module on one thread; at
// thousand-module fabrics that single hot loop is the wall-clock
// bottleneck for the paper's open-problem topologies (Fig. 5/6/7). The
// stepper shards the module list across persistent worker threads and runs
//
//   [all shards] eval     — stage actions against committed state
//   ── barrier ──
//   [all shards] commit   — apply staged actions, leader publishes clock+1
//   ── barrier ──
//
// per cycle. Because eval() only observes committed state and commit()
// only applies a module's own staged state (the flip-flop contract in
// module.h), *any* assignment of modules to threads commits exactly the
// serial result: the threaded run is byte-identical to the serial kernel —
// cycle counts, FIFO contents, every deterministic counter. It steps every
// module every cycle, asleep or not (the sleep contract in module.h makes
// that a no-op for a sleeping one, before a timed wake too), so it is the
// all-module reference the activity-driven serial kernel's wake
// bookkeeping is tested against. It keeps no timers. The barriers provide
// the happens-before edges (see barrier.h); nothing else synchronizes, so
// the per-cycle cost is two barrier crossings.
//
// Threading contract inherited by modules (all current modules satisfy it
// by construction):
//   * eval() may read any committed state but writes only its own module's
//     staged/private state, plus staged pushes/pops on FIFOs it is the
//     sole producer/consumer of (the SPSC discipline fifo.h documents).
//   * commit() touches only the module's own state and must not read the
//     simulator clock (the leader republishes it concurrently).
//   * nothing stages into, wakes through or sets a timer in the serial
//     kernel's work lists: the simulator detaches them before the first
//     threaded cycle, so a channel's commit never writes another module's
//     wake flag and sleep_until() only sleeps.
//
// Workers persist across run() calls and park in SpinBackoff between
// them, so stepping one cycle at a time (run_until checks its predicate
// after every cycle here) costs a wakeup, not a thread spawn.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/barrier.h"

namespace hal::sim {

class Module;

class ParallelStepper {
 public:
  // `shards[0]` runs on the calling thread; one worker thread is spawned
  // per additional shard. `cycle` is the simulator's published clock: it
  // reads the current cycle index during eval and is advanced by the
  // leader once per committed cycle.
  ParallelStepper(std::vector<std::vector<Module*>> shards,
                  std::atomic<std::uint64_t>& cycle);
  ~ParallelStepper();

  ParallelStepper(const ParallelStepper&) = delete;
  ParallelStepper& operator=(const ParallelStepper&) = delete;

  // Runs `cycles` eval/commit cycles; returns once every shard has
  // committed the final one (all module state is then safe to read from
  // the calling thread). Not reentrant.
  void run(std::uint64_t cycles);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_modules(std::size_t s) const {
    return shards_[s].modules.size();
  }
  // Backoff steps shard `s` spent waiting at barriers (runtime stability:
  // a scheduling artifact, not a property of the simulated design).
  [[nodiscard]] std::uint64_t shard_spin_waits(std::size_t s) const {
    return shards_[s].spin_waits.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    std::vector<Module*> modules;
    std::atomic<std::uint64_t> spin_waits{0};
    // Keep neighboring shards' hot counters off one cache line.
    char padding[64];
  };

  void run_shard(std::size_t shard_idx, std::uint64_t cycles,
                 std::uint64_t base_cycle);
  void worker_main(std::size_t shard_idx);

  std::vector<Shard> shards_;
  std::atomic<std::uint64_t>& cycle_;
  SpinBarrier barrier_;

  // run() publishes the command (cycle count + clock base) with a release
  // bump of go_epoch_; parked workers acquire it and join the barriers.
  std::atomic<std::uint64_t> go_epoch_{0};
  std::uint64_t cycles_to_run_ = 0;
  std::uint64_t base_cycle_ = 0;
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> workers_;
};

}  // namespace hal::sim
