// Two-phase cycle simulation primitives.
//
// hal::sim is the substrate that stands in for the paper's FPGAs. Every
// hardware component (DNode, GNode, join core, ...) is a Module driven by a
// shared clock. A simulation cycle has two phases:
//
//   eval()   — every module reads the *committed* state of the world
//              (its own registers, FIFO occupancies as of the cycle start)
//              and stages its actions (register writes, FIFO pushes/pops).
//   commit() — every staged action is applied atomically, advancing to the
//              next clock edge.
//
// Because eval() only ever observes committed state, module evaluation
// order is irrelevant and the simulation is deterministic — the same
// property synchronous RTL gets from edge-triggered flip-flops. This is
// what makes the cycle counts reported by the benches faithful to the
// micro-architecture rather than artifacts of scheduling.
//
// Activity (the sleep contract). On a large fabric most modules have
// nothing to do on most cycles: a distribution node waits for its next
// word, a gathering node for a result. The serial kernel (simulator.h)
// evaluates only *awake* modules and commits only the channels (FIFOs)
// that staged a push or pop. A module calls sleep() from eval() only when
// its next eval() would stage nothing and change no state until one of
// the channels it watch()es commits a change; such a commit wakes it.
// Watched channels are declared in the module's constructor. Code that
// changes a module's inputs from outside the kernel (a driver's enqueue())
// calls wake(). A module whose idle cycles still advance state derives
// that state from the clock (now()) instead of counting evals.
//
// Timed wakes. A module that already knows the cycle of its next change
// calls sleep_until(cycle) instead: it sleeps as with sleep() and is also
// woken at that cycle. A watched channel may wake it earlier; it then
// calls sleep() again and keeps its pending timer. A stale or duplicate
// timer only causes a spurious wake, which the contract below makes
// harmless. While every module sleeps and a timer is pending, the serial
// kernel jumps its clock to the first due timer (simulator.h): a module
// sees now() advance by more than one between two evals, which a module
// that derives idle-cycle state from the clock already allows.
//
// Sleeping is only ever a shortcut: evaluating a sleeping module changes
// nothing, so the threaded kernel, which evaluates every module every
// cycle, computes byte-identical results, and a module that never sleeps
// is always correct. That differential checks the wake bookkeeping; it
// cannot see a module that skips work whose outcome it computed ahead, so
// such a module needs its own per-cycle check (the join core's scan trace
// test, the committed hw figure outputs).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace hal::sim {

class Channel;
class Module;

// The serial kernel's work lists, shared with the modules it steps.
struct Activity {
  struct Timer {
    std::uint64_t cycle;
    Module* module;
  };
  // Timed wakes wait on a wheel: the timer for cycle c in slot c % kSlots,
  // which the kernel visits at the start of every cycle congruent to c; a
  // timer a turn or more ahead stays for a later visit. Adding and firing
  // are O(1). A min-heap's O(log n) sift costs more per timer than the
  // evals a four-cycle skip saves: with one, a 128-core fabric with
  // four-tuple sub-windows ran 10-33% slower than without the skip (4-vCPU
  // Xeon VM). Each slot keeps the capacity of its busiest turn, so few
  // slots keep the wheel small.
  static constexpr std::uint64_t kSlots = 64;

  std::vector<Module*> awake;     // evaluated next cycle
  std::vector<Channel*> staged;   // committed this cycle
  std::vector<std::vector<Timer>> wheel =
      std::vector<std::vector<Timer>>(kSlots);
  std::size_t timers = 0;         // pending on the wheel

  void add_timer(std::uint64_t cycle, Module* m) {
    wheel[cycle % kSlots].push_back(Timer{cycle, m});
    ++timers;
  }
};

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Phase 1: observe committed state, stage actions.
  virtual void eval() = 0;
  // Phase 2: apply staged actions (default: nothing to commit). The serial
  // kernel commits only channels, so other modules keep this empty.
  virtual void commit() {}

  // Evaluates a sleeping module again from the next cycle. For state
  // changed from outside the kernel; never call it from eval().
  void wake() {
    if (!asleep_) return;
    asleep_ = false;
    if (activity_ != nullptr) activity_->awake.push_back(this);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 protected:
  // From eval() only: skip this module until a watched channel commits a
  // change or wake() is called.
  void sleep() noexcept { asleep_ = true; }
  // From eval() only: sleep() that also wakes this module at `cycle`
  // (> now()). The threaded kernel keeps no timers; it evaluates every
  // module every cycle anyway.
  void sleep_until(std::uint64_t cycle) {
    HAL_ASSERT(cycle > now());
    sleep();
    if (activity_ != nullptr) activity_->add_timer(cycle, this);
  }
  // From the constructor: commits that change `c` wake this module.
  void watch(Channel& c);
  // The cycle being evaluated (the simulator's clock, handed over by
  // Simulator::add()).
  [[nodiscard]] std::uint64_t now() const noexcept {
    HAL_ASSERT_MSG(clock_ != nullptr, "module not added to a simulator");
    return clock_->load(std::memory_order_relaxed);
  }

 private:
  friend class Channel;
  friend class Simulator;

  std::string name_;
  const std::atomic<std::uint64_t>* clock_ = nullptr;
  // Set by Simulator::add(), cleared before a threaded kernel's first
  // cycle: no worker thread ever stages or wakes through it.
  Activity* activity_ = nullptr;
  bool asleep_ = false;
};

// A module whose committed changes wake the modules that watch it: the
// base of every FIFO. The serial kernel commits a channel only in cycles
// where it staged a push or pop.
class Channel : public Module {
 public:
  using Module::Module;

 protected:
  // From push()/pop(): queue this channel for the next commit phase.
  void stage() {
    if (activity_ == nullptr || queued_) return;
    queued_ = true;
    activity_->staged.push_back(this);
  }
  // From commit(), when it applied a change.
  void changed() {
    if (activity_ == nullptr) return;
    for (Module* m : watchers_) m->wake();
  }

 private:
  friend class Module;
  friend class Simulator;

  std::vector<Module*> watchers_;
  bool queued_ = false;
};

inline void Module::watch(Channel& c) { c.watchers_.push_back(this); }

// A register whose read value is stable within a cycle. Writes via set()
// become visible after commit() — the flip-flop abstraction.
template <typename T>
class Register {
 public:
  Register() = default;
  explicit Register(T initial) : value_(initial), next_(initial) {}

  [[nodiscard]] const T& get() const noexcept { return value_; }
  void set(T v) noexcept {
    next_ = std::move(v);
    dirty_ = true;
  }
  void commit() noexcept {
    // Most registers are idle on most cycles; keep the clean case a
    // predictable early return.
    if (!dirty_) [[likely]] {
      return;
    }
    value_ = next_;
    dirty_ = false;
  }

 private:
  T value_{};
  T next_{};
  bool dirty_ = false;
};

}  // namespace hal::sim
