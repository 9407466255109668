// Bounded spin-then-park waiter for the software engines' hot loops, and
// the doorbell a producer rings to wake a parked waiter.
//
// The seed engines waited with bare `std::this_thread::yield()` loops,
// which has two failure modes the paper's software measurements (Fig. 14d)
// are sensitive to: under load, N waiters yield-storm the scheduler and
// steal cycles from the threads doing real work (the paper's observation
// that the distribution/gathering "networks" consume processor capacity);
// at idle, every worker burns a full core forever. SpinBackoff fixes both
// with a three-phase policy:
//
//   1. spin   — a short burst of pause instructions. A producer that is
//               about to publish (the common case on the hot path) is
//               caught here with no syscall and no scheduler round trip.
//   2. yield  — hand the core to whoever is runnable. Covers the window
//               where the peer thread is descheduled; latency stays at
//               scheduler granularity (µs), which keeps the per-tuple
//               latency benches (Fig. 16) meaningful.
//   3. park   — block on the waiter's Doorbell for an exponentially
//               growing quantum capped at max_sleep_us. The thread that
//               hands this waiter work rings the doorbell and ends the
//               park at once, so an arrival after an idle stretch (an
//               open-loop stream) is seen in a futex wake, not at the end
//               of a timer-slack-stretched sleep. A wait that no producer
//               rings (socket I/O threads, stop flags, the sim barrier,
//               ...) parks on a doorbell nothing rings, which is a timed
//               sleep: ~8k wakeups/s/thread at the default cap, far below
//               5% of a core, with the reaction time bounded at the cap.
//
// Callers reset() whenever they make progress, so the policy restarts
// from the cheap spin phase the moment traffic resumes.
//
// Doorbell protocol (no lost wake-ups). A doorbell is an event count:
//
//   waiter:   seen = bell.count();   // BEFORE checking for work
//             if (!work_ready()) bell.park(seen, quantum);
//   producer: publish work;  bell.ring();
//
// ring() bumps the count, then loads the number of parked waiters; park()
// registers as a waiter under the doorbell's lock, then blocks only while
// the count still equals `seen`. All four operations are seq_cst, so one
// of two orders holds. Either the bump precedes the registration, and the
// park sees the moved count and returns at once; or the registration
// precedes the ring's load, and the ring takes the lock (which the waiter
// gives up only inside the wait) and notifies. A ring with nobody parked
// costs one atomic RMW and one load: no lock, no syscall. SpinBackoff
// reads `seen` at construction, in reset() and at the end of each park,
// so every park is preceded by a fresh read and the caller's check.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace hal {

// One pause/yield hint to the core (not the scheduler); the SMT sibling
// gets the slot while we wait for a cache line to change hands.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  // No architectural hint available; the surrounding load loop is enough.
#endif
}

// Event count a producer rings after publishing work for a parked waiter
// (protocol above). Any thread may ring; the waiters are normally one
// thread, the consumer of that work.
class Doorbell {
 public:
  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  void ring() noexcept {
    count_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    { std::lock_guard<std::mutex> lock(mu_); }  // the waiter is in its wait
    cv_.notify_all();
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_seq_cst);
  }

  // Blocks until the count moves off `seen` or `quantum` runs out; true
  // iff the count moved (a ring ended the park, or came before it).
  bool park(std::uint64_t seen, std::chrono::microseconds quantum) {
    parks_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mu_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    const bool rung = cv_.wait_for(lock, quantum, [&] {
      return count_.load(std::memory_order_seq_cst) != seen;
    });
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    if (!rung) park_timeouts_.fetch_add(1, std::memory_order_relaxed);
    return rung;
  }

  // Parks so far, and those of them that ran out their quantum (the rest
  // were ended by a ring). Observability only.
  [[nodiscard]] std::uint64_t parks() const noexcept {
    return parks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t park_timeouts() const noexcept {
    return park_timeouts_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> park_timeouts_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

class SpinBackoff {
 public:
  struct Params {
    std::uint32_t spin_limit = 64;    // phase 1: pause instructions
    std::uint32_t yield_limit = 128;  // phase 2: sched_yield calls
    std::uint32_t min_sleep_us = 8;   // phase 3: first park quantum
    std::uint32_t max_sleep_us = 128; // phase 3: cap (bounds reaction time)
  };

  // Preset for latency-critical waits (transport sends, epoch collection):
  // the park cap is 4× tighter than the default, so a waiter that parked
  // during an idle stretch and is not rung reacts to the next burst within
  // ~32 µs instead of adding a >100 µs wakeup spike to the batch's
  // latency. Idle cost stays trivial (~31k wakeups/s/thread worst case,
  // well under 5% of a core — the idle-CPU test bounds the default; hot
  // loops are never idle long enough to matter).
  [[nodiscard]] static constexpr Params hot_loop() noexcept {
    return Params{.spin_limit = 64,
                  .yield_limit = 128,
                  .min_sleep_us = 4,
                  .max_sleep_us = 32};
  }

  // Parks on a doorbell nothing rings: phase 3 is a timed sleep.
  SpinBackoff() = default;
  explicit SpinBackoff(const Params& params)
      : params_(params), sleep_us_(params.min_sleep_us) {}
  // Parks on `bell`, which the producer of this waiter's work rings.
  explicit SpinBackoff(Doorbell& bell) : SpinBackoff(bell, Params{}) {}
  SpinBackoff(Doorbell& bell, const Params& params)
      : params_(params),
        bell_(&bell),
        seen_(bell.count()),
        sleep_us_(params.min_sleep_us) {}

  // One wait step; escalates spin → yield → capped exponential park.
  void pause() {
    if (iteration_ < params_.spin_limit) {
      ++iteration_;
      cpu_relax();
      return;
    }
    if (iteration_ < params_.spin_limit + params_.yield_limit) {
      ++iteration_;
      std::this_thread::yield();
      return;
    }
    Doorbell& bell = bell_ != nullptr ? *bell_ : unrung();
    bell.park(seen_, std::chrono::microseconds(sleep_us_));
    seen_ = bell.count();
    if (sleep_us_ < params_.max_sleep_us) {
      const std::uint32_t next = sleep_us_ * 2;
      sleep_us_ = next < params_.max_sleep_us ? next : params_.max_sleep_us;
    }
  }

  // Call on progress so the next wait restarts from the spin phase.
  void reset() noexcept {
    iteration_ = 0;
    sleep_us_ = params_.min_sleep_us;
    if (bell_ != nullptr) seen_ = bell_->count();
  }

  // True once the waiter has escalated past the spin/yield phases (used by
  // tests to assert an idle engine actually parks).
  [[nodiscard]] bool sleeping() const noexcept {
    return iteration_ >= params_.spin_limit + params_.yield_limit;
  }

 private:
  // The calling thread's doorbell for waits nobody rings. Its count stays
  // 0, the default of seen_.
  static Doorbell& unrung() {
    thread_local Doorbell bell;
    return bell;
  }

  Params params_;
  Doorbell* bell_ = nullptr;  // null: unrung()
  std::uint64_t seen_ = 0;
  std::uint32_t iteration_ = 0;
  std::uint32_t sleep_us_ = Params{}.min_sleep_us;
};

}  // namespace hal
