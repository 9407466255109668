// SpinBackoff and Doorbell wakeup tests.
//
// The hot_loop() preset exists so transport sends and epoch collection
// never add a >100 µs parked-waiter spike to a batch's latency: its park
// cap bounds the worst-case reaction time at 32 µs when nothing rings.
// This suite pins the preset's contract (the parameter values and the
// escalation state machine) and measures an actual parked wakeup against
// a bound generous enough for loaded CI machines — a regression to
// unbounded or uncapped sleeping fails it hard. The Doorbell cases check
// that a ring ends a park long before its quantum would, and that no
// interleaving of a ring with a park loses the wake-up. The latency cases
// are registered RUN_SERIAL and skipped under sanitizers: wall-clock
// bounds mean nothing with 10× instrumented syscalls or concurrent suite
// load. The ping-pong case bounds only a lost wake-up (seconds), so it
// runs under TSan too.
#include "common/backoff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/spsc_queue.h"

namespace hal {
namespace {

TEST(SpinBackoffParams, HotLoopPresetIsTighterThanDefault) {
  constexpr SpinBackoff::Params hot = SpinBackoff::hot_loop();
  constexpr SpinBackoff::Params def{};
  EXPECT_EQ(hot.spin_limit, 64u);
  EXPECT_EQ(hot.yield_limit, 128u);
  EXPECT_EQ(hot.min_sleep_us, 4u);
  EXPECT_EQ(hot.max_sleep_us, 32u);
  // The preset's whole point: a strictly tighter sleep cap than the
  // idle-friendly default, never looser.
  EXPECT_LT(hot.max_sleep_us, def.max_sleep_us);
  EXPECT_LE(hot.min_sleep_us, def.min_sleep_us);
}

TEST(SpinBackoffEscalation, ReachesSleepPhaseAndResetsToSpin) {
  const SpinBackoff::Params params = SpinBackoff::hot_loop();
  SpinBackoff backoff(params);
  EXPECT_FALSE(backoff.sleeping());
  // Walk through the spin and yield phases (no sleeps yet: this part of
  // the loop is cheap and time-free by design).
  for (std::uint32_t i = 0; i < params.spin_limit + params.yield_limit; ++i) {
    backoff.pause();
  }
  EXPECT_TRUE(backoff.sleeping());
  backoff.reset();
  EXPECT_FALSE(backoff.sleeping());
}

TEST(SpinBackoffWakeup, ParkedHotLoopWaiterReactsWithinBound) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "wall-clock bound is meaningless under sanitizers";
#endif
  using Clock = std::chrono::steady_clock;
  // Take the best of a few rounds: any single round can eat a scheduler
  // hiccup, but the *minimum* wakeup latency of a correctly capped
  // waiter sits at tens of microseconds — orders of magnitude under the
  // bound. An uncapped sleep regression misses the bound in every round.
  double best_ms = 1e9;
  for (int round = 0; round < 5; ++round) {
    std::atomic<bool> flag{false};
    std::atomic<bool> parked{false};
    Clock::time_point observed{};
    std::thread waiter([&] {
      SpinBackoff backoff(SpinBackoff::hot_loop());
      while (!flag.load(std::memory_order_acquire)) {
        backoff.pause();
        if (backoff.sleeping()) parked.store(true, std::memory_order_release);
      }
      observed = Clock::now();
    });
    // Let the waiter escalate all the way into the capped-sleep phase.
    while (!parked.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

    const Clock::time_point released = Clock::now();
    flag.store(true, std::memory_order_release);
    waiter.join();
    const double ms =
        std::chrono::duration<double, std::milli>(observed - released)
            .count();
    if (ms < best_ms) best_ms = ms;
  }
  // hot_loop caps the park at 32 µs; 20 ms of slack absorbs loaded-CI
  // scheduling. A waiter sleeping unbounded (the pre-preset failure
  // mode this guards against) parks for whole milliseconds per step and
  // blows through this on every round.
  EXPECT_LT(best_ms, 20.0) << "parked waiter reacted in " << best_ms << " ms";
}

TEST(DoorbellWakeup, RingEndsAOneSecondParkWellUnderItsCap) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "wall-clock bound is meaningless under sanitizers";
#endif
  using Clock = std::chrono::steady_clock;
  // Every park lasts 1 s unless the doorbell ends it, so only the ring can
  // bring the reaction time near the bound. Best of 5, as above.
  constexpr SpinBackoff::Params kOneSecondParks{.spin_limit = 64,
                                                .yield_limit = 128,
                                                .min_sleep_us = 1'000'000,
                                                .max_sleep_us = 1'000'000};
  double best_ms = 1e9;
  for (int round = 0; round < 5; ++round) {
    Doorbell bell;
    std::atomic<bool> flag{false};
    std::atomic<bool> parked{false};
    Clock::time_point observed{};
    std::thread waiter([&] {
      SpinBackoff backoff(bell, kOneSecondParks);
      while (!flag.load(std::memory_order_acquire)) {
        if (backoff.sleeping()) parked.store(true, std::memory_order_release);
        backoff.pause();
      }
      observed = Clock::now();
    });
    while (!parked.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // in the park

    const Clock::time_point released = Clock::now();
    flag.store(true, std::memory_order_release);
    bell.ring();
    waiter.join();
    const double ms =
        std::chrono::duration<double, std::milli>(observed - released)
            .count();
    best_ms = std::min(best_ms, ms);
  }
  EXPECT_LT(best_ms, 20.0) << "rung waiter reacted in " << best_ms << " ms";
}

// Two threads hand a token back and forth through two SPSC queues, each
// parking on its own doorbell with no spin or yield phase and a 2 s
// quantum, so a lost wake-up stalls a hand-off for 2 s. After a failed
// pop, a receiver waits until the token shows in its queue (or a varying
// 0-100 µs passes) before it parks, so its park starts while the peer is
// still pushing and ringing: the window the protocol must close. The
// first hand-off over 1 s ends both loops.
TEST(DoorbellHandoff, PingPongLosesNoWakeup) {
  using Clock = std::chrono::steady_clock;
  constexpr int kHandoffs = 20'000;
  constexpr auto kLost = std::chrono::seconds(1);
  constexpr SpinBackoff::Params kParkAtOnce{.spin_limit = 0,
                                            .yield_limit = 0,
                                            .min_sleep_us = 2'000'000,
                                            .max_sleep_us = 2'000'000};
  SpscQueue<int> ping(4);
  SpscQueue<int> pong(4);
  Doorbell ping_bell;  // rung for the echo thread
  Doorbell pong_bell;  // rung for this thread
  std::atomic<bool> lost{false};

  // Pops one token (false once a wake-up was lost somewhere); `slowest`
  // keeps the longest wait.
  const auto receive = [&](SpscQueue<int>& queue, Doorbell& bell,
                           std::uint32_t& rng, Clock::duration& slowest) {
    const Clock::time_point start = Clock::now();
    SpinBackoff backoff(bell, kParkAtOnce);
    int token = 0;
    while (!queue.try_pop(token)) {
      if (lost.load(std::memory_order_relaxed)) return false;
      rng = rng * 1664525u + 1013904223u;
      const auto until =
          Clock::now() + std::chrono::nanoseconds((rng >> 8) % 100'000);
      while (queue.empty() && Clock::now() < until) cpu_relax();
      backoff.pause();
    }
    const Clock::duration waited = Clock::now() - start;
    slowest = std::max(slowest, waited);
    if (waited > kLost) lost.store(true, std::memory_order_relaxed);
    return true;
  };

  Clock::duration echo_slowest{};
  std::thread echo([&] {
    std::uint32_t rng = 2;
    for (int i = 0; i < kHandoffs; ++i) {
      if (!receive(ping, ping_bell, rng, echo_slowest)) return;
      while (!pong.try_push(i)) cpu_relax();
      pong_bell.ring();
    }
  });
  Clock::duration slowest{};
  std::uint32_t rng = 1;
  for (int i = 0; i < kHandoffs && !lost.load(std::memory_order_relaxed);
       ++i) {
    while (!ping.try_push(i)) cpu_relax();
    ping_bell.ring();
    if (!receive(pong, pong_bell, rng, slowest)) break;
  }
  echo.join();
  slowest = std::max(slowest, echo_slowest);
  const double slowest_ms =
      std::chrono::duration<double, std::milli>(slowest).count();
  EXPECT_LT(slowest_ms, 1000.0)
      << "a hand-off waited " << slowest_ms << " ms: a lost wake-up";
}

}  // namespace
}  // namespace hal
