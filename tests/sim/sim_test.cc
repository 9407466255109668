// Unit tests for the two-phase cycle-simulation kernel: the registered
// FIFO semantics every hardware component builds on, the
// order-independence guarantee of eval/commit, and the sleep contract of
// the activity-driven serial kernel, timed wakes included.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "sim/fifo.h"
#include "sim/module.h"
#include "sim/simulator.h"

namespace hal::sim {
namespace {

// A module that moves up to one token per cycle from `in` to `out`.
class Stage final : public Module {
 public:
  Stage(std::string name, Fifo<int>& in, Fifo<int>& out)
      : Module(std::move(name)), in_(in), out_(out) {}
  void eval() override {
    if (in_.can_pop() && out_.can_push()) out_.push(in_.pop());
  }

 private:
  Fifo<int>& in_;
  Fifo<int>& out_;
};

// Takes one token per cycle from `in`; sleeps while `in` is empty.
class Sleeper final : public Module {
 public:
  Sleeper(std::string name, Fifo<int>& in) : Module(std::move(name)), in_(in) {
    watch(in_);
  }
  void eval() override {
    ++evals_;
    if (!in_.can_pop()) {
      sleep();
      return;
    }
    taken_.push_back(in_.pop());
  }
  [[nodiscard]] int evals() const { return evals_; }
  [[nodiscard]] const std::vector<int>& taken() const { return taken_; }

 private:
  Fifo<int>& in_;
  int evals_ = 0;
  std::vector<int> taken_;
};

// Sleeps for `delay` cycles on each eval (a timed wake); an eval before
// its wake cycle, caused by a push to `in`, only sleeps again.
class TimedSleeper final : public Module {
 public:
  TimedSleeper(std::string name, Fifo<int>& in, std::uint64_t delay)
      : Module(std::move(name)), in_(in), delay_(delay) {
    watch(in_);
  }
  void eval() override {
    evals_.push_back(now());
    if (now() < wake_at_) {
      sleep();
      return;
    }
    wake_at_ = now() + delay_;
    sleep_until(wake_at_);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& evals() const {
    return evals_;
  }

 private:
  Fifo<int>& in_;
  std::uint64_t delay_;
  std::uint64_t wake_at_ = 0;
  std::vector<std::uint64_t> evals_;
};

TEST(Fifo, PushVisibleOnlyAfterCommit) {
  Fifo<int> f("f", 2);
  f.push(1);
  EXPECT_TRUE(f.empty());  // staged, not committed
  f.commit();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, PopFreesSlotOnlyAfterCommit) {
  Fifo<int> f("f", 1);
  f.push(1);
  f.commit();
  EXPECT_FALSE(f.can_push());
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_push()) << "full flag is registered";
  f.commit();
  EXPECT_TRUE(f.can_push());
}

TEST(Fifo, DoublePushInOneCycleAborts) {
  Fifo<int> f("f", 4);
  f.push(1);
  EXPECT_DEATH(f.push(2), "double push");
}

TEST(Fifo, DepthOneSustainsHalfRate) {
  // A capacity-1 FIFO between two stages transfers one token every two
  // cycles (classic registered-FIFO behavior).
  Fifo<int> src("src", 64);
  Fifo<int> mid("mid", 1);
  Fifo<int> dst("dst", 64);
  Stage s1("s1", src, mid);
  Stage s2("s2", mid, dst);
  Simulator sim;
  sim.add(src);
  sim.add(mid);
  sim.add(dst);
  sim.add(s1);
  sim.add(s2);
  for (int i = 0; i < 32; ++i) {
    src.push(i);
    src.commit();
  }
  for (int i = 0; i < 20; ++i) sim.step();
  // ~1 token per 2 cycles through the depth-1 buffer (minus pipe fill).
  EXPECT_LE(dst.size(), 11u);
  EXPECT_GE(dst.size(), 8u);
}

TEST(Fifo, DepthTwoSustainsFullRate) {
  Fifo<int> src("src", 64);
  Fifo<int> mid("mid", 2);
  Fifo<int> dst("dst", 64);
  Stage s1("s1", src, mid);
  Stage s2("s2", mid, dst);
  Simulator sim;
  sim.add(src);
  sim.add(mid);
  sim.add(dst);
  sim.add(s1);
  sim.add(s2);
  for (int i = 0; i < 32; ++i) {
    src.push(i);
    src.commit();
  }
  for (int i = 0; i < 20; ++i) sim.step();
  EXPECT_GE(dst.size(), 18u) << "a skid buffer sustains 1 token/cycle";
}

TEST(Fifo, FifoOrderPreserved) {
  Fifo<int> src("src", 64);
  Fifo<int> mid("mid", 2);
  Fifo<int> dst("dst", 64);
  Stage s1("s1", src, mid);
  Stage s2("s2", mid, dst);
  Simulator sim;
  sim.add(src);
  sim.add(mid);
  sim.add(dst);
  sim.add(s1);
  sim.add(s2);
  for (int i = 0; i < 16; ++i) {
    src.push(i);
    src.commit();
  }
  for (int i = 0; i < 40; ++i) sim.step();
  ASSERT_EQ(dst.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(dst.pop(), i);
    dst.commit();
  }
}

TEST(Simulator, EvalOrderDoesNotChangeResults) {
  // Run the same 3-stage pipeline with modules registered in opposite
  // orders; per-cycle state must match exactly (the two-phase guarantee).
  auto run = [](bool reversed) {
    Fifo<int> src("src", 64);
    Fifo<int> mid("mid", 2);
    Fifo<int> dst("dst", 64);
    Stage s1("s1", src, mid);
    Stage s2("s2", mid, dst);
    Simulator sim;
    if (reversed) {
      sim.add(s2);
      sim.add(s1);
      sim.add(dst);
      sim.add(mid);
      sim.add(src);
    } else {
      sim.add(src);
      sim.add(mid);
      sim.add(dst);
      sim.add(s1);
      sim.add(s2);
    }
    for (int i = 0; i < 8; ++i) {
      src.push(i);
      src.commit();
    }
    std::vector<std::size_t> trace;
    for (int i = 0; i < 15; ++i) {
      sim.step();
      trace.push_back(dst.size());
    }
    return trace;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Simulator, SleepingModuleWakesOnExternalPushToWatchedFifo) {
  Fifo<int> in("in", 4);
  Sleeper sleeper("sleeper", in);
  Simulator sim;
  sim.add(in);
  sim.add(sleeper);  // no link(): the wake list comes from watch()
  for (int i = 0; i < 5; ++i) sim.step();
  EXPECT_EQ(sleeper.evals(), 1) << "asleep after its first empty eval";

  // A push staged from outside: the next commit applies it and wakes the
  // sleeper, which takes the token one cycle later, as it would awake.
  in.push(7);
  sim.step();
  EXPECT_EQ(sleeper.evals(), 1);
  sim.step();
  EXPECT_EQ(sleeper.taken(), std::vector<int>{7});
  sim.step();  // empty again: back to sleep
  EXPECT_EQ(sleeper.evals(), 3);

  // A push committed from outside wakes it before the next eval.
  in.push(8);
  in.commit();
  sim.step();
  EXPECT_EQ(sleeper.taken(), (std::vector<int>{7, 8}));
  EXPECT_EQ(sleeper.evals(), 4);
}

TEST(Simulator, TimedSleeperWakesAtItsCycle) {
  Fifo<int> in("in", 4);
  Fifo<int> quiet("quiet", 1);
  TimedSleeper sleeper("sleeper", in, 5);
  TimedSleeper far("far", quiet, 2500);  // many turns of the timer wheel
  Simulator sim;
  sim.add(in);
  sim.add(quiet);
  sim.add(sleeper);
  sim.add(far);
  for (int i = 0; i < 12; ++i) sim.step();
  EXPECT_EQ(sleeper.evals(), (std::vector<std::uint64_t>{0, 5, 10}));

  // A push in cycle 12 wakes it early, at 13; it sleeps again and its
  // timer still wakes it at 15, exactly 5 cycles after the last timed eval.
  in.push(1);
  for (int i = 0; i < 9; ++i) sim.step();
  EXPECT_EQ(sleeper.evals(),
            (std::vector<std::uint64_t>{0, 5, 10, 13, 15, 20}));

  sim.step_n(5001 - sim.cycle());
  EXPECT_EQ(far.evals(), (std::vector<std::uint64_t>{0, 2500, 5000}));
}

TEST(Simulator, ModulesAreAddedBeforeTheFirstStep) {
  Fifo<int> f("f", 1);
  Simulator sim;
  sim.step();
  EXPECT_THROW(sim.add(f), PreconditionError);
  EXPECT_THROW(sim.configure(SimConfig{}), PreconditionError);
}

TEST(Register, ValueStableUntilCommit) {
  Register<int> r(5);
  r.set(7);
  EXPECT_EQ(r.get(), 5);
  r.commit();
  EXPECT_EQ(r.get(), 7);
  r.commit();  // idempotent without set
  EXPECT_EQ(r.get(), 7);
}

TEST(Simulator, CycleCounterAdvances) {
  Simulator sim;
  EXPECT_EQ(sim.cycle(), 0u);
  sim.step();
  sim.step();
  EXPECT_EQ(sim.cycle(), 2u);
  const auto stepped = sim.run_until([&] { return sim.cycle() >= 10; }, 100);
  EXPECT_EQ(stepped, 8u);
  EXPECT_EQ(sim.cycle(), 10u);
}

TEST(Simulator, RunUntilRespectsMaxCycles) {
  Simulator sim;
  const auto stepped = sim.run_until([] { return false; }, 25);
  EXPECT_EQ(stepped, 25u);
}

}  // namespace
}  // namespace hal::sim
