// Unit tests for the two-phase cycle-simulation kernel: the registered
// FIFO semantics every hardware component builds on, the
// order-independence guarantee of eval/commit, and the sleep contract of
// the activity-driven serial kernel, timed wakes included.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <utility>
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

// Acts on its timed wake every `period` cycles, and on the cycle after a
// push reaches `in`; records the cycles it acted on (the same on every
// kernel) and the cycles it was evaluated on.
class Ticker final : public Module {
 public:
  Ticker(std::string name, Fifo<int>& in, std::uint64_t period)
      : Module(std::move(name)), in_(in), period_(period) {
    watch(in_);
  }
  void eval() override {
    evals_.push_back(now());
    if (in_.can_pop()) {
      in_.pop();
      acted_.push_back(now());
    } else if (now() >= next_) {
      acted_.push_back(now());
      next_ = now() + period_;
      sleep_until(next_);
      return;
    }
    sleep();
  }
  [[nodiscard]] const std::vector<std::uint64_t>& acted() const {
    return acted_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& evals() const {
    return evals_;
  }

 private:
  Fifo<int>& in_;
  std::uint64_t period_;
  std::uint64_t next_ = 0;
  std::vector<std::uint64_t> acted_;
  std::vector<std::uint64_t> evals_;
};

// Three tickers; c's period spans more than one turn of the timer wheel.
struct TickerFabric {
  explicit TickerFabric(std::uint32_t threads) : sim(SimConfig{threads}) {
    for (Module* m : std::initializer_list<Module*>{&a_in, &b_in, &c_in, &a,
                                                    &b, &c}) {
      sim.add(*m);
    }
  }
  [[nodiscard]] std::size_t acts() const {
    return a.acted().size() + b.acted().size() + c.acted().size();
  }

  Fifo<int> a_in{"a_in", 2};
  Fifo<int> b_in{"b_in", 2};
  Fifo<int> c_in{"c_in", 2};
  Ticker a{"a", a_in, 7};
  Ticker b{"b", b_in, 64};
  Ticker c{"c", c_in, 150};
  Simulator sim;
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

// A capacity-3 ring through many wraps, with cycles that push and pop at
// once, against a std::deque model: committed content, occupancy and the
// high-water mark agree after every commit, and a staged push stays
// invisible until it.
TEST(Fifo, RingMatchesDequeModelThroughWraps) {
  Fifo<int> f("f", 3);
  std::deque<int> model;
  std::size_t high_water = 0;
  std::uint32_t lcg = 7;
  int next_value = 0;
  int both = 0;
  // A scripted start holds two entries through push-and-pop cycles before
  // the ring first fills (the high-water mark must stay 2), then
  // pseudo-random traffic.
  const std::vector<std::pair<bool, bool>> script = {
      {true, false}, {true, false}, {true, true}, {true, true},
      {false, true}, {true, true},  {true, false}, {true, true}};
  for (int cycle = 0; cycle < 2000; ++cycle) {
    lcg = lcg * 1664525u + 1013904223u;
    const std::size_t k = static_cast<std::size_t>(cycle);
    const bool want_push =
        k < script.size() ? script[k].first : (lcg >> 20) % 3 != 0;
    const bool want_pop =
        k < script.size() ? script[k].second : (lcg >> 24) % 3 != 0;
    const bool push = want_push && f.can_push();
    const bool pop = want_pop && f.can_pop();
    if (push) f.push(next_value);
    ASSERT_EQ(f.size(), model.size()) << "staged push counted, cycle " << cycle;
    if (pop) {
      ASSERT_EQ(f.pop(), model.front());
      ASSERT_EQ(f.front(), model.front()) << "staged pop applied early";
    }
    both += push && pop ? 1 : 0;
    f.commit();
    if (pop) model.pop_front();
    if (push) model.push_back(next_value++);
    high_water = std::max(high_water, model.size());
    ASSERT_EQ(f.size(), model.size()) << "cycle " << cycle;
    ASSERT_EQ(f.empty(), model.empty());
    ASSERT_EQ(f.high_water(), high_water);
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(f.peek(i), model[i]) << "cycle " << cycle << ", offset " << i;
    }
    if (!model.empty()) {
      ASSERT_EQ(f.front(), model.front());
    }
  }
  EXPECT_EQ(f.high_water(), 3u);
  EXPECT_GT(next_value, 600) << "the ring wrapped a few hundred times";
  EXPECT_GT(both, 300) << "push and pop share many cycles";
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

// While every ticker sleeps on a timer the serial kernel jumps the clock.
// run_until with a state predicate stops on the cycle that checking before
// every cycle stops on, and on the threaded kernel's cycle; the tickers act
// on the same cycles on all three, and the serial two evaluate them on the
// same cycles. A push between calls is seen on the next cycle.
TEST(Simulator, IdleJumpsStopRunUntilOnTheSteppedCycle) {
  TickerFabric stepped(1);
  TickerFabric jumped(1);
  TickerFabric threaded(2);
  for (const std::size_t target : {3u, 4u, 9u, 17u, 30u}) {
    while (stepped.acts() < target) stepped.sim.step();
    jumped.sim.run_until([&] { return jumped.acts() >= target; }, 1'000'000);
    threaded.sim.run_until([&] { return threaded.acts() >= target; },
                           1'000'000);
    ASSERT_EQ(jumped.sim.cycle(), stepped.sim.cycle()) << "target " << target;
    ASSERT_EQ(threaded.sim.cycle(), stepped.sim.cycle()) << "target " << target;
    for (TickerFabric* f : {&jumped, &threaded}) {
      EXPECT_EQ(f->a.acted(), stepped.a.acted());
      EXPECT_EQ(f->b.acted(), stepped.b.acted());
      EXPECT_EQ(f->c.acted(), stepped.c.acted());
    }
    EXPECT_EQ(jumped.a.evals(), stepped.a.evals());
    EXPECT_EQ(jumped.b.evals(), stepped.b.evals());
    EXPECT_EQ(jumped.c.evals(), stepped.c.evals());
    if (target == 9u) {
      stepped.b_in.push(1);
      jumped.b_in.push(1);
      threaded.b_in.push(1);
    }
  }
  // Timed acts land on their period; the push, made at cycle 43 after the
  // ninth act (a's at 42), is acted on at 44.
  EXPECT_EQ(stepped.c.acted(), (std::vector<std::uint64_t>{0, 150}));
  EXPECT_EQ(stepped.b.acted(), (std::vector<std::uint64_t>{0, 44, 64, 128}));
  EXPECT_EQ(stepped.sim.cycle(), 162u);
  EXPECT_EQ(stepped.a.acted().size(), 24u);
  for (std::size_t i = 0; i < stepped.a.acted().size(); ++i) {
    EXPECT_EQ(stepped.a.acted()[i], 7 * i);
  }
}

// A jump ends on the cycle a timer is due and never past the end of the
// call: step_n in chunks that end before, on and after a due cycle, and
// run_until's max_cycles with the next timer farther away.
TEST(Simulator, IdleJumpsNeverPassATimerOrMaxCycles) {
  Fifo<int> in("in", 2);
  Ticker t("t", in, 100);
  Simulator sim;
  sim.add(in);
  sim.add(t);
  std::uint64_t total = 0;
  for (const std::uint64_t chunk : {1u, 3u, 50u, 46u, 99u, 1u, 200u, 1u}) {
    sim.step_n(chunk);
    total += chunk;
    ASSERT_EQ(sim.cycle(), total);
    std::vector<std::uint64_t> due;
    for (std::uint64_t c = 0; c < total; c += 100) due.push_back(c);
    ASSERT_EQ(t.acted(), due) << "after " << total << " cycles";
    ASSERT_EQ(t.evals(), due);
  }
  ASSERT_EQ(sim.cycle(), 401u);
  EXPECT_EQ(sim.run_until([] { return false; }, 37), 37u);
  EXPECT_EQ(sim.cycle(), 438u);
  EXPECT_EQ(t.acted().back(), 400u);
  EXPECT_EQ(sim.run_until([&] { return t.acted().size() >= 7; }, 1'000), 163u);
  EXPECT_EQ(sim.cycle(), 601u);
  EXPECT_EQ(t.acted(), (std::vector<std::uint64_t>{0, 100, 200, 300, 400,
                                                   500, 600}));
}

// An external push or wake() between calls lands in the next cycle: no jump
// spans it, however far the pending timer is.
TEST(Simulator, PushOrWakeBetweenCallsCancelsAJump) {
  Fifo<int> in("in", 2);
  Ticker t("t", in, 1000);
  Simulator sim;
  sim.add(in);
  sim.add(t);
  sim.step_n(10);
  in.push(1);
  sim.step_n(500);
  EXPECT_EQ(t.acted(), (std::vector<std::uint64_t>{0, 11}));
  EXPECT_EQ(t.evals(), (std::vector<std::uint64_t>{0, 11, 12}));
  t.wake();
  sim.run_until([] { return false; }, 10);
  EXPECT_EQ(t.evals(), (std::vector<std::uint64_t>{0, 11, 12, 510}));
  sim.step_n(1000);
  EXPECT_EQ(t.acted(), (std::vector<std::uint64_t>{0, 11, 1000}));
  EXPECT_EQ(sim.cycle(), 1520u);
}

}  // namespace
}  // namespace hal::sim
