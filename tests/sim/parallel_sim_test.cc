// Tests for the thread-parallel two-phase kernel: FIFO staging at the
// occupancy boundaries (the SPSC discipline the parallel stepper leans
// on), the reusable spin barrier, the topology-aware partitioner, and —
// the load-bearing property — byte-identity between the activity-driven
// serial kernel and the threaded one, which evaluates every module every
// cycle, for raw pipelines and for all three hardware engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hw/biflow/engine.h"
#include "hw/opchain/op_chain_engine.h"
#include "hw/uniflow/engine.h"
#include "obs/export.h"
#include "sim/barrier.h"
#include "sim/fifo.h"
#include "sim/module.h"
#include "sim/partition.h"
#include "sim/simulator.h"
#include "stream/generator.h"
#include "stream/join_spec.h"

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

// A module that does nothing; partition fodder.
class Idle final : public Module {
 public:
  explicit Idle(std::string name) : Module(std::move(name)) {}
  void eval() override {}
};

// --- FIFO boundary semantics (simultaneous staged push + pop) -------------

TEST(FifoEdge, SimultaneousPushPopMidOccupancy) {
  Fifo<int> f("f", 4);
  f.push(1);
  f.commit();
  f.push(2);
  f.commit();
  // One cycle where the producer pushes and the consumer pops.
  ASSERT_TRUE(f.can_push());
  ASSERT_TRUE(f.can_pop());
  f.push(3);
  EXPECT_EQ(f.pop(), 1);
  f.commit();
  // Occupancy unchanged, FIFO order preserved.
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.pop(), 2);
  f.commit();
  EXPECT_EQ(f.pop(), 3);
  f.commit();
  EXPECT_TRUE(f.empty());
}

TEST(FifoEdge, PopAtFullBoundary) {
  Fifo<int> f("f", 2);
  f.push(1);
  f.commit();
  f.push(2);
  f.commit();
  // Full: the producer must see the registered full flag this cycle even
  // though the consumer is popping — the freed slot appears next cycle.
  ASSERT_FALSE(f.can_push());
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_push()) << "full flag is registered, not combinational";
  f.commit();
  EXPECT_TRUE(f.can_push());
  EXPECT_EQ(f.size(), 1u);
}

TEST(FifoEdge, PushAtEmptyBoundary) {
  Fifo<int> f("f", 2);
  // Empty: the consumer must not see the staged push this cycle.
  ASSERT_TRUE(f.empty());
  f.push(7);
  EXPECT_FALSE(f.can_pop()) << "staged push visible only after commit";
  f.commit();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.pop(), 7);
  f.commit();
  EXPECT_TRUE(f.empty());
}

// --- SpinBarrier ----------------------------------------------------------

TEST(SpinBarrier, KeepsThreadsInLockstep) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kIterations = 200;
  SpinBarrier barrier(kThreads);
  std::vector<std::atomic<int>> counters(kThreads);
  std::atomic<int> mismatches{0};

  auto body = [&](std::uint32_t id) {
    for (int k = 0; k < kIterations; ++k) {
      counters[id].fetch_add(1, std::memory_order_relaxed);
      barrier.arrive_and_wait();
      // Between the two barriers every thread must have finished exactly
      // k+1 increments.
      for (std::uint32_t j = 0; j < kThreads; ++j) {
        if (counters[j].load(std::memory_order_relaxed) != k + 1) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      barrier.arrive_and_wait();
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t t = 1; t < kThreads; ++t) threads.emplace_back(body, t);
  body(0);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SpinBarrier, SingleParticipantNeverBlocks) {
  SpinBarrier barrier(1);
  for (int i = 0; i < 100; ++i) barrier.arrive_and_wait();
  EXPECT_EQ(barrier.participants(), 1u);
}

TEST(SpinBarrier, CountsSpinWaits) {
  SpinBarrier barrier(2);
  std::atomic<std::uint64_t> waits{0};
  std::thread other([&] { barrier.arrive_and_wait(); });
  barrier.arrive_and_wait(&waits);
  other.join();
  // Either side may have arrived last; only require no crash and a sane
  // counter (zero when this thread was the releaser).
  EXPECT_GE(waits.load(), 0u);
}

// --- Partitioner ----------------------------------------------------------

TEST(Partition, EveryModuleExactlyOnceAndBalanced) {
  std::vector<std::unique_ptr<Idle>> owned;
  std::vector<Module*> modules;
  for (int i = 0; i < 10; ++i) {
    owned.push_back(std::make_unique<Idle>("m" + std::to_string(i)));
    modules.push_back(owned.back().get());
  }
  const Partition part = partition_modules(modules, {}, 4);
  ASSERT_EQ(part.shards.size(), 4u);
  std::vector<Module*> seen;
  for (const auto& shard : part.shards) {
    EXPECT_LE(shard.size(), 3u);
    EXPECT_GE(shard.size(), 2u);
    seen.insert(seen.end(), shard.begin(), shard.end());
  }
  ASSERT_EQ(seen.size(), modules.size());
  for (Module* m : modules) {
    EXPECT_EQ(std::count(seen.begin(), seen.end(), m), 1);
  }
}

TEST(Partition, ChainCutsOnlyAtShardBoundaries) {
  std::vector<std::unique_ptr<Idle>> owned;
  std::vector<Module*> modules;
  for (int i = 0; i < 16; ++i) {
    owned.push_back(std::make_unique<Idle>("m" + std::to_string(i)));
    modules.push_back(owned.back().get());
  }
  std::vector<std::pair<const Module*, const Module*>> links;
  for (int i = 0; i + 1 < 16; ++i) links.emplace_back(modules[i], modules[i + 1]);
  const Partition part = partition_modules(modules, links, 4);
  EXPECT_EQ(part.total_links, 15u);
  // A linear chain walked depth-first stays in declaration order; the only
  // cut links are the 3 chunk boundaries.
  EXPECT_EQ(part.cut_links, 3u);
}

TEST(Partition, DeterministicAcrossCalls) {
  std::vector<std::unique_ptr<Idle>> owned;
  std::vector<Module*> modules;
  for (int i = 0; i < 13; ++i) {
    owned.push_back(std::make_unique<Idle>("m" + std::to_string(i)));
    modules.push_back(owned.back().get());
  }
  std::vector<std::pair<const Module*, const Module*>> links;
  for (int i = 0; i < 13; ++i) {
    links.emplace_back(modules[i], modules[(i * 5 + 3) % 13]);
  }
  const Partition a = partition_modules(modules, links, 3);
  const Partition b = partition_modules(modules, links, 3);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.cut_links, b.cut_links);
}

TEST(Partition, MoreShardsThanModulesLeavesTrailingEmpty) {
  std::vector<std::unique_ptr<Idle>> owned;
  std::vector<Module*> modules;
  for (int i = 0; i < 3; ++i) {
    owned.push_back(std::make_unique<Idle>("m" + std::to_string(i)));
    modules.push_back(owned.back().get());
  }
  const Partition part = partition_modules(modules, {}, 8);
  ASSERT_EQ(part.shards.size(), 8u);
  std::size_t total = 0;
  for (const auto& shard : part.shards) total += shard.size();
  EXPECT_EQ(total, 3u);
}

TEST(Partition, DuplicateAndSelfLinksDeduped) {
  std::vector<std::unique_ptr<Idle>> owned;
  std::vector<Module*> modules;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(std::make_unique<Idle>("m" + std::to_string(i)));
    modules.push_back(owned.back().get());
  }
  std::vector<std::pair<const Module*, const Module*>> links;
  links.emplace_back(modules[0], modules[1]);
  links.emplace_back(modules[1], modules[0]);  // declared from both sides
  links.emplace_back(modules[2], modules[2]);  // self link
  const Partition part = partition_modules(modules, links, 2);
  EXPECT_EQ(part.total_links, 1u);
}

// --- Parallel stepper vs serial oracle on a raw pipeline ------------------

std::vector<std::size_t> pipeline_trace(std::uint32_t threads) {
  constexpr int kStages = 24;
  std::vector<std::unique_ptr<Fifo<int>>> fifos;
  std::vector<std::unique_ptr<Stage>> stages;
  SimConfig cfg;
  cfg.threads = threads;
  Simulator sim(cfg);
  for (int i = 0; i <= kStages; ++i) {
    fifos.push_back(std::make_unique<Fifo<int>>("f" + std::to_string(i),
                                                i == 0 ? 64 : 2));
    sim.add(*fifos.back());
  }
  for (int i = 0; i < kStages; ++i) {
    stages.push_back(std::make_unique<Stage>("s" + std::to_string(i),
                                             *fifos[i], *fifos[i + 1]));
    sim.add(*stages.back());
    sim.link(*stages.back(), *fifos[i]);
    sim.link(*stages.back(), *fifos[i + 1]);
  }
  for (int i = 0; i < 48; ++i) {
    fifos[0]->push(i);
    fifos[0]->commit();
  }
  std::vector<std::size_t> trace;
  for (int i = 0; i < 100; ++i) {
    sim.step();
    trace.push_back(fifos[kStages]->size());
  }
  trace.push_back(sim.cycle());
  return trace;
}

TEST(ParallelStepper, PipelineTraceMatchesSerialOracle) {
  const auto oracle = pipeline_trace(1);
  EXPECT_EQ(pipeline_trace(2), oracle);
  EXPECT_EQ(pipeline_trace(8), oracle);
}

TEST(ParallelStepper, StepNZeroIsNoOp) {
  SimConfig cfg;
  cfg.threads = 4;
  Simulator sim(cfg);
  std::vector<std::unique_ptr<Idle>> owned;
  for (int i = 0; i < 8; ++i) {
    owned.push_back(std::make_unique<Idle>("m" + std::to_string(i)));
    sim.add(*owned.back());
  }
  sim.step_n(0);
  EXPECT_EQ(sim.cycle(), 0u);
  sim.step_n(5);
  EXPECT_EQ(sim.cycle(), 5u);
}

// --- run_until -------------------------------------------------------------

TEST(RunUntil, DefaultEpochChecksEveryCycle) {
  Simulator sim;
  const auto stepped = sim.run_until([&] { return sim.cycle() >= 3; }, 100);
  EXPECT_EQ(stepped, 3u);
  EXPECT_EQ(sim.cycle(), 3u);
}

TEST(RunUntil, AlreadyTruePredicateCostsNothing) {
  Simulator sim;
  const auto stepped = sim.run_until([] { return true; }, 100);
  EXPECT_EQ(stepped, 0u);
  EXPECT_EQ(sim.cycle(), 0u);
}

}  // namespace
}  // namespace hal::sim

// --- Engine determinism across thread counts ------------------------------

namespace hal::hw {
namespace {

std::vector<stream::Tuple> workload(std::size_t n, std::uint32_t key_domain) {
  stream::WorkloadConfig wl;
  wl.seed = 7;
  wl.key_domain = key_domain;  // small domain: plenty of matches
  stream::WorkloadGenerator gen(wl);
  return gen.take(n);
}

// Deterministic projection: kRuntime metrics (threads, partition shape,
// spin waits) excluded, everything else byte-compared.
template <typename Engine>
std::string det_obs(const Engine& engine) {
  obs::MetricRegistry reg;
  engine.collect_metrics(reg, "engine.");
  obs::ExportOptions det;
  det.include_runtime = false;
  return obs::to_json(reg.snapshot("det"), det);
}

struct EngineRun {
  std::uint64_t cycle = 0;
  std::vector<stream::ResultTuple> results;
  std::string obs_json;
  std::uint64_t gathering_stalls = 0;  // uniflow only
};

// One point of the uni-flow sweep. The threaded kernel steps every module
// every cycle, so comparing it with the serial kernel checks each module's
// sleep contract on this fabric.
struct UniflowCase {
  NetworkKind distribution;
  NetworkKind gathering;
  JoinAlgorithm algorithm;
  std::uint32_t key_domain;
  // Offer the second half of the input only after the engine went
  // quiescent and idled, so the sleeping driver and cores must wake.
  bool reoffer;
};

std::string describe(const UniflowCase& c) {
  return std::string(to_string(c.distribution)) + "/" +
         to_string(c.gathering) + "/" + to_string(c.algorithm) +
         " keys=" + std::to_string(c.key_domain) +
         (c.reoffer ? " reoffer" : "");
}

EngineRun run_uniflow(const UniflowCase& c, std::uint32_t threads) {
  UniflowConfig cfg;
  cfg.num_cores = 8;
  cfg.window_size = 128;
  cfg.distribution = c.distribution;
  cfg.gathering = c.gathering;
  cfg.algorithm = c.algorithm;
  cfg.sim.threads = threads;
  UniflowEngine engine(cfg);
  engine.program(stream::JoinSpec::equi_on_key());
  const auto tuples = workload(96, c.key_domain);
  if (c.reoffer) {
    const auto half = tuples.begin() + 48;
    engine.offer(std::vector<stream::Tuple>(tuples.begin(), half));
    engine.run_to_quiescence(200'000);
    engine.step(37);  // idle: every module asleep
    engine.offer(std::vector<stream::Tuple>(half, tuples.end()));
  } else {
    engine.offer(tuples);
  }
  engine.run_to_quiescence(200'000);
  EngineRun run{engine.cycle(), engine.result_tuples(), det_obs(engine)};
  obs::MetricRegistry reg;
  engine.collect_metrics(reg, "engine.");
  const auto snap = reg.snapshot();
  if (const auto* m = snap.find("engine.gathering.stall_cycles")) {
    run.gathering_stalls = m->counter_value;
  }
  return run;
}

EngineRun run_biflow(std::uint32_t threads) {
  BiflowConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = 64;
  cfg.sim.threads = threads;
  BiflowEngine engine(cfg);
  engine.program(stream::JoinSpec::equi_on_key());
  engine.offer(workload(120, 8));
  engine.run_to_quiescence(500'000);
  return {engine.cycle(), engine.result_tuples(), det_obs(engine)};
}

EngineRun run_opchain(std::uint32_t threads) {
  OpChainConfig cfg;
  cfg.num_select_cores = 2;
  cfg.join.num_cores = 4;
  cfg.join.window_size = 64;
  cfg.sim.threads = threads;
  OpChainEngine engine(cfg);
  engine.program_join(stream::JoinSpec::equi_on_key());
  engine.offer(workload(64, 32));
  engine.run_to_quiescence(200'000);
  // OpChainEngine has no collect_metrics; cycle + results carry the
  // byte-identity check.
  return {engine.cycle(), engine.result_tuples(), ""};
}

// Compares the serial kernel's run with the threaded kernel's at 2 and 8
// threads; returns the serial run.
template <typename RunFn>
EngineRun expect_identical_across_threads(RunFn&& run) {
  EngineRun serial = run(1);
  EXPECT_GT(serial.results.size(), 0u) << "workload produced no matches";
  for (const std::uint32_t t : {2u, 8u}) {
    const EngineRun threaded = run(t);
    EXPECT_EQ(threaded.cycle, serial.cycle) << t << " threads";
    EXPECT_EQ(threaded.results, serial.results) << t << " threads";
    EXPECT_EQ(threaded.obs_json, serial.obs_json) << t << " threads";
  }
  return serial;
}

TEST(EngineDeterminism, UniflowByteIdenticalAcrossThreads) {
  constexpr NetworkKind kNetworks[] = {
      NetworkKind::kLightweight, NetworkKind::kChain, NetworkKind::kScalable};
  std::vector<UniflowCase> cases;
  for (const NetworkKind d : kNetworks) {
    for (const NetworkKind g : kNetworks) {
      for (const JoinAlgorithm a :
           {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kHash}) {
        cases.push_back({d, g, a, 64, false});
      }
    }
  }
  // One key: every pair matches, so the result links fill and the
  // gathering nodes and cores stall on backpressure.
  cases.push_back({NetworkKind::kScalable, NetworkKind::kScalable,
                   JoinAlgorithm::kNestedLoop, 1, false});
  cases.push_back({NetworkKind::kLightweight, NetworkKind::kChain,
                   JoinAlgorithm::kHash, 1, false});
  cases.push_back({NetworkKind::kScalable, NetworkKind::kScalable,
                   JoinAlgorithm::kNestedLoop, 64, true});
  cases.push_back({NetworkKind::kChain, NetworkKind::kChain,
                   JoinAlgorithm::kHash, 8, true});
  for (const UniflowCase& c : cases) {
    SCOPED_TRACE(describe(c));
    const EngineRun serial = expect_identical_across_threads(
        [&](std::uint32_t t) { return run_uniflow(c, t); });
    if (c.key_domain == 1) {
      EXPECT_GT(serial.gathering_stalls, 0u) << "no backpressure";
    }
  }
}

TEST(EngineDeterminism, BiflowByteIdenticalAcrossThreads) {
  expect_identical_across_threads(run_biflow);
}

TEST(EngineDeterminism, OpChainByteIdenticalAcrossThreads) {
  expect_identical_across_threads(run_opchain);
}

// The harness-level override reuses one config for the whole sweep; the
// engine the measurement constructs must honor it.
TEST(EngineDeterminism, SimThreadsConfigSurvivesCopy) {
  UniflowConfig cfg;
  cfg.sim.threads = 8;
  UniflowConfig copy = cfg;
  EXPECT_EQ(copy.sim.threads, 8u);
}

}  // namespace
}  // namespace hal::hw
