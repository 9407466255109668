// Idle-burn regression test: a software engine or cluster with no input
// pending must not spin its threads at 100% CPU. The spin-then-park
// waiters (common/backoff.h) park idle loops for short quanta on their
// doorbells, so an idle engine's whole process should accumulate well
// under 5% of one core per worker thread — measured here over a 100 ms
// quiet interval via CLOCK_PROCESS_CPUTIME_ID. A park that returned at
// once on a count that moved before it (a stale count) would busy-loop
// and fail these.
//
// Wall-clock-vs-cpu-clock ratio tests are load sensitive: these run
// RUN_SERIAL (see tests/CMakeLists.txt) and are skipped under sanitizers,
// whose instrumentation inflates CPU time unpredictably.
#include <gtest/gtest.h>

#include <ctime>
#include <thread>

#include "cluster/cluster_engine.h"
#include "stream/generator.h"
#include "sw/batch_join.h"
#include "sw/handshake_join.h"
#include "sw/splitjoin.h"

namespace hal::sw {
namespace {

[[maybe_unused]] double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<stream::Tuple> small_workload() {
  stream::WorkloadConfig wl;
  wl.key_domain = 16;
  return stream::WorkloadGenerator(wl).take(64);
}

// Measures process CPU accumulated while the engine sits idle for 100 ms
// and asserts it stays under 5% of one core per worker thread (plus a
// fixed allowance for the measuring thread itself).
template <typename WarmupFn>
void expect_idle([[maybe_unused]] std::size_t worker_threads,
                 [[maybe_unused]] WarmupFn&& warmup) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "sanitizer instrumentation skews CPU-time ratios";
#else
  warmup();  // get every thread past startup and into its idle loop
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double used = process_cpu_seconds() - before;

  const double budget =
      0.05 * static_cast<double>(worker_threads) * 0.1 + 0.002;
  EXPECT_LT(used, budget) << "idle engine burned " << used * 1e3
                          << " ms CPU across " << worker_threads
                          << " worker threads in a 100 ms quiet interval";
#endif
}

TEST(IdleCpu, SplitJoinEngineIdlesQuietly) {
  SplitJoinConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = 256;
  SplitJoinEngine engine(cfg, stream::JoinSpec::equi_on_key());
  // num_cores join threads plus the collector.
  expect_idle(cfg.num_cores + 1, [&] { engine.process(small_workload()); });
}

TEST(IdleCpu, HandshakeJoinEngineIdlesQuietly) {
  HandshakeJoinConfig cfg;
  cfg.num_cores = 4;
  cfg.window_size = 256;
  HandshakeJoinEngine engine(cfg, stream::JoinSpec::equi_on_key());
  expect_idle(cfg.num_cores, [&] { engine.process(small_workload()); });
}

TEST(IdleCpu, BatchJoinEngineIdlesQuietly) {
  BatchJoinConfig cfg;
  cfg.num_workers = 4;
  cfg.window_size = 256;
  cfg.batch_size = 64;
  BatchJoinEngine engine(cfg, stream::JoinSpec::equi_on_key());
  expect_idle(cfg.num_workers, [&] { engine.process(small_workload()); });
}

TEST(IdleCpu, ClusterEngineIdlesQuietly) {
  for (const net::TransportKind links :
       {net::TransportKind::kInProcess, net::TransportKind::kLoopback}) {
    SCOPED_TRACE(net::to_string(links));
    cluster::ClusterConfig cfg;
    cfg.partitioning = cluster::Partitioning::kKeyHash;
    cfg.shards = 2;
    cfg.window_mode = cluster::WindowMode::kExactGlobal;
    cfg.window_size = 256;
    cfg.worker.backend = core::Backend::kSwSplitJoin;
    cfg.worker.num_cores = 1;
    cfg.worker.dispatch_batch = 64;
    cfg.transport.batch_size = 64;
    cfg.transport.link_transport = links;
    cluster::ClusterEngine engine(cfg);
    // 2 workers: each 1-core engine runs on its worker's thread, and the
    // process() thread merges the results itself.
    expect_idle(2, [&] { engine.process(small_workload()); });
  }
}

}  // namespace
}  // namespace hal::sw
