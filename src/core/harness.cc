#include "core/harness.h"

#include "common/assert.h"
#include "stream/generator.h"

namespace hal::core {

namespace {

using stream::JoinSpec;
using stream::StreamId;
using stream::Tuple;
using stream::WorkloadConfig;
using stream::WorkloadGenerator;

std::vector<Tuple> steady_state_fill(std::size_t window_size,
                                     std::uint32_t key_domain,
                                     std::uint64_t seed) {
  WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  WorkloadGenerator gen(wl);
  return gen.take(2 * window_size);  // window_size tuples per stream
}

template <typename Engine>
HwThroughput run_throughput(Engine& engine, const hw::DesignStats& stats,
                            const hw::FpgaDevice& device,
                            const MeasureOptions& opts,
                            std::uint64_t fill_seed_offset) {
  const hw::ResourceModel resources;
  const hw::TimingModel timing;
  const hw::PowerModel power;

  HwThroughput out;
  out.usage = resources.estimate(stats, &device);
  out.fits = out.usage.fits(device);
  out.fmax_mhz = timing.fmax_mhz(stats, device);
  out.clock_mhz = timing.operating_mhz(stats, device, opts.requested_mhz);
  out.power_mw = power.estimate_mw(out.usage, device, out.clock_mhz);

  engine.program(JoinSpec::equi_on_key());
  engine.run_to_quiescence(1'000'000);
  engine.prefill(steady_state_fill(stats.window_size_per_stream(),
                                   opts.key_domain,
                                   opts.seed + fill_seed_offset));
  engine.set_record_injections(false);

  WorkloadConfig wl;
  wl.seed = opts.seed;
  wl.key_domain = opts.key_domain;
  WorkloadGenerator gen(wl);
  const std::uint64_t start = engine.cycle();
  engine.offer(gen.take(opts.num_tuples));
  while (!engine.input_drained()) engine.step(64);

  out.tuples = opts.num_tuples;
  out.cycles = engine.last_injection_cycle() - start + 1;
  // Drain so the result count is complete.
  engine.run_to_quiescence(
      (stats.window_size_per_stream() + 64) * 64 + 100'000);
  out.results = engine.results().size();

  if (opts.registry != nullptr) {
    engine.collect_metrics(*opts.registry, opts.obs_prefix + "engine.");
    opts.registry->set_counter(opts.obs_prefix + "run.tuples", out.tuples);
    opts.registry->set_counter(opts.obs_prefix + "run.cycles", out.cycles);
    opts.registry->set_counter(opts.obs_prefix + "run.results", out.results);
    // Model outputs are pure functions of the design descriptor.
    opts.registry->set_gauge(opts.obs_prefix + "run.fmax_mhz", out.fmax_mhz,
                             obs::Stability::kDeterministic);
    opts.registry->set_gauge(opts.obs_prefix + "run.clock_mhz", out.clock_mhz,
                             obs::Stability::kDeterministic);
    opts.registry->set_gauge(opts.obs_prefix + "run.power_mw", out.power_mw,
                             obs::Stability::kDeterministic);
  }
  return out;
}

}  // namespace

HwThroughput measure_uniflow_throughput(const hw::UniflowConfig& cfg,
                                        const hw::FpgaDevice& device,
                                        const MeasureOptions& opts) {
  hw::UniflowConfig run_cfg = cfg;
  if (opts.sim_threads > 0) run_cfg.sim.threads = opts.sim_threads;
  hw::UniflowEngine engine(run_cfg);
  return run_throughput(engine, engine.design_stats(), device, opts,
                        /*fill_seed_offset=*/1000);
}

HwThroughput measure_biflow_throughput(const hw::BiflowConfig& cfg,
                                       const hw::FpgaDevice& device,
                                       const MeasureOptions& opts) {
  hw::BiflowConfig run_cfg = cfg;
  if (opts.sim_threads > 0) run_cfg.sim.threads = opts.sim_threads;
  hw::BiflowEngine engine(run_cfg);
  return run_throughput(engine, engine.design_stats(), device, opts,
                        /*fill_seed_offset=*/1000);
}

HwLatency measure_uniflow_latency(const hw::UniflowConfig& cfg,
                                  const hw::FpgaDevice& device,
                                  const MeasureOptions& opts) {
  const hw::TimingModel timing;

  hw::UniflowConfig run_cfg = cfg;
  if (opts.sim_threads > 0) run_cfg.sim.threads = opts.sim_threads;
  hw::UniflowEngine engine(run_cfg);
  const hw::DesignStats stats = engine.design_stats();
  const hw::ResourceModel resources;

  HwLatency out;
  out.fits = resources.estimate(stats, &device).fits(device);
  out.fmax_mhz = timing.fmax_mhz(stats, device);
  out.clock_mhz = timing.operating_mhz(stats, device, opts.requested_mhz);

  engine.program(JoinSpec::equi_on_key());
  engine.run_to_quiescence(1'000'000);

  // Fill the windows with non-matching keys plus exactly one S tuple that
  // matches the probe, so the probe's scan emits exactly one result.
  const std::uint32_t probe_key = 0;
  auto fill = steady_state_fill(stats.window_size_per_stream(),
                                opts.key_domain, opts.seed);
  for (auto& t : fill) t.key |= 1u << 21;  // disjoint from probe_key
  fill.back().origin = StreamId::S;
  fill.back().key = probe_key;
  engine.prefill(fill);

  Tuple probe;
  probe.key = probe_key;
  probe.origin = StreamId::R;
  probe.seq = fill.size();
  const std::uint64_t start = engine.cycle();
  engine.offer(probe);
  const std::uint64_t budget =
      64 * (stats.window_size_per_stream() + stats.num_cores + 64) + 10'000;
  engine.run_to_quiescence(budget);
  HAL_ASSERT_MSG(!engine.results().empty(),
                 "latency probe produced no result");
  out.cycles_to_last_result = engine.last_result_cycle() - start;
  out.cycles_to_quiescent = engine.cycle() - start;

  if (opts.registry != nullptr) {
    engine.collect_metrics(*opts.registry, opts.obs_prefix + "engine.");
    opts.registry->set_counter(opts.obs_prefix + "run.cycles_to_last_result",
                               out.cycles_to_last_result);
    opts.registry->set_counter(opts.obs_prefix + "run.cycles_to_quiescent",
                               out.cycles_to_quiescent);
  }
  return out;
}

SwMeasurement measure_sw_throughput(const EngineConfig& cfg,
                                    const MeasureOptions& opts) {
  EngineConfig run_cfg = cfg;
  if (opts.dispatch_batch > 0) run_cfg.dispatch_batch = opts.dispatch_batch;
  auto engine = make_engine(run_cfg);

  // Warm the windows to steady state. Handshake chains bind the window to
  // the flow, so their warmup streams through the untimed path; everything
  // else takes the state-injection shortcut. (A facade cluster filters for
  // the exact global window, so its handshake workers are one-core chains;
  // make_engine rejects more cores.)
  auto fill = steady_state_fill(run_cfg.window_size, opts.key_domain,
                                opts.seed + 1000);
  const bool handshake =
      run_cfg.backend == Backend::kSwHandshake ||
      (run_cfg.backend == Backend::kCluster &&
       run_cfg.cluster_worker_backend == Backend::kSwHandshake);
  if (handshake) {
    (void)engine->process(fill);
    (void)engine->take_results();
  } else {
    engine->prefill(fill);
  }

  WorkloadConfig wl;
  wl.seed = opts.seed;
  wl.key_domain = opts.key_domain;
  WorkloadGenerator gen(wl);
  // Continue the seq numbering after the warmup so window accounting (and
  // the cluster's exact-global filter, which requires unique seqs) stays
  // consistent.
  auto workload = gen.take(opts.num_tuples);
  for (auto& t : workload) t.seq += fill.size();
  const RunReport report = engine->process(workload);

  SwMeasurement out;
  out.tuples = report.tuples_processed;
  out.results = report.results_emitted;
  out.elapsed_seconds = report.elapsed_seconds;

  if (opts.registry != nullptr) {
    engine->collect_metrics(*opts.registry, opts.obs_prefix + "engine.");
    opts.registry->set_counter(opts.obs_prefix + "run.tuples", out.tuples);
    opts.registry->set_counter(opts.obs_prefix + "run.results", out.results);
    opts.registry->set_gauge(opts.obs_prefix + "run.tuples_per_sec",
                             out.tuples_per_sec(), obs::Stability::kRuntime);
  }
  return out;
}

HwModelPoint evaluate_design(const hw::DesignStats& stats,
                             const hw::FpgaDevice& device) {
  const hw::ResourceModel resources;
  const hw::TimingModel timing;
  const hw::PowerModel power;
  HwModelPoint p;
  p.usage = resources.estimate(stats, &device);
  p.fits = p.usage.fits(device);
  p.fmax_mhz = timing.fmax_mhz(stats, device);
  p.power_mw_at_fmax = power.estimate_mw(p.usage, device, p.fmax_mhz);
  return p;
}

}  // namespace hal::core
