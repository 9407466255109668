#include "guard/guarded_engine.h"

namespace hal::guard {

core::RunReport GuardedEngine::process(
    const std::vector<stream::Tuple>& tuples) {
  // Delay estimate for this batch at the smoothed service rate, observed
  // BEFORE admission so the latch decision applies to the whole span.
  guard_.observe_delay_us(guard_.estimate_delay_us(tuples.size()));

  admitted_.clear();
  admitted_.reserve(tuples.size());
  guard_.filter(tuples, admitted_);

  core::RunReport report = inner_->process(admitted_);
  guard_.update_service_rate(report.elapsed_seconds * 1e6,
                             report.tuples_processed);
  return report;
}

void GuardedEngine::collect_metrics(obs::MetricRegistry& registry,
                                    const std::string& prefix) const {
  inner_->collect_metrics(registry, prefix);
  const GuardStats& s = guard_.stats();
  // Admission totals are deterministic only under force_overload or a
  // fixed latch history; tag them runtime so determinism snapshots skip
  // them (cf. the cluster's stall counters).
  registry.set_counter(prefix + "guard.admitted", s.admitted,
                       obs::Stability::kRuntime);
  registry.set_counter(prefix + "guard.shed", s.shed,
                       obs::Stability::kRuntime);
  registry.set_counter(prefix + "guard.latch_transitions",
                       s.latch_transitions, obs::Stability::kRuntime);
  registry.set_counter(prefix + "guard.overload_observations",
                       s.overload_observations, obs::Stability::kRuntime);
  registry.set_gauge(prefix + "guard.ewma_us_per_tuple",
                     guard_.ewma_us_per_tuple());
  registry.set_gauge(prefix + "guard.last_delay_us", guard_.last_delay_us());
}

}  // namespace hal::guard
