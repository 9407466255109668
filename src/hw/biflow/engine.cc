#include "hw/biflow/engine.h"

#include <algorithm>

#include "common/assert.h"
#include "hw/common/network_builder.h"

namespace hal::hw {

using stream::StreamId;
using stream::Tuple;

BiflowEngine::BiflowEngine(BiflowConfig cfg) : cfg_(cfg) {
  HAL_CHECK(cfg_.num_cores >= 1, "need at least one join core");
  HAL_CHECK(cfg_.window_size >= cfg_.num_cores,
            "window must hold at least one tuple per core");
  HAL_CHECK(cfg_.window_size % cfg_.num_cores == 0,
            "window_size must be a multiple of num_cores");
  HAL_CHECK(cfg_.costs.probe_cycles >= 1 && cfg_.costs.store_cycles >= 1 &&
                cfg_.costs.transfer_cycles >= 1 &&
                cfg_.costs.accept_cycles >= 1,
            "bi-flow operation costs must be at least one cycle");
  HAL_CHECK(cfg_.outgoing_capacity >= 2,
            "outgoing buffers need headroom for the handshake");
  HAL_CHECK(cfg_.link_depth >= 2,
            "link depth < 2 cannot sustain one word per cycle");

  const std::size_t sub_window = cfg_.window_size / cfg_.num_cores;
  const std::uint32_t n = cfg_.num_cores;

  sim_.configure(cfg_.sim);
  // Per core: 2 entry + ~2 eviction + 1 result fifo + the core itself,
  // plus channels, gathering and the test bench.
  sim_.reserve(8 * static_cast<std::size_t>(n) + 8);

  stats_.flow = FlowModel::kBiflow;
  stats_.num_cores = n;
  stats_.sub_window_capacity = sub_window;
  stats_.distribution = NetworkKind::kLightweight;  // chain ends; no tree
  stats_.gathering = cfg_.gathering;
  stats_.io_channels_per_core = 5;  // R-in, R-out, S-in, S-out, results
  stats_.max_broadcast_fanout = 1;

  // Entry ports (depth 1: the channel lock requires rendezvous semantics)
  // and eviction buffers.
  std::vector<sim::Fifo<Tuple>*> r_entry(n);
  std::vector<sim::Fifo<Tuple>*> s_entry(n);
  std::vector<sim::Fifo<Tuple>*> r_out(n, nullptr);
  std::vector<sim::Fifo<Tuple>*> s_out(n, nullptr);
  for (std::uint32_t i = 0; i < n; ++i) {
    r_entry[i] = &new_tuple_fifo("r_entry" + std::to_string(i), 1);
    s_entry[i] = &new_tuple_fifo("s_entry" + std::to_string(i), 1);
    if (i + 1 < n) {
      r_out[i] = &new_tuple_fifo("r_out" + std::to_string(i),
                                 cfg_.outgoing_capacity);
    }
    if (i > 0) {
      s_out[i] = &new_tuple_fifo("s_out" + std::to_string(i),
                                 cfg_.outgoing_capacity);
    }
  }

  // Join cores and result links.
  std::vector<sim::Fifo<stream::ResultTuple>*> result_leaves;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto& rf = new_result_fifo("results" + std::to_string(i));
    result_leaves.push_back(&rf);
    cores_.push_back(std::make_unique<BiflowJoinCore>(
        "jc" + std::to_string(i), sub_window, cfg_.costs, *r_entry[i],
        *s_entry[i], r_out[i], s_out[i], rf));
    sim_.add(*cores_.back());
    sim_.link(*cores_.back(), *r_entry[i]);
    sim_.link(*cores_.back(), *s_entry[i]);
    if (r_out[i] != nullptr) sim_.link(*cores_.back(), *r_out[i]);
    if (s_out[i] != nullptr) sim_.link(*cores_.back(), *s_out[i]);
    sim_.link(*cores_.back(), rf);
  }

  // Handshake channels on each boundary. The eviction buffers of the
  // destination cores gate transfer starts (deadlock avoidance).
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    channels_.push_back(std::make_unique<HandshakeChannel>(
        "ch" + std::to_string(i), cfg_.costs, *r_out[i], *r_entry[i + 1],
        r_out[i + 1], *s_out[i + 1], *s_entry[i], s_out[i]));
    sim_.add(*channels_.back());
    sim_.link(*channels_.back(), *r_out[i]);
    sim_.link(*channels_.back(), *r_entry[i + 1]);
    sim_.link(*channels_.back(), *s_out[i + 1]);
    sim_.link(*channels_.back(), *s_entry[i]);
  }

  // Result gathering (same building blocks as the uni-flow engine).
  auto& output = new_result_fifo("output");
  auto gather = build_gathering(
      cfg_.gathering, result_leaves, output,
      [this](const std::string& name) -> sim::Fifo<stream::ResultTuple>& {
        return new_result_fifo(name);
      },
      sim_);
  gnodes_ = std::move(gather.nodes);
  stats_.num_gnodes = gather.counted_nodes;
  stats_.max_broadcast_fanout =
      std::max(stats_.max_broadcast_fanout, gather.max_fanin);

  r_driver_ = std::make_unique<TupleDriver>("r_driver", sim_, *r_entry[0]);
  sim_.add(*r_driver_);
  sim_.link(*r_driver_, *r_entry[0]);
  s_driver_ =
      std::make_unique<TupleDriver>("s_driver", sim_, *s_entry[n - 1]);
  sim_.add(*s_driver_);
  sim_.link(*s_driver_, *s_entry[n - 1]);
  sink_ = std::make_unique<ResultSink>("sink", sim_, output);
  sim_.add(*sink_);
  sim_.link(*sink_, output);
}

sim::Fifo<Tuple>& BiflowEngine::new_tuple_fifo(std::string name,
                                               std::size_t capacity) {
  tuple_fifos_.push_back(
      std::make_unique<sim::Fifo<Tuple>>(std::move(name), capacity));
  sim_.add(*tuple_fifos_.back());
  return *tuple_fifos_.back();
}

sim::Fifo<stream::ResultTuple>& BiflowEngine::new_result_fifo(
    std::string name) {
  result_fifos_.push_back(std::make_unique<sim::Fifo<stream::ResultTuple>>(
      std::move(name), cfg_.link_depth));
  sim_.add(*result_fifos_.back());
  return *result_fifos_.back();
}

void BiflowEngine::program(const stream::JoinSpec& spec) {
  HAL_CHECK(quiescent(),
            "bi-flow operator programming requires a drained chain");
  for (auto& c : cores_) c->program(spec);
  programmed_ = true;
}

void BiflowEngine::prefill(const std::vector<Tuple>& tuples) {
  HAL_CHECK(quiescent(), "prefill requires a quiescent engine");
  std::vector<Tuple> r_list;
  std::vector<Tuple> s_list;
  for (const auto& t : tuples) {
    (t.origin == StreamId::R ? r_list : s_list).push_back(t);
  }
  const std::size_t sub = cfg_.window_size / cfg_.num_cores;
  // Keep the newest `window_size` of each stream (the rest would already
  // have expired off the chain ends).
  auto lay_out = [&](std::vector<Tuple>& list, bool is_r) {
    if (list.size() > cfg_.window_size) {
      list.erase(list.begin(),
                 list.end() - static_cast<std::ptrdiff_t>(cfg_.window_size));
    }
    // list is oldest-first. R ages rightward (core N-1 oldest slice);
    // S ages leftward (core 0 oldest slice). Slices that are not full
    // belong to the entry-side core.
    const std::size_t n = cfg_.num_cores;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::size_t age_from_newest = list.size() - 1 - i;
      const std::size_t slice = age_from_newest / sub;  // 0 = newest slice
      const std::size_t core_idx = is_r ? slice : (n - 1 - slice);
      cores_[core_idx]->prefill(list[i]);
    }
  };
  lay_out(r_list, /*is_r=*/true);
  lay_out(s_list, /*is_r=*/false);
}

void BiflowEngine::offer(const Tuple& t) {
  HAL_CHECK(programmed_, "program() must be called before offering tuples");
  (t.origin == StreamId::R ? r_driver_ : s_driver_)->enqueue(t);
}

void BiflowEngine::offer(const std::vector<Tuple>& tuples) {
  for (const auto& t : tuples) offer(t);
}

void BiflowEngine::step(std::uint64_t cycles) { sim_.step_n(cycles); }

bool BiflowEngine::quiescent() const {
  // Cores and handshake channels before FIFOs: while a tuple is in flight
  // one of them answers first.
  if (r_driver_ && (!r_driver_->done() || !s_driver_->done())) return false;
  if (!std::all_of(cores_.begin(), cores_.end(),
                   [](const auto& c) { return c->quiescent(); }) ||
      !std::all_of(channels_.begin(), channels_.end(),
                   [](const auto& c) { return c->idle(); })) {
    return false;
  }
  const auto empty = [](const auto& f) { return f->empty(); };
  return std::all_of(tuple_fifos_.begin(), tuple_fifos_.end(), empty) &&
         std::all_of(result_fifos_.begin(), result_fifos_.end(), empty);
}

std::uint64_t BiflowEngine::run_to_quiescence(std::uint64_t max_cycles,
                                              bool require_quiescent) {
  const std::uint64_t stepped =
      sim_.run_until([this] { return quiescent(); }, max_cycles);
  if (require_quiescent) {
    HAL_ASSERT_MSG(quiescent(), "engine did not quiesce within max_cycles");
  }
  return stepped;
}

std::vector<stream::ResultTuple> BiflowEngine::result_tuples() const {
  std::vector<stream::ResultTuple> out;
  out.reserve(sink_->collected().size());
  for (const auto& tr : sink_->collected()) out.push_back(tr.result);
  return out;
}

std::uint64_t BiflowEngine::last_injection_cycle() const {
  return std::max(r_driver_->last_push_cycle(), s_driver_->last_push_cycle());
}

std::uint64_t BiflowEngine::injection_cycle(std::uint64_t seq) const {
  if (r_driver_->has_injection_cycle(seq)) {
    return r_driver_->injection_cycle(seq);
  }
  return s_driver_->injection_cycle(seq);
}

void BiflowEngine::set_record_injections(bool on) {
  r_driver_->set_record_injections(on);
  s_driver_->set_record_injections(on);
}

std::uint64_t BiflowEngine::total_probes() const {
  std::uint64_t total = 0;
  for (const auto& c : cores_) total += c->probes();
  return total;
}

void BiflowEngine::collect_metrics(obs::MetricRegistry& registry,
                                   const std::string& prefix) const {
  sim_.collect_metrics(registry, prefix);

  // Reused key buffer — see UniflowEngine::collect_metrics.
  std::string key;
  key.reserve(prefix.size() + 48);
  const auto with = [&](std::string_view suffix) -> const std::string& {
    key.assign(prefix);
    key.append(suffix);
    return key;
  };

  std::uint64_t probes = 0;
  std::uint64_t matches = 0;
  std::uint64_t expired = 0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const BiflowJoinCore& c = *cores_[i];
    key.assign(prefix);
    key.append("core.");
    key.append(std::to_string(i));
    const std::size_t stem = key.size();
    key.append(".probes");
    registry.set_counter(key, c.probes());
    key.resize(stem);
    key.append(".matches");
    registry.set_counter(key, c.matches());
    key.resize(stem);
    key.append(".entries");
    registry.set_counter(key, c.entries_processed());
    key.resize(stem);
    key.append(".expired");
    registry.set_counter(key, c.expired());
    probes += c.probes();
    matches += c.matches();
    expired += c.expired();
  }
  registry.set_counter(with("probes"), probes);
  registry.set_counter(with("matches"), matches);
  registry.set_counter(with("expired"), expired);
  registry.set_counter(with("results"), sink_->collected().size());

  std::uint64_t crossings = 0;
  for (const auto& ch : channels_) crossings += ch->transfers();
  registry.set_counter(with("channel.crossings"), crossings);
  std::uint64_t gather_stalls = 0;
  for (const auto& g : gnodes_) gather_stalls += g->stall_cycles();
  registry.set_counter(with("gathering.stall_cycles"), gather_stalls);

  const auto fifo_key = [&](std::string_view name) -> const std::string& {
    key.assign(prefix);
    key.append("fifo.");
    key.append(name);
    key.append(".high_water");
    return key;
  };
  for (const auto& f : tuple_fifos_) {
    registry.set_counter(fifo_key(f->name()), f->high_water());
  }
  for (const auto& f : result_fifos_) {
    registry.set_counter(fifo_key(f->name()), f->high_water());
  }
}

}  // namespace hal::hw
