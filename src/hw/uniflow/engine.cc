#include "hw/uniflow/engine.h"

#include <algorithm>

#include "common/assert.h"
#include "common/math_util.h"
#include "hw/common/network_builder.h"

namespace hal::hw {

UniflowEngine::UniflowEngine(UniflowConfig cfg) : cfg_(cfg) {
  HAL_CHECK(cfg_.num_cores >= 1, "need at least one join core");
  HAL_CHECK(cfg_.window_size >= cfg_.num_cores,
            "window must hold at least one tuple per core");
  HAL_CHECK(cfg_.window_size % cfg_.num_cores == 0,
            "window_size must be a multiple of num_cores");
  HAL_CHECK(cfg_.fanout >= 2, "DNode fan-out must be at least 2");
  HAL_CHECK(cfg_.link_depth >= 2,
            "link depth < 2 cannot sustain one word per cycle");

  const std::size_t sub_window = cfg_.window_size / cfg_.num_cores;

  sim_.configure(cfg_.sim);
  // Fifos dominate the module count: one per core for fetch + result, the
  // network-internal links, plus nodes, driver and sink.
  sim_.reserve(6 * static_cast<std::size_t>(cfg_.num_cores) + 8);

  stats_.flow = FlowModel::kUniflow;
  stats_.num_cores = cfg_.num_cores;
  stats_.sub_window_capacity = sub_window;
  stats_.distribution = cfg_.distribution;
  stats_.gathering = cfg_.gathering;
  stats_.fanout = cfg_.fanout;
  stats_.io_channels_per_core = 2;  // in from distributor, out to gatherer
  stats_.max_broadcast_fanout = 1;
  stats_.hash_index = cfg_.algorithm == JoinAlgorithm::kHash;

  // Input port and per-core Fetchers.
  auto& input = new_word_fifo("input");
  std::vector<sim::Fifo<HwWord>*> fetchers;
  fetchers.reserve(cfg_.num_cores);
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    fetchers.push_back(&new_word_fifo("fetcher" + std::to_string(i)));
  }

  // Distribution network.
  auto dist = build_distribution(
      cfg_.distribution, cfg_.fanout, input, fetchers,
      [this](const std::string& name) -> sim::Fifo<HwWord>& {
        return new_word_fifo(name);
      },
      sim_);
  dnodes_ = std::move(dist.nodes);
  stats_.num_dnodes = dist.counted_nodes;
  stats_.max_broadcast_fanout =
      std::max(stats_.max_broadcast_fanout, dist.max_fanout);

  // Join cores and their result links.
  std::vector<sim::Fifo<stream::ResultTuple>*> result_leaves;
  for (std::uint32_t i = 0; i < cfg_.num_cores; ++i) {
    auto& rf = new_result_fifo("results" + std::to_string(i));
    result_leaves.push_back(&rf);
    if (cfg_.algorithm == JoinAlgorithm::kHash) {
      cores_.push_back(std::make_unique<HashJoinCore>(
          "jc" + std::to_string(i), i, sub_window, *fetchers[i], rf));
    } else {
      cores_.push_back(std::make_unique<UniflowJoinCore>(
          "jc" + std::to_string(i), i, sub_window, *fetchers[i], rf));
    }
    sim_.add(*cores_.back());
    sim_.link(*cores_.back(), *fetchers[i]);
    sim_.link(*cores_.back(), rf);
  }

  // Result gathering network.
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

  driver_ = std::make_unique<WordDriver>("driver", sim_, input);
  sim_.add(*driver_);
  sim_.link(*driver_, input);
  sink_ = std::make_unique<ResultSink>("sink", sim_, output);
  sim_.add(*sink_);
  sim_.link(*sink_, output);
}

sim::Fifo<HwWord>& UniflowEngine::new_word_fifo(std::string name) {
  word_fifos_.push_back(
      std::make_unique<sim::Fifo<HwWord>>(std::move(name), cfg_.link_depth));
  sim_.add(*word_fifos_.back());
  return *word_fifos_.back();
}

sim::Fifo<stream::ResultTuple>& UniflowEngine::new_result_fifo(
    std::string name) {
  result_fifos_.push_back(std::make_unique<sim::Fifo<stream::ResultTuple>>(
      std::move(name), cfg_.link_depth));
  sim_.add(*result_fifos_.back());
  return *result_fifos_.back();
}

void UniflowEngine::prefill(const std::vector<stream::Tuple>& tuples) {
  HAL_CHECK(quiescent(), "prefill requires a quiescent engine");
  // The round-robin turn is derived from per-stream arrival indices, so
  // prefill must precede any streamed tuples (otherwise the cores' private
  // counters could not be continued consistently).
  HAL_CHECK(cores_[0]->tuples_seen() == 0,
            "prefill must precede streamed tuples");
  std::uint64_t idx_r = 0;
  std::uint64_t idx_s = 0;
  for (const auto& t : tuples) {
    std::uint64_t& idx = t.origin == stream::StreamId::R ? idx_r : idx_s;
    const auto target = static_cast<std::uint32_t>(idx % cfg_.num_cores);
    cores_[target]->prefill_store(t);
    ++idx;
  }
  for (auto& core : cores_) core->set_prefill_counts(idx_r, idx_s);
}

void UniflowEngine::program(const stream::JoinSpec& spec) {
  for (const HwWord& w : make_operator_words(spec, cfg_.num_cores)) {
    driver_->enqueue(w);
  }
}

void UniflowEngine::offer(const stream::Tuple& t) {
  driver_->enqueue(make_tuple_word(t));
}

void UniflowEngine::offer(const std::vector<stream::Tuple>& tuples) {
  for (const auto& t : tuples) offer(t);
}

void UniflowEngine::step(std::uint64_t cycles) { sim_.step_n(cycles); }

bool UniflowEngine::quiescent() const {
  // Cores before FIFOs: while a tuple is in flight the first scanning core
  // answers, and the 2N+ mostly empty FIFOs are polled only once every
  // core is idle.
  if (!driver_->done()) return false;
  if (!std::all_of(cores_.begin(), cores_.end(),
                   [](const auto& c) { return c->quiescent(); })) {
    return false;
  }
  const auto empty = [](const auto& f) { return f->empty(); };
  return std::all_of(word_fifos_.begin(), word_fifos_.end(), empty) &&
         std::all_of(result_fifos_.begin(), result_fifos_.end(), empty);
}

std::uint64_t UniflowEngine::run_to_quiescence(std::uint64_t max_cycles,
                                               bool require_quiescent) {
  const std::uint64_t stepped =
      sim_.run_until([this] { return quiescent(); }, max_cycles);
  if (require_quiescent) {
    HAL_ASSERT_MSG(quiescent(), "engine did not quiesce within max_cycles");
  }
  return stepped;
}

std::vector<stream::ResultTuple> UniflowEngine::result_tuples() const {
  std::vector<stream::ResultTuple> out;
  out.reserve(sink_->collected().size());
  for (const auto& tr : sink_->collected()) out.push_back(tr.result);
  return out;
}

std::uint64_t UniflowEngine::total_probes() const {
  std::uint64_t total = 0;
  for (const auto& c : cores_) total += c->probes();
  return total;
}

void UniflowEngine::collect_metrics(obs::MetricRegistry& registry,
                                    const std::string& prefix) const {
  sim_.collect_metrics(registry, prefix);

  // One reused key buffer for the whole snapshot; with thousands of cores
  // and fifos, rebuilding `prefix + name` per metric was the hot spot of
  // the collection path (set_counter only needs a string_view).
  std::string key;
  key.reserve(prefix.size() + 48);
  const auto with = [&](std::string_view suffix) -> const std::string& {
    key.assign(prefix);
    key.append(suffix);
    return key;
  };

  std::uint64_t probes = 0;
  std::uint64_t matches = 0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const IUniflowCore& c = *cores_[i];
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
    key.append(".tuples_seen");
    registry.set_counter(key, c.tuples_seen());
    probes += c.probes();
    matches += c.matches();
  }
  registry.set_counter(with("probes"), probes);
  registry.set_counter(with("matches"), matches);
  registry.set_counter(with("results"), sink_->collected().size());

  std::uint64_t dist_stalls = 0;
  for (const auto& d : dnodes_) dist_stalls += d->stall_cycles();
  registry.set_counter(with("distribution.stall_cycles"), dist_stalls);
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
  for (const auto& f : word_fifos_) {
    registry.set_counter(fifo_key(f->name()), f->high_water());
  }
  for (const auto& f : result_fifos_) {
    registry.set_counter(fifo_key(f->name()), f->high_water());
  }
}

}  // namespace hal::hw
