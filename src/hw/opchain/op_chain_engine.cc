#include "hw/opchain/op_chain_engine.h"

#include <algorithm>

#include "common/assert.h"
#include "hw/common/network_builder.h"

namespace hal::hw {

OpChainEngine::OpChainEngine(OpChainConfig cfg) : cfg_(cfg) {
  HAL_CHECK(cfg_.num_select_cores >= 1, "need at least one selection core");
  HAL_CHECK(cfg_.join.num_cores >= 1, "need at least one join core");
  HAL_CHECK(cfg_.join.window_size % cfg_.join.num_cores == 0,
            "window_size must be a multiple of num_cores");
  HAL_CHECK(cfg_.link_depth >= 2,
            "link depth < 2 cannot sustain one word per cycle");
  HAL_CHECK(cfg_.num_select_cores < kBroadcastTarget,
            "select core id collides with the broadcast target");

  const std::size_t sub_window = cfg_.join.window_size / cfg_.join.num_cores;

  sim_.configure(cfg_.sim);
  sim_.reserve(6 * static_cast<std::size_t>(cfg_.join.num_cores) +
               2 * static_cast<std::size_t>(cfg_.num_select_cores) + 8);

  stats_.flow = FlowModel::kUniflow;
  stats_.num_cores = cfg_.join.num_cores;
  stats_.sub_window_capacity = sub_window;
  stats_.distribution = cfg_.join.distribution;
  stats_.gathering = cfg_.join.gathering;
  stats_.fanout = cfg_.join.fanout;
  stats_.io_channels_per_core = 2;
  stats_.max_broadcast_fanout = 1;
  stats_.hash_index = cfg_.join.algorithm == JoinAlgorithm::kHash;
  stats_.num_select_cores = cfg_.num_select_cores;

  // Selection pipeline: input → σ_0 → σ_1 → ... → distributor input.
  auto& input = new_word_fifo("input");
  sim::Fifo<HwWord>* upstream = &input;
  for (std::uint32_t i = 0; i < cfg_.num_select_cores; ++i) {
    auto& next = new_word_fifo("sel_out" + std::to_string(i));
    select_cores_.push_back(std::make_unique<SelectCore>(
        "sel" + std::to_string(i), i, *upstream, next));
    sim_.add(*select_cores_.back());
    sim_.link(*select_cores_.back(), *upstream);
    sim_.link(*select_cores_.back(), next);
    upstream = &next;
  }

  // Join stage.
  std::vector<sim::Fifo<HwWord>*> fetchers;
  for (std::uint32_t i = 0; i < cfg_.join.num_cores; ++i) {
    fetchers.push_back(&new_word_fifo("fetcher" + std::to_string(i)));
  }
  auto dist = build_distribution(
      cfg_.join.distribution, cfg_.join.fanout, *upstream, fetchers,
      [this](const std::string& name) -> sim::Fifo<HwWord>& {
        return new_word_fifo(name);
      },
      sim_);
  dnodes_ = std::move(dist.nodes);
  stats_.num_dnodes = dist.counted_nodes;
  stats_.max_broadcast_fanout =
      std::max(stats_.max_broadcast_fanout, dist.max_fanout);

  std::vector<sim::Fifo<stream::ResultTuple>*> result_leaves;
  for (std::uint32_t i = 0; i < cfg_.join.num_cores; ++i) {
    auto& rf = new_result_fifo("results" + std::to_string(i));
    result_leaves.push_back(&rf);
    if (cfg_.join.algorithm == JoinAlgorithm::kHash) {
      join_cores_.push_back(std::make_unique<HashJoinCore>(
          "jc" + std::to_string(i), i, sub_window, *fetchers[i], rf));
    } else {
      join_cores_.push_back(std::make_unique<UniflowJoinCore>(
          "jc" + std::to_string(i), i, sub_window, *fetchers[i], rf));
    }
    sim_.add(*join_cores_.back());
    sim_.link(*join_cores_.back(), *fetchers[i]);
    sim_.link(*join_cores_.back(), rf);
  }

  auto& output = new_result_fifo("output");
  auto gather = build_gathering(
      cfg_.join.gathering, result_leaves, output,
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

sim::Fifo<HwWord>& OpChainEngine::new_word_fifo(std::string name) {
  word_fifos_.push_back(
      std::make_unique<sim::Fifo<HwWord>>(std::move(name), cfg_.link_depth));
  sim_.add(*word_fifos_.back());
  return *word_fifos_.back();
}

sim::Fifo<stream::ResultTuple>& OpChainEngine::new_result_fifo(
    std::string name) {
  result_fifos_.push_back(std::make_unique<sim::Fifo<stream::ResultTuple>>(
      std::move(name), cfg_.link_depth));
  sim_.add(*result_fifos_.back());
  return *result_fifos_.back();
}

void OpChainEngine::program_select(std::uint32_t core_id,
                                   const SelectSpec& spec) {
  HAL_CHECK(core_id < cfg_.num_select_cores, "no such selection core");
  for (const HwWord& w : make_select_words(spec, core_id)) {
    driver_->enqueue(w);
  }
}

void OpChainEngine::program_join(const stream::JoinSpec& spec) {
  for (const HwWord& w :
       make_operator_words(spec, cfg_.join.num_cores)) {
    driver_->enqueue(w);
  }
}

void OpChainEngine::step(std::uint64_t cycles) { sim_.step_n(cycles); }

bool OpChainEngine::quiescent() const {
  // Cores before FIFOs: while a tuple is in flight a core answers first.
  if (!driver_->done()) return false;
  const auto idle = [](const auto& c) { return c->quiescent(); };
  if (!std::all_of(select_cores_.begin(), select_cores_.end(), idle) ||
      !std::all_of(join_cores_.begin(), join_cores_.end(), idle)) {
    return false;
  }
  const auto empty = [](const auto& f) { return f->empty(); };
  return std::all_of(word_fifos_.begin(), word_fifos_.end(), empty) &&
         std::all_of(result_fifos_.begin(), result_fifos_.end(), empty);
}

std::uint64_t OpChainEngine::run_to_quiescence(std::uint64_t max_cycles,
                                               bool require_quiescent) {
  const std::uint64_t stepped =
      sim_.run_until([this] { return quiescent(); }, max_cycles);
  if (require_quiescent) {
    HAL_ASSERT_MSG(quiescent(), "engine did not quiesce within max_cycles");
  }
  return stepped;
}

std::vector<stream::ResultTuple> OpChainEngine::result_tuples() const {
  std::vector<stream::ResultTuple> out;
  out.reserve(sink_->collected().size());
  for (const auto& tr : sink_->collected()) out.push_back(tr.result);
  return out;
}

}  // namespace hal::hw
