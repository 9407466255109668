#include "hw/uniflow/hash_join_core.h"

#include "common/assert.h"

namespace hal::hw {

using stream::StreamId;
using stream::Tuple;

HashJoinCore::HashJoinCore(std::string name, std::uint32_t position,
                           std::size_t sub_window_capacity,
                           sim::Fifo<HwWord>& fetcher,
                           sim::Fifo<stream::ResultTuple>& results)
    : IUniflowCore(std::move(name)),
      position_(position),
      fetcher_(fetcher),
      results_(results) {
  win_r_.capacity = sub_window_capacity;
  win_s_.capacity = sub_window_capacity;
  watch(fetcher_);
}

void HashJoinCore::IndexedWindow::insert(const Tuple& t) {
  if (window.size() == capacity) {
    const Tuple& oldest = window.front();
    auto it = index.find(oldest.key);
    HAL_ASSERT(it != index.end() && !it->second.empty());
    it->second.pop_front();
    if (it->second.empty()) index.erase(it);
    window.pop_front();
  }
  window.push_back(t);
  index[t.key].push_back(t);
}

void HashJoinCore::prefill_store(const Tuple& t) {
  HAL_CHECK(quiescent(), "prefill requires a quiescent core");
  (t.origin == StreamId::R ? win_r_ : win_s_).insert(t);
}

void HashJoinCore::set_prefill_counts(std::uint64_t count_r,
                                      std::uint64_t count_s) {
  HAL_CHECK(quiescent(), "prefill requires a quiescent core");
  count_r_ = count_r;
  count_s_ = count_s;
}

void HashJoinCore::intake(const HwWord& w) {
  switch (w.kind) {
    case WordKind::kOperator1: {
      const Operator1 op = decode_operator1(w.payload);
      HAL_CHECK(op.num_conditions == 1,
                "hash join core supports exactly one condition");
      num_cores_ = 0;  // disabled until the condition word validates
      expected_conditions_ = op.num_conditions;
      received_conditions_ = 0;
      // Stash the core count to activate once the condition arrives.
      pending_cores_ = op.num_cores;
      state_ = State::kOpStore1;
      return;
    }
    case WordKind::kOperator2:
      HAL_ASSERT_MSG(false, "Operator2 outside a programming sequence");
      return;
    case WordKind::kTupleR:
    case WordKind::kTupleS: {
      const Tuple& t = w.tuple;
      current_ = t;
      std::uint64_t& count = t.origin == StreamId::R ? count_r_ : count_s_;
      store_turn_ = num_cores_ > 0 && (count % num_cores_) == position_;
      ++count;
      state_ = State::kHashLookup;
      return;
    }
  }
}

void HashJoinCore::eval() {
  switch (state_) {
    case State::kIdle: {
      if (!fetcher_.can_pop()) {
        sleep();  // nothing to take in until the Fetcher fills
        break;
      }
      const HwWord& front = fetcher_.front();
      if (front.kind == WordKind::kOperator2) break;  // not mid-programming
      intake(fetcher_.pop());
      break;
    }
    case State::kOpStore1:
      state_ = State::kOpStore2;
      break;
    case State::kOpStore2: {
      if (!fetcher_.can_pop()) break;
      const HwWord& front = fetcher_.front();
      if (front.kind != WordKind::kOperator2) break;
      const HwWord w = fetcher_.pop();
      const auto cond = stream::decode(w.payload);
      HAL_ASSERT_MSG(cond.has_value(), "malformed Operator2 word");
      // The hash index only accelerates an exact equi-join on the key.
      HAL_CHECK(cond->op == stream::CmpOp::Eq &&
                    cond->lhs == stream::Field::Key &&
                    cond->rhs == stream::Field::Key && cond->band == 0,
                "hash join core requires an equi-join on the key; use the "
                "nested-loop core for general operators");
      num_cores_ = pending_cores_;
      state_ = State::kIdle;
      break;
    }
    case State::kHashLookup: {
      HAL_ASSERT(current_.has_value());
      const IndexedWindow& opposite =
          current_->origin == StreamId::R ? win_s_ : win_r_;
      candidates_.clear();
      if (num_cores_ > 0) {
        const auto it = opposite.index.find(current_->key);
        if (it != opposite.index.end()) {
          candidates_.assign(it->second.begin(), it->second.end());
        }
      }
      probe_idx_ = 0;
      if (store_turn_) store_pending_ = current_;
      state_ = candidates_.empty() ? State::kStore : State::kProbe;
      break;
    }
    case State::kProbe: {
      HAL_ASSERT(probe_idx_ < candidates_.size());
      const Tuple& candidate = candidates_[probe_idx_];
      ++probe_idx_;
      ++probes_;
      HAL_ASSERT(candidate.key == current_->key);  // index invariant
      const bool is_r = current_->origin == StreamId::R;
      const Tuple& r = is_r ? *current_ : candidate;
      const Tuple& s = is_r ? candidate : *current_;
      ++matches_;
      emit_pending_ = stream::ResultTuple{r, s};
      state_ = State::kEmitResult;
      break;
    }
    case State::kEmitResult:
      HAL_ASSERT(emit_pending_.has_value());
      if (!results_.can_push()) break;  // gatherer backpressure
      results_.push(*emit_pending_);
      emit_pending_.reset();
      state_ =
          probe_idx_ < candidates_.size() ? State::kProbe : State::kStore;
      break;
    case State::kStore:
      if (store_pending_.has_value()) {
        (store_pending_->origin == StreamId::R ? win_r_ : win_s_)
            .insert(*store_pending_);
        store_pending_.reset();
      }
      state_ = State::kStoreDone;
      break;
    case State::kStoreDone:
      current_.reset();
      state_ = State::kIdle;
      break;
  }
}

}  // namespace hal::hw
