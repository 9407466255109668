#include "hw/uniflow/join_core.h"

#include "common/assert.h"

namespace hal::hw {

using stream::StreamId;
using stream::Tuple;

const char* to_string(StorageState s) noexcept {
  switch (s) {
    case StorageState::kIdle: return "IDLE";
    case StorageState::kOpStore1: return "OperatorStore1";
    case StorageState::kOpStore2: return "OperatorStore2";
    case StorageState::kStoreR: return "StoreInWindowR";
    case StorageState::kStoreRDone: return "RStoreDone";
    case StorageState::kStoreS: return "StoreInWindowS";
    case StorageState::kStoreSDone: return "SStoreDone";
  }
  return "?";
}

const char* to_string(ProcState s) noexcept {
  switch (s) {
    case ProcState::kIdle: return "IDLE";
    case ProcState::kOpRead1: return "OperatorRead1";
    case ProcState::kOpRead2: return "OperatorRead2";
    case ProcState::kJoinProc: return "JoinProcessing";
    case ProcState::kEmitResult: return "EmitResult";
    case ProcState::kJoinWait: return "JoinWait";
    case ProcState::kSkip: return "ProcessingSkip";
  }
  return "?";
}

UniflowJoinCore::UniflowJoinCore(std::string name, std::uint32_t position,
                                 std::size_t sub_window_capacity,
                                 sim::Fifo<HwWord>& fetcher,
                                 sim::Fifo<stream::ResultTuple>& results)
    : IUniflowCore(std::move(name)),
      position_(position),
      win_r_(sub_window_capacity),
      win_s_(sub_window_capacity),
      fetcher_(fetcher),
      results_(results) {
  watch(fetcher_);
}

void UniflowJoinCore::prefill_store(const Tuple& t) {
  HAL_CHECK(quiescent(), "prefill requires a quiescent core");
  (t.origin == StreamId::R ? win_r_ : win_s_).insert(t);
}

void UniflowJoinCore::set_prefill_counts(std::uint64_t count_r,
                                         std::uint64_t count_s) {
  HAL_CHECK(quiescent(), "prefill requires a quiescent core");
  count_r_ = count_r;
  count_s_ = count_s;
}

bool UniflowJoinCore::ready_for_any_word() const noexcept {
  return sstate_ == StorageState::kIdle &&
         (pstate_ == ProcState::kIdle || pstate_ == ProcState::kJoinWait);
}

void UniflowJoinCore::eval() {
  // Mid-skip (kJoinProc below): the reads up to the timed wake are misses
  // already counted. An early wake, a word reaching the Fetcher, only
  // sleeps again; the pending timer stands.
  if (skip_until_ != 0) {
    if (now() < skip_until_) {
      sleep();
      return;
    }
    skip_until_ = 0;
  }
  // Intake: pop a word from the Fetcher when the controllers can accept it.
  // The intake cycle only dispatches; the controllers start working on the
  // word in the following cycle.
  if (fetcher_.can_pop()) {
    const HwWord& front = fetcher_.front();
    if (front.kind == WordKind::kOperator2) {
      // Condition words are consumed while both controllers sit in their
      // OperatorStore2 / OperatorRead2 states (one word per cycle).
      if (sstate_ == StorageState::kOpStore2 &&
          pstate_ == ProcState::kOpRead2 &&
          pending_conditions_.size() < expected_conditions_) {
        const HwWord w = fetcher_.pop();
        const auto cond = stream::decode(w.payload);
        HAL_ASSERT_MSG(cond.has_value(), "malformed Operator2 word");
        pending_conditions_.push_back(*cond);
      }
    } else if (ready_for_any_word()) {
      intake(fetcher_.pop());
      return;
    }
  } else if (ready_for_any_word()) {
    sleep();  // idle with an empty Fetcher: nothing to advance
    return;
  }
  advance_storage();
  advance_processing();
}

void UniflowJoinCore::intake(const HwWord& w) {
  switch (w.kind) {
    case WordKind::kOperator1: {
      const Operator1 op = decode_operator1(w.payload);
      pending_num_cores_ = op.num_cores;
      expected_conditions_ = op.num_conditions;
      pending_conditions_.clear();
      sstate_ = StorageState::kOpStore1;
      pstate_ = ProcState::kOpRead1;
      return;
    }
    case WordKind::kOperator2:
      HAL_ASSERT_MSG(false, "Operator2 word outside a programming sequence");
      return;
    case WordKind::kTupleR:
    case WordKind::kTupleS: {
      const Tuple& t = w.tuple;
      HAL_ASSERT((w.kind == WordKind::kTupleR) ==
                 (t.origin == StreamId::R));
      // Storage Core: round-robin turn decision (Fig. 12).
      std::uint64_t& count = t.origin == StreamId::R ? count_r_ : count_s_;
      const bool my_turn =
          num_cores_ > 0 && (count % num_cores_) == position_;
      ++count;
      if (my_turn) {
        store_pending_ = t;
        sstate_ = t.origin == StreamId::R ? StorageState::kStoreR
                                          : StorageState::kStoreS;
      } else {
        // "Not Store Turn": skip straight to the done state.
        sstate_ = t.origin == StreamId::R ? StorageState::kStoreRDone
                                          : StorageState::kStoreSDone;
      }
      // Processing Core: begin scanning the opposite sub-window (Fig. 13).
      const SubWindow& opposite =
          t.origin == StreamId::R ? win_s_ : win_r_;
      if (num_cores_ == 0 || opposite.size() == 0) {
        pstate_ = ProcState::kSkip;
      } else {
        probe_tuple_ = t;
        scan_idx_ = 0;
        scan_len_ = opposite.size();
        pstate_ = ProcState::kJoinProc;
      }
      return;
    }
  }
}

void UniflowJoinCore::advance_storage() {
  switch (sstate_) {
    case StorageState::kIdle:
      break;
    case StorageState::kOpStore1:
      sstate_ = StorageState::kOpStore2;
      break;
    case StorageState::kOpStore2:
      if (pending_conditions_.size() == expected_conditions_) {
        // Programming complete: swap in the new operator atomically.
        num_cores_ = pending_num_cores_;
        stream::JoinSpec spec;
        for (const auto& c : pending_conditions_) spec.add(c);
        spec_ = spec;
        sstate_ = StorageState::kIdle;
      }
      break;
    case StorageState::kStoreR:
      HAL_ASSERT(store_pending_.has_value());
      win_r_.insert(*store_pending_);
      store_pending_.reset();
      sstate_ = StorageState::kStoreRDone;
      break;
    case StorageState::kStoreS:
      HAL_ASSERT(store_pending_.has_value());
      win_s_.insert(*store_pending_);
      store_pending_.reset();
      sstate_ = StorageState::kStoreSDone;
      break;
    case StorageState::kStoreRDone:
    case StorageState::kStoreSDone:
      sstate_ = StorageState::kIdle;
      break;
  }
}

void UniflowJoinCore::advance_processing() {
  switch (pstate_) {
    case ProcState::kIdle:
    case ProcState::kJoinWait:
      break;  // waiting for intake
    case ProcState::kOpRead1:
      pstate_ = ProcState::kOpRead2;
      break;
    case ProcState::kOpRead2:
      if (pending_conditions_.size() == expected_conditions_ &&
          sstate_ != StorageState::kOpStore2) {
        // Storage side finalized the operator registers this cycle.
        pstate_ = ProcState::kJoinWait;
      }
      break;
    case ProcState::kJoinProc: {
      HAL_ASSERT(probe_tuple_.has_value());
      const SubWindow& opposite =
          probe_tuple_->origin == StreamId::R ? win_s_ : win_r_;
      HAL_ASSERT(scan_idx_ < scan_len_ && scan_len_ == opposite.size());
      if (sstate_ == StorageState::kIdle) {
        // Sleep through the misses before the next read that changes
        // state: a match, or the last candidate.
        const std::size_t next = next_read(opposite);
        if (next > scan_idx_) {
          const std::size_t misses = next - scan_idx_;
          scan_idx_ = next;
          probes_ += misses;
          skip_until_ = now() + misses;
          sleep_until(skip_until_);
          break;
        }
      }
      const Tuple& candidate = opposite.at(scan_idx_);
      ++scan_idx_;
      ++probes_;
      const Tuple& r =
          probe_tuple_->origin == StreamId::R ? *probe_tuple_ : candidate;
      const Tuple& s =
          probe_tuple_->origin == StreamId::R ? candidate : *probe_tuple_;
      if (spec_.matches(r, s)) {
        emit_pending_ = stream::ResultTuple{r, s};
        ++matches_;
        pstate_ = ProcState::kEmitResult;
      } else if (scan_idx_ == scan_len_) {
        probe_tuple_.reset();
        pstate_ = ProcState::kJoinWait;
      }
      break;
    }
    case ProcState::kEmitResult:
      HAL_ASSERT(emit_pending_.has_value());
      if (results_.can_push()) {
        results_.push(*emit_pending_);
        emit_pending_.reset();
        if (scan_idx_ == scan_len_) {
          probe_tuple_.reset();
          pstate_ = ProcState::kJoinWait;
        } else {
          pstate_ = ProcState::kJoinProc;
        }
      }
      // else: stall in EmitResult until the gathering network drains.
      break;
    case ProcState::kSkip:
      pstate_ = ProcState::kJoinWait;
      break;
  }
}

std::size_t UniflowJoinCore::next_read(const SubWindow& opposite) const {
  const Tuple& probe = *probe_tuple_;
  const std::size_t last = scan_len_ - 1;
  if (spec_.is_pure_key_equi()) {
    return opposite.find_key(scan_idx_, last, probe.key);
  }
  const bool probe_is_r = probe.origin == StreamId::R;
  return opposite.find_if(scan_idx_, last, [&](const Tuple& c) {
    return probe_is_r ? spec_.matches(probe, c) : spec_.matches(c, probe);
  });
}

std::uint64_t UniflowJoinCore::probes() const noexcept {
  if (skip_until_ == 0) return probes_;
  // A skip counted its misses up front; those whose read cycle has not
  // elapsed are not probes yet.
  const std::uint64_t t = now();
  return probes_ - (skip_until_ > t ? skip_until_ - t : 0);
}

}  // namespace hal::hw
