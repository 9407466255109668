// Uni-flow join core (Fig. 11) with the Storage Core and Processing Core
// controllers of Figs. 12 and 13.
//
// The core sits behind its Fetcher (a depth-2 input buffer that decouples
// it from the distribution network) and owns one sub-window per stream.
// A word is consumed from the Fetcher only when both controllers can
// accept it; the Storage Core then walks Fig. 12's states (round-robin
// turn counting, store/skip) while the Processing Core walks Fig. 13's
// (one sub-window read per cycle in Join Processing, one extra cycle in
// Emit Result per match, Processing Skip when there is nothing to scan).
//
// Skip-ahead scans. Fig. 13 reads one candidate per cycle, and the cycle
// accounting stays exactly that; only the host work of the misses goes.
// Once the Storage Core is idle (the store and store-done cycles after
// intake stay visible through storage_state()), the core searches the
// opposite sub-window in one pass for the next match, or the last
// candidate, advances scan_idx_ past the misses and sleeps until the cycle
// at which the per-cycle FSM would read that candidate
// (Module::sleep_until). It then reads it as before: Emit Result, its
// backpressure stall and Join Wait fall on the same cycles. A pure
// key-equi spec searches the sub-window's key lane, where
// simd::probe_count rules out whole stretches of the ring
// (SubWindow::find_key); other specs test JoinSpec::matches slot by
// slot. The opposite window cannot change mid-scan, since the core holds
// one word in flight and stores only into its own stream's window.
// probes() counts the skipped reads only as their cycles elapse, and
// proc_state() reads Join Processing throughout, so every observer sees
// the per-cycle FSM. An early wake (a word reaching the Fetcher) sleeps
// again; the threaded kernel's every-cycle eval() is a no-op until the
// wake cycle.
//
// The join operator is runtime-programmable by a two-segment instruction:
// segment 1 carries the number of join cores and the number of condition
// words, segment 2 carries one condition per word (Operator Store 1/2 and
// Operator Read 1/2 states). The core's own position among its peers is a
// synthesis-time parameter, as in the modeled hardware.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/common/sub_window.h"
#include "hw/common/word.h"
#include "hw/uniflow/core_interface.h"
#include "sim/fifo.h"
#include "sim/module.h"
#include "stream/join_spec.h"

namespace hal::hw {

enum class StorageState : std::uint8_t {
  kIdle,
  kOpStore1,
  kOpStore2,
  kStoreR,
  kStoreRDone,
  kStoreS,
  kStoreSDone,
};

enum class ProcState : std::uint8_t {
  kIdle,
  kOpRead1,
  kOpRead2,
  kJoinProc,
  kEmitResult,
  kJoinWait,
  kSkip,
};

[[nodiscard]] const char* to_string(StorageState s) noexcept;
[[nodiscard]] const char* to_string(ProcState s) noexcept;

class UniflowJoinCore final : public IUniflowCore {
 public:
  UniflowJoinCore(std::string name, std::uint32_t position,
                  std::size_t sub_window_capacity, sim::Fifo<HwWord>& fetcher,
                  sim::Fifo<stream::ResultTuple>& results);

  void eval() override;

  // Simulation-state injection (bench warm-start, see engine::prefill):
  // stores one tuple this core's round-robin turn selected, and afterwards
  // sets the turn counters every core advanced while the batch streamed
  // "past" it. Only valid while the core is quiescent and nothing has
  // streamed yet.
  void prefill_store(const stream::Tuple& t) override;
  void set_prefill_counts(std::uint64_t count_r,
                          std::uint64_t count_s) override;

  // -- introspection (tests, engine idle detection, power activity) --
  [[nodiscard]] StorageState storage_state() const noexcept { return sstate_; }
  [[nodiscard]] ProcState proc_state() const noexcept { return pstate_; }
  [[nodiscard]] bool quiescent() const noexcept override {
    return sstate_ == StorageState::kIdle &&
           (pstate_ == ProcState::kIdle || pstate_ == ProcState::kJoinWait);
  }
  [[nodiscard]] const SubWindow& window(stream::StreamId id) const noexcept {
    return id == stream::StreamId::R ? win_r_ : win_s_;
  }
  [[nodiscard]] std::size_t window_size(
      stream::StreamId id) const noexcept override {
    return window(id).size();
  }
  [[nodiscard]] const stream::JoinSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint32_t programmed_cores() const noexcept {
    return num_cores_;
  }
  [[nodiscard]] std::uint64_t probes() const noexcept override;
  [[nodiscard]] std::uint64_t matches() const noexcept override {
    return matches_;
  }
  [[nodiscard]] std::uint64_t tuples_seen() const noexcept override {
    return count_r_ + count_s_;
  }
  [[nodiscard]] std::uint32_t position() const noexcept { return position_; }

 private:
  [[nodiscard]] bool ready_for_any_word() const noexcept;
  // The scan index of the next read that changes state: the first match
  // at or after scan_idx_, else the last candidate.
  [[nodiscard]] std::size_t next_read(const SubWindow& opposite) const;
  void intake(const HwWord& w);
  void advance_storage();
  void advance_processing();

  const std::uint32_t position_;
  SubWindow win_r_;
  SubWindow win_s_;
  sim::Fifo<HwWord>& fetcher_;
  sim::Fifo<stream::ResultTuple>& results_;

  // Controller state. Internal to this module (only fifo traffic crosses
  // module boundaries), so plain members are two-phase-safe.
  StorageState sstate_ = StorageState::kIdle;
  ProcState pstate_ = ProcState::kIdle;

  // Operator registers (segment 1 + accumulated segment-2 conditions).
  std::uint32_t num_cores_ = 0;  // 0 = unprogrammed: store/probe disabled
  std::uint32_t expected_conditions_ = 0;
  std::uint32_t pending_num_cores_ = 0;
  std::vector<stream::JoinCondition> pending_conditions_;
  stream::JoinSpec spec_;

  // Round-robin storage turn counters (Fig. 12: the core "remembers the
  // number of tuples received from each stream").
  std::uint64_t count_r_ = 0;
  std::uint64_t count_s_ = 0;

  // In-flight tuple being stored / probed.
  std::optional<stream::Tuple> store_pending_;
  std::optional<stream::Tuple> probe_tuple_;
  std::size_t scan_idx_ = 0;
  std::size_t scan_len_ = 0;
  // While nonzero, the cycle of the read a skip sleeps until.
  std::uint64_t skip_until_ = 0;
  std::optional<stream::ResultTuple> emit_pending_;

  // Activity counters for the power model.
  std::uint64_t probes_ = 0;
  std::uint64_t matches_ = 0;
};

}  // namespace hal::hw
