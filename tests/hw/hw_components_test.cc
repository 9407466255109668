// Component-level tests: sub-window storage, bus words, DNode/GNode
// behavior, and cycle-exact FSM conformance of the uni-flow join core to
// Figs. 12 and 13.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "hw/common/sub_window.h"
#include "hw/common/word.h"
#include "hw/uniflow/dnode.h"
#include "hw/uniflow/gnode.h"
#include "hw/uniflow/join_core.h"
#include "sim/simulator.h"
#include "simd/probe.h"

namespace hal::hw {
namespace {

using stream::StreamId;
using stream::Tuple;

Tuple make_tuple(std::uint32_t key, StreamId origin, std::uint64_t seq) {
  Tuple t;
  t.key = key;
  t.origin = origin;
  t.seq = seq;
  return t;
}

// --- SubWindow -----------------------------------------------------------------

TEST(SubWindow, InsertsAndReadsOldestFirst) {
  SubWindow w(4);
  for (std::uint32_t i = 0; i < 3; ++i) {
    w.insert(make_tuple(i, StreamId::R, i));
  }
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.at(0).key, 0u);
  EXPECT_EQ(w.at(2).key, 2u);
}

TEST(SubWindow, OverwritesOldestWhenFull) {
  SubWindow w(3);
  for (std::uint32_t i = 0; i < 5; ++i) {
    w.insert(make_tuple(i, StreamId::R, i));
  }
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.at(0).key, 2u);  // 0 and 1 expired
  EXPECT_EQ(w.at(1).key, 3u);
  EXPECT_EQ(w.at(2).key, 4u);
}

TEST(SubWindow, ClearResets) {
  SubWindow w(2);
  w.insert(make_tuple(1, StreamId::R, 0));
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  w.insert(make_tuple(9, StreamId::R, 1));
  EXPECT_EQ(w.at(0).key, 9u);
}

// The key lane's search returns what a scan of the tuples returns, for every
// (from, last) pair: capacities 1-130 (a lane shorter than, equal to and
// longer than the SIMD width, and its tail), rings filled below, at and past
// capacity (wrapped at several write positions), duplicate-heavy keys and an
// absent one, on the scalar kernels and on the detected ISA.
TEST(SubWindow, KeyLaneSearchMatchesTupleScan) {
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::detected_isa()}) {
    ASSERT_EQ(simd::force_isa(isa), isa);
    std::uint32_t lcg = 12345;
    for (std::size_t cap = 1; cap <= 130; ++cap) {
      for (const std::size_t fill :
           {cap / 2, cap, cap + 1 + cap / 3, 2 * cap + 5}) {
        SubWindow w(cap);
        for (std::size_t i = 0; i < fill; ++i) {
          lcg = lcg * 1664525u + 1013904223u;
          w.insert(make_tuple((lcg >> 16) % 4, StreamId::R, i));
        }
        const std::size_t n = w.size();
        for (const std::uint32_t key : {0u, 3u, 9u}) {
          // next[i]: the first index >= i whose tuple carries `key`.
          std::vector<std::size_t> next(n + 1, n);
          for (std::size_t i = n; i-- > 0;) {
            next[i] = w.at(i).key == key ? i : next[i + 1];
          }
          for (std::size_t from = 0; from <= n; ++from) {
            ASSERT_EQ(w.find_if(from, n,
                                [key](const Tuple& t) { return t.key == key; }),
                      next[from]);
            for (std::size_t last = from; last <= n; ++last) {
              ASSERT_EQ(w.find_key(from, last, key),
                        std::min(next[from], last))
                  << "isa " << simd::to_string(isa) << ", capacity " << cap
                  << ", fill " << fill << ", key " << key << ", [" << from
                  << ", " << last << ")";
            }
          }
        }
      }
    }
  }
  simd::reset_isa();
}

// --- words ----------------------------------------------------------------------

TEST(HwWord, OperatorSequenceHasSegmentsAndConditions) {
  stream::JoinSpec spec = stream::JoinSpec::band_on_key(3);
  const auto words = make_operator_words(spec, 16);
  ASSERT_EQ(words.size(), 3u);  // segment 1 + two conditions
  EXPECT_EQ(words[0].kind, WordKind::kOperator1);
  const Operator1 op1 = decode_operator1(words[0].payload);
  EXPECT_EQ(op1.num_cores, 16u);
  EXPECT_EQ(op1.num_conditions, 2u);
  EXPECT_EQ(words[1].kind, WordKind::kOperator2);
  const auto c = stream::decode(words[1].payload);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, spec.conjuncts()[0]);
}

TEST(HwWord, TupleWordCarriesHeaderAndPayload) {
  const Tuple t = make_tuple(7, StreamId::S, 42);
  const HwWord w = make_tuple_word(t);
  EXPECT_EQ(w.kind, WordKind::kTupleS);
  EXPECT_TRUE(w.is_tuple());
  EXPECT_EQ(w.payload, t.payload());
}

// --- DNode / GNode ----------------------------------------------------------------

TEST(DNode, BroadcastsOnlyWhenAllOutputsAccept) {
  sim::Fifo<HwWord> in("in", 4);
  sim::Fifo<HwWord> out1("o1", 1);
  sim::Fifo<HwWord> out2("o2", 1);
  DNode node("d", in, {&out1, &out2});
  sim::Simulator sim;
  sim.add(in);
  sim.add(out1);
  sim.add(out2);
  sim.add(node);

  in.push(make_tuple_word(make_tuple(1, StreamId::R, 0)));
  in.commit();
  // Fill out2 so the broadcast must stall.
  out2.push(make_tuple_word(make_tuple(9, StreamId::R, 9)));
  out2.commit();

  sim.step();
  EXPECT_EQ(out1.size(), 0u) << "no partial broadcast";
  EXPECT_EQ(in.size(), 1u);

  (void)out2.pop();  // consumer drains out2
  sim.step();        // pop commits; dnode still saw it full this cycle
  sim.step();        // now the broadcast proceeds
  EXPECT_EQ(out1.size(), 1u);
  EXPECT_EQ(out2.size(), 1u);
  EXPECT_EQ(node.forwarded(), 1u);
}

TEST(GNode, ToggleGrantAlternatesInputs) {
  sim::Fifo<stream::ResultTuple> a("a", 8);
  sim::Fifo<stream::ResultTuple> b("b", 8);
  sim::Fifo<stream::ResultTuple> out("out", 8);
  GNode node("g", {&a, &b}, out);
  sim::Simulator sim;
  sim.add(a);
  sim.add(b);
  sim.add(out);
  sim.add(node);

  stream::ResultTuple ra;
  ra.r.seq = 1;
  stream::ResultTuple rb;
  rb.r.seq = 2;
  for (int i = 0; i < 3; ++i) {
    a.push(ra);
    b.push(rb);
    a.commit();
    b.commit();
  }
  for (int i = 0; i < 6; ++i) sim.step();
  ASSERT_EQ(out.size(), 6u);
  // Toggle grant: a, b, a, b, ...
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(out.pop().r.seq, i % 2 == 0 ? 1u : 2u);
    out.commit();
  }
}

TEST(GNode, SingleInputDrainsEveryCycle) {
  sim::Fifo<stream::ResultTuple> a("a", 8);
  sim::Fifo<stream::ResultTuple> out("out", 8);
  GNode node("g", {&a}, out);
  sim::Simulator sim;
  sim.add(a);
  sim.add(out);
  sim.add(node);
  for (int i = 0; i < 4; ++i) {
    a.push(stream::ResultTuple{});
    a.commit();
  }
  for (int i = 0; i < 4; ++i) sim.step();
  EXPECT_EQ(out.size(), 4u);
}

// --- Join core FSM conformance (Figs. 12 / 13) --------------------------------------

class JoinCoreFsm : public testing::Test {
 protected:
  JoinCoreFsm()
      : fetcher_("fetcher", 8),
        results_("results", 2),
        core_("jc", /*position=*/0, /*sub_window=*/4, fetcher_, results_) {
    sim_.add(fetcher_);
    sim_.add(results_);
    sim_.add(core_);
  }

  void push(const HwWord& w) { fetcher_.push(w); }
  void step() { sim_.step(); }

  // Programs an equi-join for a 1-core design and steps until idle.
  void program_equi() {
    const auto words =
        make_operator_words(stream::JoinSpec::equi_on_key(), 1);
    for (const auto& w : words) {
      push(w);
      step();
    }
    for (int i = 0; i < 6; ++i) step();
    ASSERT_EQ(core_.storage_state(), StorageState::kIdle);
    ASSERT_EQ(core_.proc_state(), ProcState::kJoinWait);
  }

  sim::Simulator sim_;
  sim::Fifo<HwWord> fetcher_;
  sim::Fifo<stream::ResultTuple> results_;
  UniflowJoinCore core_;
};

TEST_F(JoinCoreFsm, OperatorProgrammingWalksOperatorStates) {
  const auto words = make_operator_words(stream::JoinSpec::equi_on_key(), 1);
  push(words[0]);
  step();  // word becomes visible
  step();  // intake of segment 1
  EXPECT_EQ(core_.storage_state(), StorageState::kOpStore1);
  EXPECT_EQ(core_.proc_state(), ProcState::kOpRead1);
  push(words[1]);
  step();
  EXPECT_EQ(core_.storage_state(), StorageState::kOpStore2);
  EXPECT_EQ(core_.proc_state(), ProcState::kOpRead2);
  step();  // condition word consumed; operator finalized
  EXPECT_EQ(core_.storage_state(), StorageState::kIdle);
  EXPECT_EQ(core_.proc_state(), ProcState::kJoinWait);
  EXPECT_EQ(core_.programmed_cores(), 1u);
  EXPECT_EQ(core_.spec(), stream::JoinSpec::equi_on_key());
}

TEST_F(JoinCoreFsm, FirstTupleSkipsProcessingAndStores) {
  program_equi();
  push(make_tuple_word(make_tuple(5, StreamId::R, 0)));
  step();  // visible
  step();  // intake: my turn (position 0 of 1)
  EXPECT_EQ(core_.storage_state(), StorageState::kStoreR);
  EXPECT_EQ(core_.proc_state(), ProcState::kSkip)
      << "empty opposite window → Processing Skip";
  step();
  EXPECT_EQ(core_.storage_state(), StorageState::kStoreRDone);
  EXPECT_EQ(core_.proc_state(), ProcState::kJoinWait);
  step();
  EXPECT_EQ(core_.storage_state(), StorageState::kIdle);
  EXPECT_EQ(core_.window(StreamId::R).size(), 1u);
}

TEST_F(JoinCoreFsm, MatchingTupleWalksJoinProcessingEmitResult) {
  program_equi();
  push(make_tuple_word(make_tuple(5, StreamId::R, 0)));
  for (int i = 0; i < 6; ++i) step();

  push(make_tuple_word(make_tuple(5, StreamId::S, 1)));
  step();
  step();  // intake
  EXPECT_EQ(core_.proc_state(), ProcState::kJoinProc);
  EXPECT_EQ(core_.storage_state(), StorageState::kStoreS);
  step();  // probe finds the match
  EXPECT_EQ(core_.proc_state(), ProcState::kEmitResult);
  step();  // emit (one extra cycle per match, Fig. 13)
  EXPECT_EQ(core_.proc_state(), ProcState::kJoinWait);
  step();
  EXPECT_EQ(results_.size(), 1u);
  EXPECT_EQ(core_.matches(), 1u);
  EXPECT_EQ(core_.probes(), 1u);
}

TEST_F(JoinCoreFsm, NotMyTurnGoesStraightToStoreDone) {
  // Program for a 4-core design; this core is position 0, so tuple #2 of
  // the R stream (count 1) is not its turn.
  const auto words = make_operator_words(stream::JoinSpec::equi_on_key(), 4);
  for (const auto& w : words) {
    push(w);
    step();
  }
  for (int i = 0; i < 6; ++i) step();

  push(make_tuple_word(make_tuple(5, StreamId::R, 0)));
  for (int i = 0; i < 6; ++i) step();
  ASSERT_EQ(core_.window(StreamId::R).size(), 1u);  // turn 0: stored

  push(make_tuple_word(make_tuple(6, StreamId::R, 1)));
  step();
  step();  // intake
  EXPECT_EQ(core_.storage_state(), StorageState::kStoreRDone)
      << "\"Not Store Turn\" edge of Fig. 12";
  for (int i = 0; i < 4; ++i) step();
  EXPECT_EQ(core_.window(StreamId::R).size(), 1u) << "tuple not stored";
}

TEST_F(JoinCoreFsm, EmitStallsWhenResultFifoIsFull) {
  program_equi();
  // Three S tuples with the same key; then an R probe matches all three,
  // but the results fifo (capacity 2) backs the core up in EmitResult.
  for (std::uint64_t i = 0; i < 3; ++i) {
    push(make_tuple_word(make_tuple(5, StreamId::S, i)));
    for (int k = 0; k < 6; ++k) step();
  }
  push(make_tuple_word(make_tuple(5, StreamId::R, 10)));
  for (int k = 0; k < 10; ++k) step();
  EXPECT_EQ(core_.proc_state(), ProcState::kEmitResult)
      << "stalled on gatherer backpressure";
  EXPECT_EQ(results_.size(), 2u);
  // Drain one slot; the core resumes and finishes.
  (void)results_.pop();
  for (int k = 0; k < 6; ++k) step();
  EXPECT_EQ(core_.proc_state(), ProcState::kJoinWait);
  EXPECT_EQ(core_.matches(), 3u);
}

TEST_F(JoinCoreFsm, TupleQueuesBehindOperatorProgramming) {
  // A tuple offered mid-programming waits in the Fetcher.
  const auto words = make_operator_words(stream::JoinSpec::equi_on_key(), 1);
  push(words[0]);
  step();
  push(words[1]);
  step();  // intake of segment 1 happened
  push(make_tuple_word(make_tuple(5, StreamId::R, 0)));
  step();
  EXPECT_GE(fetcher_.size(), 1u) << "tuple parked during programming";
  for (int i = 0; i < 8; ++i) step();
  EXPECT_EQ(core_.window(StreamId::R).size(), 1u)
      << "tuple consumed after programming completed";
}

// --- Join core scan trace (Fig. 13 timing, cycle by cycle) ------------------

// One token per cycle: proc and storage state, probes(), matches(), and the
// results FIFO's and the Fetcher's sizes, read between cycles. State codes
// follow the enums' order: proc I 1 2 J(JoinProc) E(EmitResult) W(JoinWait)
// K(Skip); storage I 1 2 R(StoreR) r(RStoreDone) S(StoreS) s(SStoreDone).
std::vector<std::string> trace_scan(const stream::JoinSpec& spec,
                                    std::uint32_t sim_threads) {
  sim::Simulator sim(sim::SimConfig{.threads = sim_threads});
  sim::Fifo<HwWord> fetcher("fetcher", 8);
  sim::Fifo<stream::ResultTuple> results("results", 1);  // EmitResult stalls
  UniflowJoinCore core("jc", /*position=*/0, /*sub_window=*/16, fetcher,
                       results);
  sim.add(fetcher);
  sim.add(results);
  sim.add(core);

  // 21 S tuples through a ring of 16: the resident ones start at slot 5, and
  // the R probe's key-5 matches sit at logical positions 0, 7 and 15.
  for (std::uint64_t seq = 0; seq < 21; ++seq) {
    const std::uint64_t pos = seq - 5;  // wraps for the 5 evicted tuples
    const bool match = pos == 0 || pos == 7 || pos == 15;
    const auto key = static_cast<std::uint32_t>(match ? 5 : 100 + pos);
    core.prefill_store(make_tuple(seq < 5 ? 999 : key, StreamId::S, seq));
  }
  // 10 R tuples; the S probe's key 5 matches position 2 and the first R
  // probe, stored behind them at position 10.
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    const auto key = static_cast<std::uint32_t>(seq == 2 ? 5 : 200 + seq);
    core.prefill_store(make_tuple(key, StreamId::R, seq));
  }
  core.set_prefill_counts(10, 21);
  for (const auto& w : make_operator_words(spec, 1)) {
    fetcher.push(w);
    sim.step();
  }
  for (int i = 0; i < 6; ++i) sim.step();
  EXPECT_EQ(core.proc_state(), ProcState::kJoinWait);

  const auto offer = [&](std::uint32_t key, StreamId id, std::uint64_t seq) {
    fetcher.push(make_tuple_word(make_tuple(key, id, seq)));
  };
  std::vector<std::string> trace;
  for (int c = 0; c < 80; ++c) {
    if (c == 0) offer(5, StreamId::R, 10);
    // Mid-scan: a second R word (key 103 sits at logical position 3) waits
    // in the Fetcher until the first scan ends.
    if (c == 8) offer(103, StreamId::R, 11);
    if (c == 46) offer(5, StreamId::S, 21);
    if (c % 10 == 9 && results.can_pop()) (void)results.pop();
    sim.step();
    trace.push_back(std::string{"I12JEWK"[static_cast<int>(core.proc_state())],
                                "I12RrSs"[static_cast<int>(
                                    core.storage_state())]} +
                    "." + std::to_string(core.probes()) + "." +
                    std::to_string(core.matches()) + "." +
                    std::to_string(results.size()) + "." +
                    std::to_string(fetcher.size()));
  }
  return trace;
}

std::vector<std::string> split_tokens(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string tok; in >> tok;) out.push_back(tok);
  return out;
}

// Recorded from the per-cycle FSM that reads one candidate every cycle.
// Each line is six cycles.
constexpr const char* kEquiTrace = R"(
WI.0.0.0.1 JR.0.0.0.0 Er.1.1.0.0 JI.1.1.1.0 JI.2.1.1.0 JI.3.1.1.0
JI.4.1.1.0 JI.5.1.1.0 JI.6.1.1.1 JI.7.1.0.1 EI.8.2.0.1 JI.8.2.1.1
JI.9.2.1.1 JI.10.2.1.1 JI.11.2.1.1 JI.12.2.1.1 JI.13.2.1.1 JI.14.2.1.1
JI.15.2.1.1 EI.16.3.0.1 WI.16.3.1.1 JR.16.3.1.0 Jr.17.3.1.0 JI.18.3.1.0
JI.19.3.1.0 EI.20.4.1.0 EI.20.4.1.0 EI.20.4.1.0 EI.20.4.1.0 EI.20.4.0.0
JI.20.4.1.0 JI.21.4.1.0 JI.22.4.1.0 JI.23.4.1.0 JI.24.4.1.0 JI.25.4.1.0
JI.26.4.1.0 JI.27.4.1.0 JI.28.4.1.0 JI.29.4.0.0 JI.30.4.0.0 JI.31.4.0.0
WI.32.4.0.0 WI.32.4.0.0 WI.32.4.0.0 WI.32.4.0.0 WI.32.4.0.1 JS.32.4.0.0
Js.33.4.0.0 JI.34.4.0.0 EI.35.5.0.0 JI.35.5.1.0 JI.36.5.1.0 JI.37.5.1.0
JI.38.5.1.0 JI.39.5.1.0 JI.40.5.1.0 JI.41.5.1.0 JI.42.5.1.0 EI.43.6.0.0
JI.43.6.1.0 WI.44.6.1.0 WI.44.6.1.0 WI.44.6.1.0 WI.44.6.1.0 WI.44.6.1.0
WI.44.6.1.0 WI.44.6.1.0 WI.44.6.1.0 WI.44.6.0.0 WI.44.6.0.0 WI.44.6.0.0
WI.44.6.0.0 WI.44.6.0.0 WI.44.6.0.0 WI.44.6.0.0 WI.44.6.0.0 WI.44.6.0.0
WI.44.6.0.0 WI.44.6.0.0)";

constexpr const char* kBandTrace = R"(
WI.0.0.0.1 JR.0.0.0.0 Er.1.1.0.0 JI.1.1.1.0 JI.2.1.1.0 JI.3.1.1.0
JI.4.1.1.0 JI.5.1.1.0 JI.6.1.1.1 JI.7.1.0.1 EI.8.2.0.1 JI.8.2.1.1
JI.9.2.1.1 JI.10.2.1.1 JI.11.2.1.1 JI.12.2.1.1 JI.13.2.1.1 JI.14.2.1.1
JI.15.2.1.1 EI.16.3.0.1 WI.16.3.1.1 JR.16.3.1.0 Jr.17.3.1.0 JI.18.3.1.0
EI.19.4.1.0 EI.19.4.1.0 EI.19.4.1.0 EI.19.4.1.0 EI.19.4.1.0 EI.19.4.0.0
JI.19.4.1.0 EI.20.5.1.0 EI.20.5.1.0 EI.20.5.1.0 EI.20.5.1.0 EI.20.5.1.0
EI.20.5.1.0 EI.20.5.1.0 EI.20.5.1.0 EI.20.5.0.0 JI.20.5.1.0 EI.21.6.1.0
EI.21.6.1.0 EI.21.6.1.0 EI.21.6.1.0 EI.21.6.1.0 EI.21.6.1.1 EI.21.6.1.1
EI.21.6.1.1 EI.21.6.0.1 JI.21.6.1.1 JI.22.6.1.1 JI.23.6.1.1 JI.24.6.1.1
JI.25.6.1.1 JI.26.6.1.1 JI.27.6.1.1 JI.28.6.1.1 JI.29.6.1.1 JI.30.6.0.1
JI.31.6.0.1 WI.32.6.0.1 JS.32.6.0.0 Js.33.6.0.0 JI.34.6.0.0 EI.35.7.0.0
JI.35.7.1.0 JI.36.7.1.0 JI.37.7.1.0 JI.38.7.0.0 JI.39.7.0.0 JI.40.7.0.0
JI.41.7.0.0 JI.42.7.0.0 EI.43.8.0.0 JI.43.8.1.0 WI.44.8.1.0 WI.44.8.1.0
WI.44.8.1.0 WI.44.8.0.0)";

void expect_trace(const stream::JoinSpec& spec, const std::string& expected) {
  const std::vector<std::string> want = split_tokens(expected);
  for (const std::uint32_t threads : {1u, 2u}) {
    const std::vector<std::string> got = trace_scan(spec, threads);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      ASSERT_EQ(got[c], want[c]) << "cycle " << c << ", sim threads "
                                 << threads;
    }
  }
}

// An R probe over a wrapped ring (matches at 0, 7 and 15) with a second R
// word arriving mid-scan, a results FIFO that stalls EmitResult, then an S
// probe over the R window: every cycle matches the reference trace, on the
// activity-driven serial kernel and on the threaded one.
TEST(JoinCoreScanTrace, EquiJoinKeepsFig13Timing) {
  expect_trace(stream::JoinSpec::equi_on_key(), kEquiTrace);
}

// The same sequence under the generic matcher: R key 103 matches the
// adjacent positions 2, 3 and 4, so EmitResult follows EmitResult.
TEST(JoinCoreScanTrace, BandJoinKeepsFig13Timing) {
  expect_trace(stream::JoinSpec::band_on_key(1), kBandTrace);
}

}  // namespace
}  // namespace hal::hw
