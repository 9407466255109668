// Transport layer: loopback and socket connections must deliver data
// messages exactly once, in order, under backpressure and under injected
// wire faults, with the recovery machinery visible in the stats.
#include "net/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "net/wire.h"

namespace hal::net {
namespace {

std::string fresh_address(TransportKind kind) {
  static std::atomic<int> counter{0};
  const int id = counter.fetch_add(1);
  switch (kind) {
    case TransportKind::kLoopback:
      return "loop-" + std::to_string(id);
    case TransportKind::kUnix:
      return "@hal-net-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(id);
    case TransportKind::kTcp:
      return "127.0.0.1:0";
    case TransportKind::kInProcess:
      break;
  }
  return "";
}

WatermarkMsg payload_for(std::uint64_t i) {
  return WatermarkMsg{i, i * 3 + 1, i * 7 + 2};
}

// Sends `count` watermarks one way and verifies exactly-once in-order
// delivery on the far side.
void run_ordered_delivery(TransportKind kind, std::uint64_t count,
                          const EndpointOptions& dial_opts) {
  auto transport = make_transport(kind);
  EndpointOptions listen_opts;
  listen_opts.window_frames = dial_opts.window_frames;
  auto listener = transport->listen(fresh_address(kind), listen_opts);

  std::thread sender([&] {
    auto conn = transport->connect(listener->address(), dial_opts);
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_TRUE(conn->send_msg(MsgType::kWatermark, payload_for(i), 30.0))
          << "send " << i;
    }
    // Wait for the peer's drain before closing so retransmits can finish.
    Frame unused;
    (void)conn->recv(unused, 30.0);  // peer's done-marker
    conn->close();
  });

  Connection* conn = listener->accept(30.0);
  ASSERT_NE(conn, nullptr);
  for (std::uint64_t i = 0; i < count; ++i) {
    Frame frame;
    ASSERT_TRUE(conn->recv(frame, 30.0)) << "recv " << i;
    ASSERT_EQ(frame.header.type, MsgType::kWatermark);
    WatermarkMsg wm;
    ASSERT_TRUE(decode(frame.payload, wm));
    EXPECT_EQ(wm, payload_for(i)) << "out of order or duplicated at " << i;
  }
  ASSERT_TRUE(conn->send_msg(MsgType::kWatermark, WatermarkMsg{count}, 30.0));
  const NetStats stats = conn->stats();
  EXPECT_EQ(stats.msgs_delivered, count);
  sender.join();
}

class TransportOrderedTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(TransportOrderedTest, DeliversInOrderExactlyOnce) {
  run_ordered_delivery(GetParam(), 300, EndpointOptions{});
}

INSTANTIATE_TEST_SUITE_P(Kinds, TransportOrderedTest,
                         ::testing::Values(TransportKind::kLoopback,
                                           TransportKind::kUnix,
                                           TransportKind::kTcp),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(TransportKindNames, ParseRoundTrips) {
  for (const TransportKind k :
       {TransportKind::kInProcess, TransportKind::kLoopback,
        TransportKind::kUnix, TransportKind::kTcp}) {
    TransportKind parsed{};
    ASSERT_TRUE(parse_transport_kind(to_string(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  TransportKind parsed{};
  EXPECT_FALSE(parse_transport_kind("carrier-pigeon", parsed));
}

TEST(LoopbackTransport, CreditWindowStallsSenderUntilDrained) {
  auto transport = make_transport(TransportKind::kLoopback);
  EndpointOptions opts;
  opts.window_frames = 4;
  auto listener = transport->listen(fresh_address(TransportKind::kLoopback),
                                    opts);
  auto dialer = transport->connect(listener->address(), opts);
  Connection* acceptor = listener->accept(5.0);
  ASSERT_NE(acceptor, nullptr);

  const std::vector<std::uint8_t> payload = encode(WatermarkMsg{1, 2, 3});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(dialer->try_send(MsgType::kWatermark, payload));
  }
  // Window exhausted: the refusal is backpressure, not loss.
  EXPECT_FALSE(dialer->try_send(MsgType::kWatermark, payload));
  EXPECT_GE(dialer->stats().credit_stalls, 1u);
  EXPECT_EQ(dialer->unacked(), 4u);  // loopback delivery is the pop

  Frame frame;
  ASSERT_TRUE(acceptor->try_recv(frame));
  EXPECT_EQ(dialer->unacked(), 3u);
  EXPECT_TRUE(dialer->try_send(MsgType::kWatermark, payload));
}

TEST(SocketTransport, CreditWindowStallsAcrossTheWire) {
  auto transport = make_transport(TransportKind::kUnix);
  EndpointOptions opts;
  opts.window_frames = 4;
  auto listener = transport->listen(fresh_address(TransportKind::kUnix),
                                    opts);
  auto dialer = transport->connect(listener->address(), opts);
  Connection* acceptor = listener->accept(5.0);
  ASSERT_NE(acceptor, nullptr);

  // Fill the window without the receiver consuming anything.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(dialer->send_msg(MsgType::kWatermark, payload_for(i), 10.0));
  }
  // The 5th send must stall (only yield-spins allowed) until a drain.
  Timer timer;
  const std::vector<std::uint8_t> payload = encode(payload_for(4));
  bool sent = false;
  while (timer.elapsed_seconds() < 0.1) {
    if (dialer->try_send(MsgType::kWatermark, payload)) {
      sent = true;
      break;
    }
  }
  EXPECT_FALSE(sent) << "send succeeded past the credit window";
  EXPECT_GE(dialer->stats().credit_stalls, 1u);

  for (int i = 0; i < 5; ++i) {
    Frame frame;
    ASSERT_TRUE(acceptor->recv(frame, 10.0)) << i;  // drain grants credit
    if (i == 0) {
      // Credit flows back; the stalled message now goes through.
      ASSERT_TRUE(dialer->send(MsgType::kWatermark, payload, 10.0));
    }
  }
}

struct FaultCase {
  const char* name;
  FaultPlan plan;
  // Single-mechanism plans pin the per-mechanism counters; in the
  // combined plan the mechanisms mask each other (e.g. a partition reset
  // can discard a corrupted frame before it is ever written), so only
  // aggregate recovery evidence is deterministic.
  bool exclusive = true;
};

// gtest prints the parameter into each test name; the default byte dump
// would show the name pointer, which moves from run to run under address
// space randomization.
void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

class SocketFaultTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(SocketFaultTest, RecoversToExactlyOnceDelivery) {
  const FaultPlan plan = GetParam().plan;
  EndpointOptions dial_opts;
  dial_opts.window_frames = 16;
  dial_opts.fault = plan;
  run_ordered_delivery(TransportKind::kUnix, 200, dial_opts);
}

TEST_P(SocketFaultTest, FaultsActuallyFired) {
  const FaultPlan plan = GetParam().plan;
  auto transport = make_transport(TransportKind::kUnix);
  EndpointOptions listen_opts;
  auto listener = transport->listen(fresh_address(TransportKind::kUnix),
                                    listen_opts);
  EndpointOptions dial_opts;
  dial_opts.window_frames = 16;
  dial_opts.fault = plan;
  auto dialer = transport->connect(listener->address(), dial_opts);
  Connection* acceptor = listener->accept(30.0);
  ASSERT_NE(acceptor, nullptr);

  const std::uint64_t count = 120;
  std::thread sender([&] {
    for (std::uint64_t i = 0; i < count; ++i) {
      ASSERT_TRUE(dialer->send_msg(MsgType::kWatermark, payload_for(i), 30.0));
    }
  });
  for (std::uint64_t i = 0; i < count; ++i) {
    Frame frame;
    ASSERT_TRUE(acceptor->recv(frame, 30.0)) << i;
    WatermarkMsg wm;
    ASSERT_TRUE(decode(frame.payload, wm));
    ASSERT_EQ(wm, payload_for(i));
  }
  sender.join();

  const NetStats send_side = dialer->stats();
  const NetStats recv_side = acceptor->stats();
  EXPECT_GE(send_side.faults_injected, 1u) << GetParam().name;
  if (!GetParam().exclusive) {
    // Any fired fault forces at least one reconnect-and-replay cycle for
    // delivery to have completed.
    EXPECT_GE(send_side.retransmits, 1u);
    EXPECT_GE(send_side.reconnects, 1u);
  } else if (plan.drop_every != 0) {
    // A dropped frame is by definition unacknowledged: it must replay,
    // triggered by the receiver spotting the gap or — when the drop had
    // no traffic behind it — by the sender's stall watchdog.
    EXPECT_GE(send_side.retransmits, 1u);
    EXPECT_GE(recv_side.gap_resets + send_side.stall_resets, 1u);
  } else if (plan.corrupt_every != 0) {
    EXPECT_GE(recv_side.crc_errors, 1u);
  } else if (plan.partition_after_frames != 0) {
    EXPECT_GE(send_side.reconnects, 1u);
  }
  dialer->close();
}

INSTANTIATE_TEST_SUITE_P(
    Plans, SocketFaultTest,
    ::testing::Values(
        FaultCase{"drop", {.drop_every = 17}},
        FaultCase{"corrupt", {.corrupt_every = 23}},
        FaultCase{"partition",
                  {.partition_after_frames = 40, .partition_seconds = 0.01}},
        FaultCase{"combined",
                  {.drop_every = 31,
                   .corrupt_every = 43,
                   .partition_after_frames = 60,
                   .partition_seconds = 0.01},
                  false}),
    [](const auto& info) { return std::string(info.param.name); });

// The receiver acknowledges a burst's tail once it has read the burst, not
// only every window/4 frames, so the sender holds no delivered frame as
// unacked and a link that idles after a short burst never trips its stall
// watchdog.
TEST(SocketTransport, DeliveredTailIsAcknowledgedAtOnce) {
  auto transport = make_transport(TransportKind::kUnix);
  EndpointOptions opts;
  opts.window_frames = 64;  // in-burst acks every 16 frames
  opts.stall_timeout_ms = 50.0;
  auto listener = transport->listen(fresh_address(TransportKind::kUnix),
                                    opts);
  auto dialer = transport->connect(listener->address(), opts);
  Connection* acceptor = listener->accept(10.0);
  ASSERT_NE(acceptor, nullptr);

  // Tuple batches: unlike watermarks, they ask for no ack of their own.
  const std::vector<std::uint8_t> payload = encode(TupleBatchMsg{});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(dialer->send(MsgType::kTupleBatch, payload, 10.0)) << i;
  }
  for (int i = 0; i < 3; ++i) {
    Frame frame;
    ASSERT_TRUE(acceptor->recv(frame, 10.0)) << i;
  }
  Timer timer;
  while (dialer->unacked() != 0 && timer.elapsed_seconds() < 10.0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(dialer->unacked(), 0u);
  // Three stall timeouts of idle: nothing unacked, nothing to reset.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(dialer->stats().stall_resets, 0u);
  EXPECT_EQ(dialer->stats().retransmits, 0u);
}

TEST(SocketTransport, DialerGivesUpWhenNobodyListens) {
  auto transport = make_transport(TransportKind::kTcp);
  EndpointOptions opts;
  opts.connect_timeout_s = 0.2;
  // A privileged port nothing in the sandbox binds: instant refusal.
  auto conn = transport->connect("127.0.0.1:1", opts);
  Frame frame;
  EXPECT_FALSE(conn->recv(frame, 5.0));
  EXPECT_TRUE(conn->peer_closed());
  EXPECT_GE(conn->stats().connect_attempts, 1u);
}

TEST(SocketTransport, OrderlyShutdownReachesThePeer) {
  auto transport = make_transport(TransportKind::kUnix);
  auto listener = transport->listen(fresh_address(TransportKind::kUnix), {});
  auto dialer = transport->connect(listener->address(), {});
  Connection* acceptor = listener->accept(10.0);
  ASSERT_NE(acceptor, nullptr);
  ASSERT_TRUE(dialer->send_msg(MsgType::kWatermark, payload_for(1), 10.0));
  dialer->close();
  Frame frame;
  ASSERT_TRUE(acceptor->recv(frame, 10.0));  // data precedes the shutdown
  EXPECT_FALSE(acceptor->recv(frame, 10.0));
  EXPECT_TRUE(acceptor->peer_closed());
}

}  // namespace
}  // namespace hal::net
