// Differential fuzz target for the hal::net wire codec.
//
// Property: for any encoded frame stream, any truncation and any bit
// flip, the decoder either (a) returns the original messages bit-exactly,
// or (b) returns a typed decode error / kNeedMore — it never crashes,
// never fabricates a different message, and never allocates from a
// corrupted length field. Deterministic RNG so failures replay; run under
// the tsan and asan presets for the "never UB" half of the claim.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"

namespace hal::net {
namespace {

using stream::StreamId;
using stream::Tuple;

Tuple random_tuple(Rng& rng) {
  Tuple t;
  t.key = static_cast<std::uint32_t>(rng.next_u64());
  t.value = static_cast<std::uint32_t>(rng.next_u64());
  t.seq = rng.next_u64();
  t.origin = (rng.next_u64() & 1) ? StreamId::R : StreamId::S;
  return t;
}

// Builds a random frame and remembers its payload for the differential
// comparison.
std::vector<std::uint8_t> random_frame(Rng& rng, Frame& expected) {
  const std::uint32_t pick = static_cast<std::uint32_t>(rng.next_u64() % 7);
  std::vector<std::uint8_t> payload;
  MsgType type = MsgType::kHello;
  switch (pick) {
    case 0:
      type = MsgType::kHello;
      payload = encode(HelloMsg{static_cast<std::uint32_t>(rng.next_u64()),
                                static_cast<std::uint32_t>(rng.next_u64()),
                                rng.next_u64(), rng.next_u64()});
      break;
    case 1:
      type = MsgType::kCredit;
      payload = encode(CreditMsg{rng.next_u64()});
      break;
    case 2:
      type = MsgType::kAck;
      payload = encode(AckMsg{rng.next_u64()});
      break;
    case 3:
      type = MsgType::kShutdown;
      payload = encode(ShutdownMsg{static_cast<std::uint32_t>(rng.next_u64())});
      break;
    case 4:
      type = MsgType::kWatermark;
      payload = encode(WatermarkMsg{rng.next_u64(), rng.next_u64(), rng.next_u64()});
      break;
    case 5: {
      type = MsgType::kTupleBatch;
      TupleBatchMsg m;
      m.epoch = rng.next_u64();
      m.end_of_epoch = (rng.next_u64() & 1) != 0;
      const std::size_t n = rng.next_u64() % 17;
      for (std::size_t i = 0; i < n; ++i) {
        m.tuples.push_back(random_tuple(rng));
      }
      if ((rng.next_u64() & 1) != 0) {  // exact-global horizon stamps
        for (std::size_t i = 0; i < n; ++i) m.stamps.push_back(rng.next_u64());
      }
      if (m.end_of_epoch) {  // the epoch's exactly-once audit counts
        m.r_count = rng.next_u64();
        m.s_count = rng.next_u64();
      }
      payload = encode(m);
      break;
    }
    default: {
      type = MsgType::kResultBatch;
      ResultBatchMsg m;
      m.epoch = rng.next_u64();
      m.end_of_epoch = (rng.next_u64() & 1) != 0;
      m.died = (rng.next_u64() & 1) != 0;
      m.dropped = (rng.next_u64() & 1) != 0 ? rng.next_u64() : 0;
      const std::size_t n = rng.next_u64() % 9;
      for (std::size_t i = 0; i < n; ++i) {
        m.results.push_back({random_tuple(rng), random_tuple(rng)});
      }
      payload = encode(m);
      break;
    }
  }
  const std::uint64_t seq = rng.next_u64();
  std::vector<std::uint8_t> wire;
  append_frame(wire, type, seq, payload);
  expected.header.type = type;
  expected.header.seq = seq;
  expected.payload = std::move(payload);
  return wire;
}

TEST(CodecFuzz, CleanStreamsDecodeBitExactly) {
  Rng rng(0xC0DEC0DEuLL);
  for (int round = 0; round < 200; ++round) {
    const std::size_t frames = 1 + rng.next_u64() % 8;
    std::vector<std::uint8_t> wire;
    std::vector<Frame> expected(frames);
    for (std::size_t i = 0; i < frames; ++i) {
      const std::vector<std::uint8_t> one = random_frame(rng, expected[i]);
      wire.insert(wire.end(), one.begin(), one.end());
    }
    // Feed in random-sized chunks: a TCP stream has no boundaries.
    FrameDecoder dec;
    std::size_t off = 0;
    std::size_t decoded = 0;
    while (off < wire.size() || decoded < frames) {
      if (off < wire.size()) {
        const std::size_t n =
            std::min<std::size_t>(1 + rng.next_u64() % 97, wire.size() - off);
        dec.feed({wire.data() + off, n});
        off += n;
      }
      Frame f;
      DecodeStatus s;
      while ((s = dec.next(f)) == DecodeStatus::kOk) {
        ASSERT_LT(decoded, frames);
        EXPECT_EQ(f.header.type, expected[decoded].header.type);
        EXPECT_EQ(f.header.seq, expected[decoded].header.seq);
        EXPECT_EQ(f.payload, expected[decoded].payload);
        ++decoded;
      }
      ASSERT_EQ(s, DecodeStatus::kNeedMore);
    }
    EXPECT_EQ(decoded, frames);
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(CodecFuzz, TruncatedStreamsNeverYieldPhantomFrames) {
  Rng rng(0x7254C473uLL);
  for (int round = 0; round < 300; ++round) {
    Frame expected;
    const std::vector<std::uint8_t> wire = random_frame(rng, expected);
    const std::size_t cut = rng.next_u64() % wire.size();  // strict prefix
    FrameDecoder dec;
    dec.feed({wire.data(), cut});
    Frame f;
    // A truncated frame parks as kNeedMore (or errors if the cut landed
    // inside a now-inconsistent header) — it must never produce a frame.
    const DecodeStatus s = dec.next(f);
    EXPECT_NE(s, DecodeStatus::kOk) << "cut=" << cut;
  }
}

TEST(CodecFuzz, BitFlipsAreDetectedOrHarmless) {
  Rng rng(0xB17F11B5uLL);
  std::uint64_t detected = 0;
  std::uint64_t rounds = 0;
  for (int round = 0; round < 600; ++round) {
    Frame expected;
    std::vector<std::uint8_t> wire = random_frame(rng, expected);
    const std::size_t byte = rng.next_u64() % wire.size();
    const std::uint8_t mask = static_cast<std::uint8_t>(
        1u << (rng.next_u64() % 8));
    wire[byte] ^= mask;
    ++rounds;

    FrameDecoder dec;
    dec.feed(wire);
    Frame f;
    const DecodeStatus s = dec.next(f);
    if (s == DecodeStatus::kOk) {
      // The only acceptable kOk outcomes: the flip hit a field the codec
      // legitimately carries (channel/seq/type bits that stay valid) —
      // the payload must still be exactly what was sent, or the flip hit
      // the payload AND the CRC in a colliding way, which a single bit
      // flip cannot do. So: payload must match.
      EXPECT_EQ(f.payload, expected.payload)
          << "flip at byte " << byte << " silently altered the payload";
    } else if (s == DecodeStatus::kNeedMore) {
      // The flip grew the length field within bounds: the decoder waits
      // for bytes that never come — safe (the transport's reset handles
      // the stall), and no phantom frame was produced.
      ++detected;
    } else {
      ++detected;
      EXPECT_TRUE(dec.poisoned());
    }
  }
  // CRC + header validation must catch the overwhelming majority.
  EXPECT_GE(detected, rounds / 2);
}

TEST(CodecFuzz, PayloadGarbageNeverDecodesIntoMessages) {
  // Structured decode over random bytes: must return false or decode a
  // value that re-encodes to the identical bytes (total functions).
  Rng rng(0xDEADBEEFuLL);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> junk(rng.next_u64() % 200);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    TupleBatchMsg tb;
    if (decode(junk, tb)) {
      EXPECT_EQ(encode(tb), junk);
    }
    ResultBatchMsg rb;
    if (decode(junk, rb)) {
      EXPECT_EQ(encode(rb), junk);
    }
    HelloMsg hello;
    if (decode(junk, hello)) {
      EXPECT_EQ(encode(hello), junk);
    }
    WatermarkMsg wm;
    if (decode(junk, wm)) {
      EXPECT_EQ(encode(wm), junk);
    }
  }
}

}  // namespace
}  // namespace hal::net
