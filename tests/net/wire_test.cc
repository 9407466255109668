// Wire codec: CRC vectors, message round trips, framing, and typed
// decode errors on malformed input.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/assert.h"

namespace hal::net {
namespace {

using stream::StreamId;
using stream::Tuple;

Tuple make_tuple(std::uint32_t key, std::uint32_t value, std::uint64_t seq,
                 StreamId origin) {
  Tuple t;
  t.key = key;
  t.value = value;
  t.seq = seq;
  t.origin = origin;
  return t;
}

TEST(Crc32c, MatchesKnownVectors) {
  // The canonical check value for CRC32C: ASCII "123456789".
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5',
                                 '6', '7', '8', '9'};
  EXPECT_EQ(crc32c(digits), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32c, SeedComposesIncrementally) {
  std::vector<std::uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint32_t whole = crc32c(data);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{128}, data.size()}) {
    const std::span<const std::uint8_t> all(data);
    const std::uint32_t head = crc32c(all.subspan(0, split));
    EXPECT_EQ(crc32c(all.subspan(split), head), whole) << split;
  }
}

TEST(WireMessages, AllTypesRoundTrip) {
  HelloMsg hello{7, 3, 42, 106};
  HelloMsg hello2;
  ASSERT_TRUE(decode(encode(hello), hello2));
  EXPECT_EQ(hello, hello2);

  CreditMsg credit{999};
  CreditMsg credit2;
  ASSERT_TRUE(decode(encode(credit), credit2));
  EXPECT_EQ(credit, credit2);

  AckMsg ack{12345678901234ull};
  AckMsg ack2;
  ASSERT_TRUE(decode(encode(ack), ack2));
  EXPECT_EQ(ack, ack2);

  ShutdownMsg bye{2};
  ShutdownMsg bye2;
  ASSERT_TRUE(decode(encode(bye), bye2));
  EXPECT_EQ(bye, bye2);

  WatermarkMsg wm{5, 1000, 998};
  WatermarkMsg wm2;
  ASSERT_TRUE(decode(encode(wm), wm2));
  EXPECT_EQ(wm, wm2);

  TupleBatchMsg batch;
  batch.epoch = 3;
  batch.end_of_epoch = true;
  batch.tuples = {make_tuple(1, 10, 100, StreamId::R),
                  make_tuple(2, 20, 101, StreamId::S)};
  TupleBatchMsg batch2;
  ASSERT_TRUE(decode(encode(batch), batch2));
  EXPECT_EQ(batch, batch2);

  ResultBatchMsg results;
  results.epoch = 4;
  results.died = true;
  results.results = {{make_tuple(1, 10, 100, StreamId::R),
                      make_tuple(1, 30, 102, StreamId::S)}};
  ResultBatchMsg results2;
  ASSERT_TRUE(decode(encode(results), results2));
  EXPECT_EQ(results, results2);
}

TEST(WireMessages, EmptyBatchesRoundTrip) {
  TupleBatchMsg batch;
  batch.epoch = 9;
  TupleBatchMsg batch2;
  ASSERT_TRUE(decode(encode(batch), batch2));
  EXPECT_EQ(batch, batch2);

  ResultBatchMsg results;
  results.end_of_epoch = true;
  ResultBatchMsg results2;
  ASSERT_TRUE(decode(encode(results), results2));
  EXPECT_EQ(results, results2);
}

TEST(WireMessages, DecodeRejectsTruncationAndTrailingBytes) {
  const TupleBatchMsg batch{.epoch = 1,
                            .tuples = {make_tuple(1, 2, 3, StreamId::R)},
                            .stamps = {}};
  std::vector<std::uint8_t> payload = encode(batch);
  TupleBatchMsg out;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        decode(std::span<const std::uint8_t>(payload.data(), len), out))
        << "truncated to " << len;
  }
  payload.push_back(0);
  EXPECT_FALSE(decode(payload, out)) << "trailing byte accepted";
}

TEST(WireMessages, DecodeRejectsBadEnumAndCountMismatch) {
  TupleBatchMsg batch{.epoch = 1,
                      .tuples = {make_tuple(1, 2, 3, StreamId::R)},
                      .stamps = {}};
  std::vector<std::uint8_t> payload = encode(batch);
  // Inflate the tuple count without providing the bytes.
  std::vector<std::uint8_t> bad = payload;
  bad[20] = 0xFF;  // count lives after epoch + link_seq (u64s) + flags (u32)
  TupleBatchMsg out;
  EXPECT_FALSE(decode(bad, out));
  // Corrupt the origin byte of the only tuple (last byte of the payload).
  bad = payload;
  bad.back() = 0x7F;
  EXPECT_FALSE(decode(bad, out));
}

// Exact-global tuple batches carry one horizon stamp per tuple in a
// trailing section that a header flag announces.
TEST(WireMessages, StampedTupleBatchRoundTrips) {
  const TupleBatchMsg batch{.epoch = 7,
                            .link_seq = 3,
                            .end_of_epoch = true,
                            .tuples = {make_tuple(1, 10, 100, StreamId::R),
                                       make_tuple(2, 20, 101, StreamId::S)},
                            .stamps = {0, 0xFEDCBA9876543210ull}};
  const std::vector<std::uint8_t> payload = encode(batch);
  const TupleBatchMsg unstamped{.epoch = 7,
                                .link_seq = 3,
                                .end_of_epoch = true,
                                .tuples = batch.tuples,
                                .stamps = {}};
  EXPECT_EQ(payload.size(), encode(unstamped).size() + 2 * 8);
  TupleBatchMsg out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_EQ(out, batch);
  // Decoding a stamped batch and then an unstamped one leaves no stamps.
  ASSERT_TRUE(decode(encode(unstamped), out));
  EXPECT_EQ(out, unstamped);

  TupleBatchMsg ragged = batch;
  ragged.stamps.pop_back();
  EXPECT_THROW((void)encode(ragged), PreconditionError);
}

TEST(WireMessages, TruncationInsideTheStampSectionIsRejected) {
  const TupleBatchMsg batch{.epoch = 1,
                            .tuples = {make_tuple(1, 2, 3, StreamId::R),
                                       make_tuple(4, 5, 6, StreamId::S)},
                            .stamps = {1, 2}};
  const std::vector<std::uint8_t> payload = encode(batch);
  const std::size_t stamps_at = payload.size() - 2 * 8;
  TupleBatchMsg out;
  for (std::size_t len = stamps_at; len < payload.size(); ++len) {
    EXPECT_FALSE(
        decode(std::span<const std::uint8_t>(payload.data(), len), out))
        << "truncated to " << len;
  }
}

TEST(WireMessages, StampFlagWithoutStampSectionIsRejected) {
  const TupleBatchMsg stamped{.epoch = 1,
                              .tuples = {make_tuple(1, 2, 3, StreamId::R)},
                              .stamps = {9}};
  const std::uint8_t flag_byte = encode(stamped)[16];  // flags follow 2 u64s
  TupleBatchMsg plain = stamped;
  plain.stamps.clear();
  std::vector<std::uint8_t> payload = encode(plain);
  ASSERT_NE(payload[16], flag_byte);
  payload[16] = flag_byte;
  TupleBatchMsg out;
  EXPECT_FALSE(decode(payload, out));
  // An empty batch never carries the flag either: one encoding per batch.
  std::vector<std::uint8_t> empty = encode(TupleBatchMsg{});
  empty[16] = flag_byte;
  EXPECT_FALSE(decode(empty, out));
}

TEST(WireMessages, EndOfEpochBatchCarriesTheAuditCounts) {
  const TupleBatchMsg batch{.epoch = 9,
                            .link_seq = 4,
                            .end_of_epoch = true,
                            .tuples = {make_tuple(1, 10, 100, StreamId::R),
                                       make_tuple(2, 20, 101, StreamId::S)},
                            .stamps = {0, 5},
                            .r_count = 1234567890123ull,
                            .s_count = 7};
  TupleBatchMsg mid = batch;
  mid.end_of_epoch = false;
  mid.r_count = 0;
  mid.s_count = 0;
  const std::vector<std::uint8_t> payload = encode(batch);
  EXPECT_EQ(payload.size(), encode(mid).size() + 2 * 8);
  TupleBatchMsg out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_EQ(out, batch);
  // Decoding a mid-epoch batch afterwards leaves no counts behind.
  ASSERT_TRUE(decode(encode(mid), out));
  EXPECT_EQ(out, mid);
  // Only the epoch's last batch carries counts.
  TupleBatchMsg counted_mid = mid;
  counted_mid.s_count = 1;
  EXPECT_THROW((void)encode(counted_mid), PreconditionError);
}

TEST(WireMessages, TruncationInsideTheCountSectionIsRejected) {
  // The counts follow the 24-byte batch header; cut inside them, with and
  // without tuples behind.
  constexpr std::size_t kCountsAt = 24;
  const TupleBatchMsg empty{.epoch = 1,
                            .end_of_epoch = true,
                            .tuples = {},
                            .stamps = {},
                            .r_count = 3};
  const TupleBatchMsg full{.epoch = 1,
                           .end_of_epoch = true,
                           .tuples = {make_tuple(1, 2, 3, StreamId::R)},
                           .stamps = {},
                           .r_count = 1};
  for (const TupleBatchMsg& batch : {empty, full}) {
    const std::vector<std::uint8_t> payload = encode(batch);
    ASSERT_GE(payload.size(), kCountsAt + 2 * 8);
    TupleBatchMsg out;
    for (std::size_t len = kCountsAt; len < kCountsAt + 2 * 8; ++len) {
      EXPECT_FALSE(
          decode(std::span<const std::uint8_t>(payload.data(), len), out))
          << "truncated to " << len;
    }
  }
}

TEST(WireMessages, CountFlagWithoutCountSectionIsRejected) {
  const TupleBatchMsg last{.epoch = 1,
                           .end_of_epoch = true,
                           .tuples = {make_tuple(1, 2, 3, StreamId::R)},
                           .stamps = {},
                           .r_count = 1};
  TupleBatchMsg mid = last;
  mid.end_of_epoch = false;
  mid.r_count = 0;
  const std::vector<std::uint8_t> last_payload = encode(last);
  const std::vector<std::uint8_t> mid_payload = encode(mid);
  ASSERT_NE(last_payload[16], mid_payload[16]);  // flags follow 2 u64s
  TupleBatchMsg out;
  // The end-of-epoch flags on a payload without the count section.
  std::vector<std::uint8_t> unsectioned = mid_payload;
  unsectioned[16] = last_payload[16];
  EXPECT_FALSE(decode(unsectioned, out));
  // The count section without its flags: one encoding per batch.
  std::vector<std::uint8_t> unflagged = last_payload;
  unflagged[16] = mid_payload[16];
  EXPECT_FALSE(decode(unflagged, out));
}

TEST(WireMessages, ResultBatchCarriesTheDropCount) {
  ResultBatchMsg batch;
  batch.epoch = 5;
  batch.end_of_epoch = true;
  batch.dropped = 123456789012ull;
  batch.results = {{make_tuple(1, 10, 100, StreamId::R),
                    make_tuple(1, 30, 102, StreamId::S)}};
  std::vector<std::uint8_t> payload = encode(batch);
  ResultBatchMsg out;
  ASSERT_TRUE(decode(payload, out));
  EXPECT_EQ(out, batch);
  EXPECT_EQ(out.dropped, batch.dropped);

  // A count with no results (every pair of the batch was stale) survives
  // too, and any truncation of it is rejected.
  batch.results.clear();
  payload = encode(batch);
  ASSERT_TRUE(decode(payload, out));
  EXPECT_EQ(out.dropped, batch.dropped);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        decode(std::span<const std::uint8_t>(payload.data(), len), out))
        << "truncated to " << len;
  }
}

// --- Golden bytes: protocol v3 pinned byte for byte ----------------------
//
// A round trip cannot catch a layout change made the same way in encode
// and decode, so these frames are compared against hex written down from
// the codec as of protocol v3. Field values use distinct bytes, top bits
// and both origins so a swapped, shifted or truncated field shows.

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(WireGolden, StampedEndOfEpochTupleBatchFrame) {
  const TupleBatchMsg batch{
      .epoch = 0x0102030405060708ull,
      .link_seq = 0x1122334455667788ull,
      .end_of_epoch = true,
      .tuples = {make_tuple(0xA1B2C3D4u, 0x01020304u, 0x0A0B0C0D0E0F1011ull,
                            StreamId::R),
                 make_tuple(5, 0xFFFFFFFFu, 9, StreamId::S)},
      .stamps = {0x8000000000000001ull, 42},
      .r_count = 0x31,
      .s_count = 0xC0FFEE};
  const std::string golden =
      "48414c4e030604035a000000a54ecf6502000000010000000807060504030201"
      "88776655443322110d000000020000003100000000000000eeffc00000000000"
      "d4c3b2a10403020111100f0e0d0c0b0a0005000000ffffffff09000000000000"
      "000101000000000000802a00000000000000";
  std::vector<std::uint8_t> wire;
  append_message(wire, MsgType::kTupleBatch, 0x0000000100000002ull, batch,
                 0x0304);
  EXPECT_EQ(to_hex(wire), golden);

  FrameDecoder dec;
  dec.feed(from_hex(golden));
  Frame f;
  ASSERT_EQ(dec.next(f), DecodeStatus::kOk);
  EXPECT_EQ(f.header.type, MsgType::kTupleBatch);
  EXPECT_EQ(f.header.channel, 0x0304);
  EXPECT_EQ(f.header.seq, 0x0000000100000002ull);
  TupleBatchMsg out;
  ASSERT_TRUE(decode(f.payload, out));
  EXPECT_EQ(out, batch);
}

TEST(WireGolden, ResultBatchFrameWithDrops) {
  const ResultBatchMsg batch{
      .epoch = 0xDEADBEEFull,
      .end_of_epoch = true,
      .died = false,
      .dropped = 0x0000000123456789ull,
      .results = {{make_tuple(0x11223344u, 7, 0x8877665544332211ull,
                              StreamId::R),
                   make_tuple(0x11223344u, 0x80000000u, 3, StreamId::S)},
                  {make_tuple(2, 0, 0, StreamId::R),
                   make_tuple(2, 1, 0xFFFFFFFFFFFFFFFFull, StreamId::S)}}};
  const std::string golden =
      "48414c4e030700005c000000711747d44d00000000000000efbeadde00000000"
      "0100000002000000896745230100000044332211070000001122334455667788"
      "0044332211000000800300000000000000010200000000000000000000000000"
      "0000000200000001000000ffffffffffffffff01";
  std::vector<std::uint8_t> wire;
  append_message(wire, MsgType::kResultBatch, 77, batch);
  EXPECT_EQ(to_hex(wire), golden);

  FrameDecoder dec;
  dec.feed(from_hex(golden));
  Frame f;
  ASSERT_EQ(dec.next(f), DecodeStatus::kOk);
  EXPECT_EQ(f.header.type, MsgType::kResultBatch);
  EXPECT_EQ(f.header.seq, 77u);
  ResultBatchMsg out;
  ASSERT_TRUE(decode(f.payload, out));
  EXPECT_EQ(out, batch);
}

TEST(FrameDecoder, SingleAndMultipleFrames) {
  std::vector<std::uint8_t> wire;
  const WatermarkMsg wm{2, 10, 11};
  append_message(wire, MsgType::kWatermark, 5, wm);
  append_message(wire, MsgType::kAck, 0, AckMsg{5});

  FrameDecoder dec;
  dec.feed(wire);
  Frame f;
  ASSERT_EQ(dec.next(f), DecodeStatus::kOk);
  EXPECT_EQ(f.header.type, MsgType::kWatermark);
  EXPECT_EQ(f.header.seq, 5u);
  WatermarkMsg wm2;
  ASSERT_TRUE(decode(f.payload, wm2));
  EXPECT_EQ(wm, wm2);
  ASSERT_EQ(dec.next(f), DecodeStatus::kOk);
  EXPECT_EQ(f.header.type, MsgType::kAck);
  EXPECT_EQ(dec.next(f), DecodeStatus::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoder, ByteAtATimeFeedReassembles) {
  std::vector<std::uint8_t> wire;
  TupleBatchMsg batch;
  batch.epoch = 1;
  for (std::uint32_t i = 0; i < 40; ++i) {
    batch.tuples.push_back(make_tuple(i, i * 2, i, StreamId::S));
  }
  append_message(wire, MsgType::kTupleBatch, 9, batch);

  FrameDecoder dec;
  Frame f;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed({&wire[i], 1});
    ASSERT_EQ(dec.next(f), DecodeStatus::kNeedMore) << "at byte " << i;
  }
  dec.feed({&wire.back(), 1});
  ASSERT_EQ(dec.next(f), DecodeStatus::kOk);
  TupleBatchMsg batch2;
  ASSERT_TRUE(decode(f.payload, batch2));
  EXPECT_EQ(batch, batch2);
}

TEST(FrameDecoder, TypedErrorsAndPoisoning) {
  const auto framed = [](const WatermarkMsg& m) {
    std::vector<std::uint8_t> wire;
    append_message(wire, MsgType::kWatermark, 1, m);
    return wire;
  };
  Frame f;
  {
    std::vector<std::uint8_t> wire = framed({1, 2, 3});
    wire[0] = 'X';
    FrameDecoder dec;
    dec.feed(wire);
    EXPECT_EQ(dec.next(f), DecodeStatus::kBadMagic);
    EXPECT_TRUE(dec.poisoned());
    // Poisoned until reset: further next() calls repeat the error.
    EXPECT_EQ(dec.next(f), DecodeStatus::kBadMagic);
    dec.reset();
    dec.feed(framed({1, 2, 3}));
    EXPECT_EQ(dec.next(f), DecodeStatus::kOk);
  }
  {
    std::vector<std::uint8_t> wire = framed({1, 2, 3});
    wire[4] = kProtocolVersion + 1;
    FrameDecoder dec;
    dec.feed(wire);
    EXPECT_EQ(dec.next(f), DecodeStatus::kBadVersion);
  }
  {
    std::vector<std::uint8_t> wire = framed({1, 2, 3});
    wire[5] = 0xEE;
    FrameDecoder dec;
    dec.feed(wire);
    EXPECT_EQ(dec.next(f), DecodeStatus::kBadType);
  }
  {
    std::vector<std::uint8_t> wire = framed({1, 2, 3});
    wire[11] = 0xFF;  // payload_len high byte -> > kMaxPayload
    FrameDecoder dec;
    dec.feed(wire);
    EXPECT_EQ(dec.next(f), DecodeStatus::kOversized);
  }
  {
    std::vector<std::uint8_t> wire = framed({1, 2, 3});
    wire[kHeaderSize] ^= 0x01;  // first payload byte
    FrameDecoder dec;
    dec.feed(wire);
    EXPECT_EQ(dec.next(f), DecodeStatus::kBadCrc);
  }
}

TEST(FrameDecoder, OversizedLengthNeverAllocates) {
  // A frame header whose length field is bogus must fail before any
  // payload-sized allocation happens (the payload bytes don't exist).
  std::vector<std::uint8_t> wire;
  append_message(wire, MsgType::kAck, 0, AckMsg{1});
  wire[8] = 0xFF;
  wire[9] = 0xFF;
  wire[10] = 0xFF;
  wire[11] = 0x00;  // 16 MiB - 1: within kMaxPayload, but bytes missing
  FrameDecoder dec;
  dec.feed(wire);
  Frame f;
  EXPECT_EQ(dec.next(f), DecodeStatus::kNeedMore);  // waits, doesn't crash
}

}  // namespace
}  // namespace hal::net
