#include "net/wire.h"

#include <algorithm>

#include "simd/probe.h"

namespace hal::net {

namespace {

constexpr std::uint32_t kFlagEndOfEpoch = 1u << 0;
constexpr std::uint32_t kFlagDied = 1u << 1;
// Tuple batches: one u64 stamp per tuple follows the tuples. Set only on
// a non-empty batch, so every decodable payload has one encoding.
constexpr std::uint32_t kFlagStamps = 1u << 2;
constexpr std::size_t kStampWireSize = 8;
// Tuple batches: the R/S audit counts follow the batch header. Set exactly
// on end-of-epoch batches, so again every payload has one encoding.
constexpr std::uint32_t kFlagCounts = 1u << 3;
constexpr std::size_t kCountsWireSize = 16;

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  return simd::crc32c(data.data(), data.size(), seed);
}

const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kCredit: return "credit";
    case MsgType::kAck: return "ack";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kWatermark: return "watermark";
    case MsgType::kTupleBatch: return "tuple-batch";
    case MsgType::kResultBatch: return "result-batch";
    case MsgType::kCheckpoint: return "checkpoint";
  }
  return "?";
}

const char* to_string(DecodeStatus s) noexcept {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kBadCrc: return "bad-crc";
    case DecodeStatus::kMalformed: return "malformed";
  }
  return "?";
}

void append_frame(std::vector<std::uint8_t>& wire, MsgType type,
                  std::uint64_t seq, std::span<const std::uint8_t> payload,
                  std::uint16_t channel) {
  HAL_CHECK(payload.size() <= kMaxPayload, "frame payload exceeds kMaxPayload");
  const std::size_t at = wire.size();
  wire.resize(at + kHeaderSize + payload.size());
  std::uint8_t* frame = wire.data() + at;
  std::copy(std::begin(kMagic), std::end(kMagic), frame);
  WireWriter w(std::span<std::uint8_t>(frame + 4, kHeaderSize - 4));
  w.put_u8(kProtocolVersion);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u16(channel);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_u32(crc32c(payload));
  w.put_u64(seq);
  HAL_ASSERT(w.done());
  std::copy(payload.begin(), payload.end(), frame + kHeaderSize);
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection doesn't grow its receive buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

DecodeStatus FrameDecoder::next(Frame& out) {
  if (error_ != DecodeStatus::kOk) return error_;
  if (buffered() < kHeaderSize) return DecodeStatus::kNeedMore;

  const std::uint8_t* h = buf_.data() + pos_;
  for (std::size_t i = 0; i < 4; ++i) {
    if (h[i] != kMagic[i]) return error_ = DecodeStatus::kBadMagic;
  }
  if (h[4] != kProtocolVersion) return error_ = DecodeStatus::kBadVersion;
  if (!valid_msg_type(h[5])) return error_ = DecodeStatus::kBadType;

  WireReader r(std::span<const std::uint8_t>(h + 6, kHeaderSize - 6));
  FrameHeader header;
  header.version = h[4];
  header.type = static_cast<MsgType>(h[5]);
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  const bool ok = r.read_u16(header.channel) && r.read_u32(len) &&
                  r.read_u32(crc) && r.read_u64(header.seq);
  HAL_ASSERT(ok);  // header span is exactly kHeaderSize - 6 bytes
  if (len > kMaxPayload) return error_ = DecodeStatus::kOversized;
  if (buffered() < kHeaderSize + len) return DecodeStatus::kNeedMore;

  const std::span<const std::uint8_t> payload(h + kHeaderSize, len);
  if (crc32c(payload) != crc) return error_ = DecodeStatus::kBadCrc;

  header.payload_len = len;
  header.payload_crc = crc;
  out.header = header;
  out.payload.assign(payload.begin(), payload.end());
  pos_ += kHeaderSize + len;
  compact();
  return DecodeStatus::kOk;
}

void FrameDecoder::reset() {
  buf_.clear();
  pos_ = 0;
  error_ = DecodeStatus::kOk;
}

// --- Message codecs --------------------------------------------------------

std::vector<std::uint8_t> encode(const HelloMsg& m) {
  std::vector<std::uint8_t> out(24);
  WireWriter w(out);
  w.put_u32(m.node_id);
  w.put_u32(m.shard);
  w.put_u64(m.resume_seq);
  w.put_u64(m.granted_through_seq);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, HelloMsg& m) {
  WireReader r(payload);
  return r.read_u32(m.node_id) && r.read_u32(m.shard) &&
         r.read_u64(m.resume_seq) && r.read_u64(m.granted_through_seq) &&
         r.done();
}

std::vector<std::uint8_t> encode(const CreditMsg& m) {
  std::vector<std::uint8_t> out(8);
  WireWriter(out).put_u64(m.granted_through_seq);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, CreditMsg& m) {
  WireReader r(payload);
  return r.read_u64(m.granted_through_seq) && r.done();
}

std::vector<std::uint8_t> encode(const AckMsg& m) {
  std::vector<std::uint8_t> out(8);
  WireWriter(out).put_u64(m.cumulative_seq);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, AckMsg& m) {
  WireReader r(payload);
  return r.read_u64(m.cumulative_seq) && r.done();
}

std::vector<std::uint8_t> encode(const ShutdownMsg& m) {
  std::vector<std::uint8_t> out(4);
  WireWriter(out).put_u32(m.reason);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, ShutdownMsg& m) {
  WireReader r(payload);
  return r.read_u32(m.reason) && r.done();
}

std::vector<std::uint8_t> encode(const WatermarkMsg& m) {
  std::vector<std::uint8_t> out(24);
  WireWriter w(out);
  w.put_u64(m.epoch);
  w.put_u64(m.r_count);
  w.put_u64(m.s_count);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, WatermarkMsg& m) {
  WireReader r(payload);
  return r.read_u64(m.epoch) && r.read_u64(m.r_count) &&
         r.read_u64(m.s_count) && r.done();
}

std::vector<std::uint8_t> encode(const TupleBatchMsg& m) {
  HAL_CHECK(m.stamps.empty() || m.stamps.size() == m.tuples.size(),
            "a tuple batch carries one stamp per tuple or none");
  HAL_CHECK(m.end_of_epoch || (m.r_count == 0 && m.s_count == 0),
            "only an end-of-epoch tuple batch carries audit counts");
  std::vector<std::uint8_t> out(24 + (m.end_of_epoch ? kCountsWireSize : 0) +
                                m.tuples.size() * kTupleWireSize +
                                m.stamps.size() * kStampWireSize);
  WireWriter w(out);
  w.put_u64(m.epoch);
  w.put_u64(m.link_seq);
  std::uint32_t flags = 0;
  if (m.end_of_epoch) flags |= kFlagEndOfEpoch | kFlagCounts;
  if (!m.stamps.empty()) flags |= kFlagStamps;
  w.put_u32(flags);
  w.put_u32(static_cast<std::uint32_t>(m.tuples.size()));
  if (m.end_of_epoch) {
    w.put_u64(m.r_count);
    w.put_u64(m.s_count);
  }
  for (const stream::Tuple& t : m.tuples) w.put_tuple(t);
  for (const std::uint64_t stamp : m.stamps) w.put_u64(stamp);
  HAL_ASSERT(w.done());
  return out;
}

bool decode(std::span<const std::uint8_t> payload, TupleBatchMsg& m) {
  WireReader r(payload);
  std::uint32_t flags = 0;
  std::uint32_t count = 0;
  if (!r.read_u64(m.epoch) || !r.read_u64(m.link_seq) || !r.read_u32(flags) ||
      !r.read_u32(count)) {
    return false;
  }
  if ((flags & ~(kFlagEndOfEpoch | kFlagStamps | kFlagCounts)) != 0) {
    return false;
  }
  m.end_of_epoch = (flags & kFlagEndOfEpoch) != 0;
  if (m.end_of_epoch != ((flags & kFlagCounts) != 0)) return false;
  m.r_count = 0;
  m.s_count = 0;
  if (m.end_of_epoch && (!r.read_u64(m.r_count) || !r.read_u64(m.s_count))) {
    return false;
  }
  const bool stamped = (flags & kFlagStamps) != 0;
  if (stamped && count == 0) return false;
  // Count must match the remaining bytes exactly; checking before the
  // resize keeps a corrupt count from over-allocating.
  const std::size_t per_tuple = kTupleWireSize + (stamped ? kStampWireSize : 0);
  if (r.remaining() != static_cast<std::size_t>(count) * per_tuple) {
    return false;
  }
  m.tuples.resize(count);
  for (stream::Tuple& t : m.tuples) {
    if (!r.read_tuple(t)) return false;
  }
  m.stamps.resize(stamped ? count : 0);
  for (std::uint64_t& stamp : m.stamps) {
    if (!r.read_u64(stamp)) return false;
  }
  return r.done();
}

std::vector<std::uint8_t> encode(const ResultBatchMsg& m) {
  std::vector<std::uint8_t> out(24 + m.results.size() * 2 * kTupleWireSize);
  WireWriter w(out);
  w.put_u64(m.epoch);
  std::uint32_t flags = 0;
  if (m.end_of_epoch) flags |= kFlagEndOfEpoch;
  if (m.died) flags |= kFlagDied;
  w.put_u32(flags);
  w.put_u32(static_cast<std::uint32_t>(m.results.size()));
  w.put_u64(m.dropped);
  for (const stream::ResultTuple& rt : m.results) {
    w.put_tuple(rt.r);
    w.put_tuple(rt.s);
  }
  HAL_ASSERT(w.done());
  return out;
}

bool decode(std::span<const std::uint8_t> payload, ResultBatchMsg& m) {
  WireReader r(payload);
  std::uint32_t flags = 0;
  std::uint32_t count = 0;
  if (!r.read_u64(m.epoch) || !r.read_u32(flags) || !r.read_u32(count) ||
      !r.read_u64(m.dropped)) {
    return false;
  }
  if ((flags & ~(kFlagEndOfEpoch | kFlagDied)) != 0) return false;
  m.end_of_epoch = (flags & kFlagEndOfEpoch) != 0;
  m.died = (flags & kFlagDied) != 0;
  if (r.remaining() != static_cast<std::size_t>(count) * 2 * kTupleWireSize) {
    return false;
  }
  m.results.resize(count);
  for (stream::ResultTuple& rt : m.results) {
    if (!r.read_tuple(rt.r) || !r.read_tuple(rt.s)) return false;
  }
  return r.done();
}

}  // namespace hal::net
