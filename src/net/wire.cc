#include "net/wire.h"

#include <array>

#include "common/assert.h"

namespace hal::net {

namespace {

// --- Little-endian primitives ---------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

// Bounds-checked sequential reader: every accessor refuses to read past
// the span's end, which is what makes decode() total on arbitrary bytes.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool read_u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = data_[pos_++];
    return true;
  }

  [[nodiscard]] bool read_u16(std::uint16_t& v) {
    if (pos_ + 2 > data_.size()) return false;
    v = static_cast<std::uint16_t>(data_[pos_]) |
        static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return true;
  }

  [[nodiscard]] bool read_u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool read_u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- Tuple wire layout -----------------------------------------------------

// 17 bytes per tuple: key u32 | value u32 | seq u64 | origin u8. seq and
// origin are simulator metadata (tuple.h), but the distributed runtime
// ships them so the workers' stale-pair filter and the merger's ordering
// contract work across the process boundary exactly as they do
// in-process.
constexpr std::size_t kTupleWireSize = 17;

void put_tuple(std::vector<std::uint8_t>& out, const stream::Tuple& t) {
  put_u32(out, t.key);
  put_u32(out, t.value);
  put_u64(out, t.seq);
  put_u8(out, t.origin == stream::StreamId::R ? 0 : 1);
}

[[nodiscard]] bool read_tuple(Reader& r, stream::Tuple& t) {
  std::uint8_t origin = 0;
  if (!r.read_u32(t.key) || !r.read_u32(t.value) || !r.read_u64(t.seq) ||
      !r.read_u8(origin)) {
    return false;
  }
  if (origin > 1) return false;
  t.origin = origin == 0 ? stream::StreamId::R : stream::StreamId::S;
  return true;
}

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

// --- CRC32C table ----------------------------------------------------------

constexpr std::uint32_t kCrcPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kCrcPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xFFu];
  }
  return ~crc;
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
  wire.reserve(wire.size() + kHeaderSize + payload.size());
  wire.insert(wire.end(), std::begin(kMagic), std::end(kMagic));
  put_u8(wire, kProtocolVersion);
  put_u8(wire, static_cast<std::uint8_t>(type));
  put_u16(wire, channel);
  put_u32(wire, static_cast<std::uint32_t>(payload.size()));
  put_u32(wire, crc32c(payload));
  put_u64(wire, seq);
  wire.insert(wire.end(), payload.begin(), payload.end());
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

  Reader r(std::span<const std::uint8_t>(h + 6, kHeaderSize - 6));
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
  std::vector<std::uint8_t> out;
  put_u32(out, m.node_id);
  put_u32(out, m.shard);
  put_u64(out, m.resume_seq);
  put_u64(out, m.granted_through_seq);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, HelloMsg& m) {
  Reader r(payload);
  return r.read_u32(m.node_id) && r.read_u32(m.shard) &&
         r.read_u64(m.resume_seq) && r.read_u64(m.granted_through_seq) &&
         r.done();
}

std::vector<std::uint8_t> encode(const CreditMsg& m) {
  std::vector<std::uint8_t> out;
  put_u64(out, m.granted_through_seq);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, CreditMsg& m) {
  Reader r(payload);
  return r.read_u64(m.granted_through_seq) && r.done();
}

std::vector<std::uint8_t> encode(const AckMsg& m) {
  std::vector<std::uint8_t> out;
  put_u64(out, m.cumulative_seq);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, AckMsg& m) {
  Reader r(payload);
  return r.read_u64(m.cumulative_seq) && r.done();
}

std::vector<std::uint8_t> encode(const ShutdownMsg& m) {
  std::vector<std::uint8_t> out;
  put_u32(out, m.reason);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, ShutdownMsg& m) {
  Reader r(payload);
  return r.read_u32(m.reason) && r.done();
}

std::vector<std::uint8_t> encode(const WatermarkMsg& m) {
  std::vector<std::uint8_t> out;
  put_u64(out, m.epoch);
  put_u64(out, m.r_count);
  put_u64(out, m.s_count);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, WatermarkMsg& m) {
  Reader r(payload);
  return r.read_u64(m.epoch) && r.read_u64(m.r_count) &&
         r.read_u64(m.s_count) && r.done();
}

std::vector<std::uint8_t> encode(const TupleBatchMsg& m) {
  HAL_CHECK(m.stamps.empty() || m.stamps.size() == m.tuples.size(),
            "a tuple batch carries one stamp per tuple or none");
  HAL_CHECK(m.end_of_epoch || (m.r_count == 0 && m.s_count == 0),
            "only an end-of-epoch tuple batch carries audit counts");
  std::vector<std::uint8_t> out;
  out.reserve(24 + kCountsWireSize + m.tuples.size() * kTupleWireSize +
              m.stamps.size() * kStampWireSize);
  put_u64(out, m.epoch);
  put_u64(out, m.link_seq);
  std::uint32_t flags = 0;
  if (m.end_of_epoch) flags |= kFlagEndOfEpoch | kFlagCounts;
  if (!m.stamps.empty()) flags |= kFlagStamps;
  put_u32(out, flags);
  put_u32(out, static_cast<std::uint32_t>(m.tuples.size()));
  if (m.end_of_epoch) {
    put_u64(out, m.r_count);
    put_u64(out, m.s_count);
  }
  for (const stream::Tuple& t : m.tuples) put_tuple(out, t);
  for (const std::uint64_t stamp : m.stamps) put_u64(out, stamp);
  return out;
}

bool decode(std::span<const std::uint8_t> payload, TupleBatchMsg& m) {
  Reader r(payload);
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
  // reserve keeps a corrupt count from over-allocating.
  const std::size_t per_tuple = kTupleWireSize + (stamped ? kStampWireSize : 0);
  if (r.remaining() != static_cast<std::size_t>(count) * per_tuple) {
    return false;
  }
  m.tuples.clear();
  m.tuples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    stream::Tuple t;
    if (!read_tuple(r, t)) return false;
    m.tuples.push_back(t);
  }
  m.stamps.assign(stamped ? count : 0, 0);
  for (std::uint64_t& stamp : m.stamps) {
    if (!r.read_u64(stamp)) return false;
  }
  return r.done();
}

std::vector<std::uint8_t> encode(const ResultBatchMsg& m) {
  std::vector<std::uint8_t> out;
  out.reserve(24 + m.results.size() * 2 * kTupleWireSize);
  put_u64(out, m.epoch);
  std::uint32_t flags = 0;
  if (m.end_of_epoch) flags |= kFlagEndOfEpoch;
  if (m.died) flags |= kFlagDied;
  put_u32(out, flags);
  put_u32(out, static_cast<std::uint32_t>(m.results.size()));
  put_u64(out, m.dropped);
  for (const stream::ResultTuple& rt : m.results) {
    put_tuple(out, rt.r);
    put_tuple(out, rt.s);
  }
  return out;
}

bool decode(std::span<const std::uint8_t> payload, ResultBatchMsg& m) {
  Reader r(payload);
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
  m.results.clear();
  m.results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    stream::ResultTuple rt;
    if (!read_tuple(r, rt.r) || !read_tuple(r, rt.s)) return false;
    m.results.push_back(rt);
  }
  return r.done();
}

}  // namespace hal::net
