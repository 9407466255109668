// hal::net wire codec — the cluster runtime's network data path, layer 1.
//
// The paper's system model (Fig. 2/3) treats the network elements between
// nodes — NICs, the switch, custom offload — as first-class stages of the
// active data path. This codec defines what actually crosses that path: a
// versioned, length-prefixed frame carrying one message, integrity-checked
// with CRC32C (the same polynomial NICs and switches implement in
// hardware, which is the point: every field here is cheap to parse or
// check in an FPGA/NIC offload).
//
// Frame layout (all integers little-endian):
//
//   offset size  field
//   0      4     magic 'H''A''L''N'
//   4      1     protocol version (kProtocolVersion)
//   5      1     message type (MsgType)
//   6      2     logical channel id
//   8      4     payload length N (<= kMaxPayload)
//   12     4     CRC32C of the N payload bytes
//   16     8     sequence number (data frames; 0 on unsequenced control)
//   24     N     payload
//
// Decoding is fuzz-safe by construction: every read is bounds-checked
// against the buffered byte count, truncated input parks as kNeedMore,
// and any malformed header or payload yields a typed error — never
// undefined behavior. The differential fuzz tests bit-flip and truncate
// encoded frames and assert exactly this contract.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/assert.h"
#include "stream/tuple.h"

namespace hal::net {

inline constexpr std::uint8_t kProtocolVersion = 3;
inline constexpr std::size_t kHeaderSize = 24;
// Caps a frame's payload so a corrupted length field can never trigger an
// unbounded allocation (16 MiB >> any batch the cluster ships).
inline constexpr std::size_t kMaxPayload = std::size_t{1} << 24;
inline constexpr std::uint8_t kMagic[4] = {'H', 'A', 'L', 'N'};

enum class MsgType : std::uint8_t {
  kHello = 1,        // connection (re)establishment + resume/credit state
  kCredit = 2,       // flow-control window advance
  kAck = 3,          // cumulative receipt acknowledgement
  kShutdown = 4,     // orderly connection teardown
  kWatermark = 5,    // three u64s; the cluster sends none (since v3)
  kTupleBatch = 6,   // input tuples routed to a shard
  kResultBatch = 7,  // joined results returned from a shard
  kCheckpoint = 8,   // serialized WindowImage (hal::recovery)
};

[[nodiscard]] constexpr bool valid_msg_type(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(MsgType::kHello) &&
         raw <= static_cast<std::uint8_t>(MsgType::kCheckpoint);
}

[[nodiscard]] const char* to_string(MsgType t) noexcept;

enum class DecodeStatus : std::uint8_t {
  kOk,
  kNeedMore,   // incomplete frame buffered; not an error
  kBadMagic,
  kBadVersion,
  kBadType,
  kOversized,  // payload length exceeds kMaxPayload
  kBadCrc,
  kMalformed,  // payload structure inconsistent with its message type
};

[[nodiscard]] const char* to_string(DecodeStatus s) noexcept;

// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected) — the checksum
// iSCSI/ext4/NVMe and NIC offloads standardize on. Runs on the simd
// dispatch (simd::crc32c): the CPU's CRC instruction on AVX2 hosts, the
// byte-wise table under HAL_SIMD_ISA=scalar and elsewhere. `seed` allows
// incremental computation: crc32c(b, crc32c(a)) == crc32c(a ‖ b).
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0) noexcept;

// --- Little-endian field codec ---------------------------------------------
//
// The one place that knows the byte order and the tuple record: every
// payload codec below and the checkpoint codec (recovery/checkpoint.h)
// are built from these. An encoder sizes its payload once and fills it
// with fixed-width stores; a decoder reads through a bounds-checked
// cursor, which is what makes every decode total on arbitrary bytes.

// 17 bytes per tuple: key u32 | value u32 | seq u64 | origin u8 (0 = R,
// 1 = S). seq and origin are simulator metadata (tuple.h), but the
// distributed runtime ships them so the workers' stale-pair filter and
// the merger's ordering contract work across the process boundary exactly
// as they do in-process.
inline constexpr std::size_t kTupleWireSize = 17;

// `v` in little-endian byte order (a byte swap only on big-endian hosts).
template <typename T>
[[nodiscard]] constexpr T to_little_endian(T v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 2) return __builtin_bswap16(v);
    if constexpr (sizeof(T) == 4) return __builtin_bswap32(v);
    if constexpr (sizeof(T) == 8) return __builtin_bswap64(v);
  }
  return v;
}

// Fills a buffer sized up front, one fixed-width store per field. Writing
// past the end is a bug in the caller's sizing and aborts.
class WireWriter {
 public:
  explicit WireWriter(std::span<std::uint8_t> out) noexcept
      : at_(out.data()), end_(out.data() + out.size()) {}

  void put_u8(std::uint8_t v) noexcept { put(v); }
  void put_u16(std::uint16_t v) noexcept { put(v); }
  void put_u32(std::uint32_t v) noexcept { put(v); }
  void put_u64(std::uint64_t v) noexcept { put(v); }

  void put_tuple(const stream::Tuple& t) noexcept {
    HAL_ASSERT(static_cast<std::size_t>(end_ - at_) >= kTupleWireSize);
    store(at_, t.key);
    store(at_ + 4, t.value);
    store(at_ + 8, t.seq);
    at_[16] = t.origin == stream::StreamId::R ? 0 : 1;
    at_ += kTupleWireSize;
  }

  // True once every byte of the buffer has been written.
  [[nodiscard]] bool done() const noexcept { return at_ == end_; }

 private:
  template <typename T>
  static void store(std::uint8_t* at, T v) noexcept {
    v = to_little_endian(v);
    std::memcpy(at, &v, sizeof v);
  }

  template <typename T>
  void put(T v) noexcept {
    HAL_ASSERT(static_cast<std::size_t>(end_ - at_) >= sizeof v);
    store(at_, v);
    at_ += sizeof v;
  }

  std::uint8_t* at_;
  std::uint8_t* end_;
};

// Bounds-checked sequential reader: every read refuses to go past the
// span's end and leaves the cursor where it was when it does.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] bool read_u8(std::uint8_t& v) noexcept { return read(v); }
  [[nodiscard]] bool read_u16(std::uint16_t& v) noexcept { return read(v); }
  [[nodiscard]] bool read_u32(std::uint32_t& v) noexcept { return read(v); }
  [[nodiscard]] bool read_u64(std::uint64_t& v) noexcept { return read(v); }

  // One tuple record; false past the end or on an origin byte above 1.
  [[nodiscard]] bool read_tuple(stream::Tuple& t) noexcept {
    if (remaining() < kTupleWireSize) return false;
    const std::uint8_t* at = data_.data() + pos_;
    const std::uint8_t origin = at[16];
    if (origin > 1) return false;
    t.key = load<std::uint32_t>(at);
    t.value = load<std::uint32_t>(at + 4);
    t.seq = load<std::uint64_t>(at + 8);
    t.origin = origin == 0 ? stream::StreamId::R : stream::StreamId::S;
    pos_ += kTupleWireSize;
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  template <typename T>
  static T load(const std::uint8_t* at) noexcept {
    T v = 0;
    std::memcpy(&v, at, sizeof v);
    return to_little_endian(v);
  }

  template <typename T>
  [[nodiscard]] bool read(T& v) noexcept {
    if (remaining() < sizeof v) return false;
    v = load<T>(data_.data() + pos_);
    pos_ += sizeof v;
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kHello;
  std::uint16_t channel = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
  std::uint64_t seq = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

// Appends one encoded frame (header + payload) to `wire`.
void append_frame(std::vector<std::uint8_t>& wire, MsgType type,
                  std::uint64_t seq, std::span<const std::uint8_t> payload,
                  std::uint16_t channel = 0);

// Incremental frame decoder: feed() arbitrary byte chunks (a TCP stream
// has no message boundaries), then next() until it returns kNeedMore.
// A fatal status poisons the decoder — the byte stream has lost framing
// and the connection must be reset — until reset() is called.
class FrameDecoder {
 public:
  void feed(std::span<const std::uint8_t> data);
  [[nodiscard]] DecodeStatus next(Frame& out);
  void reset();

  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - pos_;
  }
  [[nodiscard]] bool poisoned() const noexcept {
    return error_ != DecodeStatus::kOk;
  }

 private:
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  DecodeStatus error_ = DecodeStatus::kOk;
};

// --- Message payloads ------------------------------------------------------

struct HelloMsg {
  std::uint32_t node_id = 0;
  std::uint32_t shard = 0;
  // Next data-frame sequence number this side expects to receive; the
  // peer replays its unacknowledged frames from here after a reconnect.
  std::uint64_t resume_seq = 1;
  // Absolute credit grant: the peer may send data frames with
  // seq <= granted_through_seq (credit-based backpressure, the network
  // mirror of the hardware ready/valid handshake).
  std::uint64_t granted_through_seq = 0;

  friend bool operator==(const HelloMsg&, const HelloMsg&) = default;
};

struct CreditMsg {
  std::uint64_t granted_through_seq = 0;

  friend bool operator==(const CreditMsg&, const CreditMsg&) = default;
};

struct AckMsg {
  std::uint64_t cumulative_seq = 0;  // all data frames <= this delivered

  friend bool operator==(const AckMsg&, const AckMsg&) = default;
};

struct ShutdownMsg {
  std::uint32_t reason = 0;  // 0 = orderly

  friend bool operator==(const ShutdownMsg&, const ShutdownMsg&) = default;
};

// Epoch barrier with per-stream arrival counts. The cluster no longer
// sends it (protocol version 3 moved the counts onto the end-of-epoch
// tuple batch); it stays a data frame type of the transport.
struct WatermarkMsg {
  std::uint64_t epoch = 0;
  std::uint64_t r_count = 0;
  std::uint64_t s_count = 0;

  friend bool operator==(const WatermarkMsg&, const WatermarkMsg&) = default;
};

struct TupleBatchMsg {
  std::uint64_t epoch = 0;
  // Per-link batch sequence number assigned by the cluster replay log
  // (hal::recovery); 0 when replay is disabled. Distinct from the frame
  // seq, which the transport renumbers per connection.
  std::uint64_t link_seq = 0;
  bool end_of_epoch = false;
  std::vector<stream::Tuple> tuples;
  // Exact-global window horizons, one per tuple (cluster/router.h), or
  // none. Sent as a trailing u64 section, flagged in the batch header.
  std::vector<std::uint64_t> stamps;
  // End-of-epoch batches only: the R and S tuples the sender routed to
  // this link in the epoch, this batch's included, so the receiver can
  // audit exactly-once delivery. Sent as a u64 pair after the batch
  // header, flagged there; zero on every other batch.
  std::uint64_t r_count = 0;
  std::uint64_t s_count = 0;

  friend bool operator==(const TupleBatchMsg&, const TupleBatchMsg&) =
      default;
};

struct ResultBatchMsg {
  std::uint64_t epoch = 0;
  bool end_of_epoch = false;
  bool died = false;  // worker announced fail-stop
  // Stale pairs the worker dropped since its previous result batch.
  std::uint64_t dropped = 0;
  std::vector<stream::ResultTuple> results;

  friend bool operator==(const ResultBatchMsg&, const ResultBatchMsg&) =
      default;
};

// Every encode produces exactly the payload bytes (no frame header);
// every decode returns false on any structural inconsistency (short
// buffer, trailing bytes, bad enum value, count/length mismatch).
[[nodiscard]] std::vector<std::uint8_t> encode(const HelloMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const CreditMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const AckMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const ShutdownMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const WatermarkMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const TupleBatchMsg& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const ResultBatchMsg& m);

[[nodiscard]] bool decode(std::span<const std::uint8_t> payload, HelloMsg& m);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          CreditMsg& m);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload, AckMsg& m);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          ShutdownMsg& m);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          WatermarkMsg& m);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          TupleBatchMsg& m);
[[nodiscard]] bool decode(std::span<const std::uint8_t> payload,
                          ResultBatchMsg& m);

// Convenience: encode a message and append it as one framed wire record.
template <typename Msg>
void append_message(std::vector<std::uint8_t>& wire, MsgType type,
                    std::uint64_t seq, const Msg& m,
                    std::uint16_t channel = 0) {
  const std::vector<std::uint8_t> payload = encode(m);
  append_frame(wire, type, seq, payload, channel);
}

}  // namespace hal::net
