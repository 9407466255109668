#include "recovery/checkpoint.h"

#include "core/stream_join.h"
#include "net/wire.h"

namespace hal::recovery {

namespace {

using core::WindowImage;
using net::kTupleWireSize;
using net::WireReader;
using net::WireWriter;
using stream::Tuple;

// The payload's size in bytes (layout: checkpoint.h), so serialize() can
// fill it with fixed-width stores.
std::size_t payload_size(const WindowImage& image) {
  std::size_t size = 1 + 4 + 5 * 8 + 4;
  for (const auto& core : image.cores) {
    size += 9 + (core.win_r.size() + core.win_s.size()) * kTupleWireSize +
            (core.arr_r.size() + core.arr_s.size()) * 8;
  }
  size += 4;
  for (const auto& boundary : image.boundaries) {
    size += 8 + (boundary.r_q.size() + boundary.s_q.size()) * kTupleWireSize;
  }
  return size;
}

// Refuses counts the remaining bytes cannot possibly hold, so a corrupt
// count can never trigger an unbounded allocation.
bool read_tuples(WireReader& r, std::uint32_t count,
                 std::vector<Tuple>& out) {
  if (r.remaining() < static_cast<std::size_t>(count) * kTupleWireSize) {
    return false;
  }
  out.resize(count);
  for (Tuple& t : out) {
    if (!r.read_tuple(t)) return false;
  }
  return true;
}

bool read_arrivals(WireReader& r, std::size_t count,
                   std::vector<std::uint64_t>& out) {
  if (r.remaining() < count * 8) return false;
  out.resize(count);
  for (std::uint64_t& v : out) {
    if (!r.read_u64(v)) return false;
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> serialize(const WindowImage& image) {
  std::vector<std::uint8_t> payload(payload_size(image));
  WireWriter w(payload);
  w.put_u8(static_cast<std::uint8_t>(image.backend));
  w.put_u32(image.num_cores);
  w.put_u64(image.window_size);
  w.put_u64(image.epoch);
  w.put_u64(image.count_r);
  w.put_u64(image.count_s);
  w.put_u64(image.results_emitted);
  w.put_u32(static_cast<std::uint32_t>(image.cores.size()));
  for (const auto& core : image.cores) {
    w.put_u32(static_cast<std::uint32_t>(core.win_r.size()));
    w.put_u32(static_cast<std::uint32_t>(core.win_s.size()));
    const bool has_arrivals = !core.arr_r.empty() || !core.arr_s.empty();
    w.put_u8(has_arrivals ? 1 : 0);
    for (const Tuple& t : core.win_r) w.put_tuple(t);
    for (const Tuple& t : core.win_s) w.put_tuple(t);
    for (std::uint64_t a : core.arr_r) w.put_u64(a);
    for (std::uint64_t a : core.arr_s) w.put_u64(a);
  }
  w.put_u32(static_cast<std::uint32_t>(image.boundaries.size()));
  for (const auto& boundary : image.boundaries) {
    w.put_u32(static_cast<std::uint32_t>(boundary.r_q.size()));
    w.put_u32(static_cast<std::uint32_t>(boundary.s_q.size()));
    for (const Tuple& t : boundary.r_q) w.put_tuple(t);
    for (const Tuple& t : boundary.s_q) w.put_tuple(t);
  }
  HAL_ASSERT(w.done());

  std::vector<std::uint8_t> wire;
  net::append_frame(wire, net::MsgType::kCheckpoint, image.epoch, payload);
  return wire;
}

bool deserialize(std::span<const std::uint8_t> bytes, WindowImage& out) {
  net::FrameDecoder decoder;
  decoder.feed(bytes);
  net::Frame frame;
  if (decoder.next(frame) != net::DecodeStatus::kOk) return false;
  if (frame.header.type != net::MsgType::kCheckpoint) return false;
  // Exactly one frame: trailing bytes mean a damaged image store.
  net::Frame extra;
  if (decoder.next(extra) != net::DecodeStatus::kNeedMore ||
      decoder.buffered() != 0) {
    return false;
  }

  WireReader r(frame.payload);
  std::uint8_t backend = 0;
  std::uint32_t core_count = 0;
  WindowImage image;
  if (!r.read_u8(backend) || !r.read_u32(image.num_cores) ||
      !r.read_u64(image.window_size) || !r.read_u64(image.epoch) ||
      !r.read_u64(image.count_r) || !r.read_u64(image.count_s) ||
      !r.read_u64(image.results_emitted) || !r.read_u32(core_count)) {
    return false;
  }
  if (backend > static_cast<std::uint8_t>(core::Backend::kCluster)) {
    return false;
  }
  image.backend = static_cast<core::Backend>(backend);
  // Each core record needs at least its 9-byte header; checking before the
  // resize keeps a crafted count from over-allocating (the frame CRC only
  // guards against corruption, not construction).
  if (r.remaining() < static_cast<std::size_t>(core_count) * 9) return false;
  image.cores.resize(core_count);
  for (auto& core : image.cores) {
    std::uint32_t nr = 0;
    std::uint32_t ns = 0;
    std::uint8_t has_arrivals = 0;
    if (!r.read_u32(nr) || !r.read_u32(ns) || !r.read_u8(has_arrivals) ||
        has_arrivals > 1) {
      return false;
    }
    if (!read_tuples(r, nr, core.win_r) || !read_tuples(r, ns, core.win_s)) {
      return false;
    }
    if (has_arrivals == 1) {
      if (!read_arrivals(r, nr, core.arr_r) ||
          !read_arrivals(r, ns, core.arr_s)) {
        return false;
      }
    }
  }
  std::uint32_t boundary_count = 0;
  if (!r.read_u32(boundary_count)) return false;
  if (r.remaining() < static_cast<std::size_t>(boundary_count) * 8) {
    return false;
  }
  image.boundaries.resize(boundary_count);
  for (auto& boundary : image.boundaries) {
    std::uint32_t nr = 0;
    std::uint32_t ns = 0;
    if (!r.read_u32(nr) || !r.read_u32(ns)) return false;
    if (!read_tuples(r, nr, boundary.r_q) ||
        !read_tuples(r, ns, boundary.s_q)) {
      return false;
    }
  }
  if (!r.done()) return false;
  out = std::move(image);
  return true;
}

}  // namespace hal::recovery
