// hal::recovery checkpoint suite: a snapshot serialized, deserialized and
// restored into a fresh engine is indistinguishable from the original —
// pinned by re-snapshotting (byte-equal images) for every sw backend and
// by differential tail runs for the deterministic ones. The codec is
// total on hostile bytes: truncation, bit flips and structural lies all
// return false.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stream_join.h"
#include "core/window_image.h"
#include "net/wire.h"
#include "recovery/checkpoint.h"
#include "stream/generator.h"
#include "stream/reference_join.h"

namespace hal::recovery {
namespace {

using core::Backend;
using core::EngineConfig;
using core::WindowImage;
using stream::normalize;
using stream::Tuple;

std::vector<Tuple> workload(std::size_t n, std::uint64_t seed,
                            std::uint32_t key_domain = 16) {
  stream::WorkloadConfig wl;
  wl.seed = seed;
  wl.key_domain = key_domain;
  wl.deterministic_interleave = false;
  return stream::WorkloadGenerator(wl).take(n);
}

EngineConfig config_for(Backend b) {
  EngineConfig cfg;
  cfg.backend = b;
  cfg.window_size = 64;
  cfg.num_cores = 2;
  return cfg;
}

class CheckpointBackendTest : public testing::TestWithParam<Backend> {};

TEST_P(CheckpointBackendTest, ImageSurvivesSerializeRestoreResnapshot) {
  auto original = core::make_engine(config_for(GetParam()));
  original->process(workload(300, 5));
  original->take_results();

  WindowImage image;
  ASSERT_TRUE(original->snapshot(image));
  EXPECT_EQ(image.backend, GetParam());
  const std::vector<std::uint8_t> bytes = serialize(image);
  EXPECT_FALSE(bytes.empty());

  WindowImage decoded;
  ASSERT_TRUE(deserialize(bytes, decoded));
  auto restored = core::make_engine(config_for(GetParam()));
  ASSERT_TRUE(restored->restore(decoded));

  // Re-snapshotting the restored engine reproduces the image bit for bit
  // (serialize is a pure function of the image, so byte equality is image
  // equality). The epoch cursor lives with the caller and restore never
  // resurrects already-emitted results, so those two fields are copied.
  WindowImage again;
  ASSERT_TRUE(restored->snapshot(again));
  again.epoch = image.epoch;
  again.results_emitted = image.results_emitted;
  EXPECT_EQ(serialize(again), serialize(image));
}

TEST_P(CheckpointBackendTest, RestoreRejectsMismatchedImages) {
  auto engine = core::make_engine(config_for(GetParam()));
  engine->process(workload(200, 7));
  WindowImage image;
  ASSERT_TRUE(engine->snapshot(image));

  WindowImage wrong_backend = image;
  wrong_backend.backend = GetParam() == Backend::kSwBatch
                              ? Backend::kSwSplitJoin
                              : Backend::kSwBatch;
  EXPECT_FALSE(engine->restore(wrong_backend));

  WindowImage wrong_window = image;
  wrong_window.window_size = image.window_size * 2;
  EXPECT_FALSE(engine->restore(wrong_window));

  WindowImage wrong_cores = image;
  wrong_cores.cores.emplace_back();
  EXPECT_FALSE(engine->restore(wrong_cores));
}

std::string backend_name(const testing::TestParamInfo<Backend>& info) {
  std::string name(to_string(info.param));
  std::replace(name.begin(), name.end(), '-', '_');  // gtest: [A-Za-z0-9_]
  return name;
}

INSTANTIATE_TEST_SUITE_P(SwBackends, CheckpointBackendTest,
                         testing::Values(Backend::kSwSplitJoin,
                                         Backend::kSwHandshake,
                                         Backend::kSwBatch),
                         backend_name);

// Deterministic engines must behave identically after a restore: the
// restored engine's tail output equals the original's on the same tail.
class CheckpointTailTest : public testing::TestWithParam<Backend> {};

TEST_P(CheckpointTailTest, RestoredEngineMatchesOriginalOnTail) {
  const auto head = workload(400, 11);
  const auto tail = workload(200, 13);

  auto original = core::make_engine(config_for(GetParam()));
  original->process(head);
  original->take_results();
  WindowImage image;
  ASSERT_TRUE(original->snapshot(image));

  const std::vector<std::uint8_t> bytes = serialize(image);
  WindowImage decoded;
  ASSERT_TRUE(deserialize(bytes, decoded));
  auto restored = core::make_engine(config_for(GetParam()));
  ASSERT_TRUE(restored->restore(decoded));

  original->process(tail);
  restored->process(tail);
  EXPECT_EQ(normalize(restored->take_results()),
            normalize(original->take_results()));
}

INSTANTIATE_TEST_SUITE_P(DeterministicBackends, CheckpointTailTest,
                         testing::Values(Backend::kSwSplitJoin,
                                         Backend::kSwBatch),
                         backend_name);

TEST(Checkpoint, HwAndClusterBackendsDeclineToSnapshot) {
  for (const Backend b : {Backend::kHwUniflow, Backend::kHwBiflow}) {
    EngineConfig cfg = config_for(b);
    auto engine = core::make_engine(cfg);
    WindowImage image;
    EXPECT_FALSE(engine->snapshot(image)) << to_string(b);
    EXPECT_FALSE(engine->restore(image)) << to_string(b);
  }
  EngineConfig cfg;
  cfg.backend = Backend::kCluster;
  cfg.window_size = 64;
  cfg.num_cores = 1;
  cfg.cluster_shards = 2;
  cfg.cluster_worker_backend = Backend::kSwSplitJoin;
  auto cluster = core::make_engine(cfg);
  WindowImage image;
  EXPECT_FALSE(cluster->snapshot(image));
}

TEST(Checkpoint, DeserializeIsTotalOnHostileBytes) {
  auto engine = core::make_engine(config_for(Backend::kSwBatch));
  engine->process(workload(150, 17));
  WindowImage image;
  ASSERT_TRUE(engine->snapshot(image));
  const std::vector<std::uint8_t> good = serialize(image);
  WindowImage out;
  ASSERT_TRUE(deserialize(good, out));

  // Every truncation fails cleanly.
  for (std::size_t len = 0; len < good.size(); len += 7) {
    std::vector<std::uint8_t> cut(good.begin(), good.begin() + len);
    EXPECT_FALSE(deserialize(cut, out)) << "len " << len;
  }
  // Any single bit flip is caught (CRC) or structurally rejected — except
  // in the channel (bytes 6-7) and seq (16-23) header fields, which are
  // transport bookkeeping outside the payload CRC and ignored by the
  // checkpoint codec: flips there must not corrupt the decoded image.
  const auto is_unchecked_header_byte = [](std::size_t i) {
    return (i >= 6 && i < 8) || (i >= 16 && i < 24);
  };
  for (std::size_t i = 0; i < good.size(); i += 11) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x40;
    if (is_unchecked_header_byte(i)) {
      WindowImage reread;
      ASSERT_TRUE(deserialize(bad, reread)) << "byte " << i;
      EXPECT_EQ(serialize(reread), good) << "byte " << i;
    } else {
      EXPECT_FALSE(deserialize(bad, out)) << "byte " << i;
    }
  }
  // Trailing garbage after a valid frame means a damaged image store.
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(deserialize(padded, out));
  // A valid frame of the wrong message type is not a checkpoint.
  net::TupleBatchMsg msg;
  msg.epoch = 1;
  std::vector<std::uint8_t> frame;
  net::append_frame(frame, net::MsgType::kTupleBatch, 1, net::encode(msg));
  EXPECT_FALSE(deserialize(frame, out));
}

// A small image pinned byte for byte, as written by the codec of
// protocol v3: a layout change made the same way in serialize and
// deserialize would pass every round trip above, but not this.
TEST(Checkpoint, GoldenImageBytes) {
  const auto tuple = [](std::uint32_t key, std::uint32_t value,
                        std::uint64_t seq, stream::StreamId origin) {
    Tuple t;
    t.key = key;
    t.value = value;
    t.seq = seq;
    t.origin = origin;
    return t;
  };
  WindowImage image;
  image.backend = Backend::kSwBatch;
  image.num_cores = 2;
  image.window_size = 8;
  image.epoch = 0x0102030405060708ull;
  image.count_r = 5;
  image.count_s = 0xFFFFFFFF00000001ull;
  image.results_emitted = 17;
  image.cores.resize(2);
  image.cores[0].win_r = {tuple(0xA1B2C3D4u, 1, 2, stream::StreamId::R)};
  image.cores[0].win_s = {tuple(3, 0x80000000u, 4, stream::StreamId::S)};
  image.cores[1].win_r = {tuple(6, 7, 0x1122334455667788ull,
                                stream::StreamId::R)};
  image.cores[1].arr_r = {0x8000000000000009ull};
  image.boundaries.resize(1);
  image.boundaries[0].r_q = {tuple(9, 10, 11, stream::StreamId::S)};
  const std::string golden =
      "48414c4e030800009b000000d6e15e6508070605040302010402000000080000"
      "00000000000807060504030201050000000000000001000000ffffffff110000"
      "000000000002000000010000000100000000d4c3b2a101000000020000000000"
      "0000000300000000000080040000000000000001010000000000000001060000"
      "0007000000887766554433221100090000000000008001000000010000000000"
      "0000090000000a0000000b0000000000000001";

  const std::vector<std::uint8_t> bytes = serialize(image);
  std::string hex;
  for (const std::uint8_t b : bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  EXPECT_EQ(hex, golden);

  std::vector<std::uint8_t> golden_bytes;
  for (std::size_t i = 0; i + 1 < golden.size(); i += 2) {
    golden_bytes.push_back(static_cast<std::uint8_t>(
        std::stoul(golden.substr(i, 2), nullptr, 16)));
  }
  WindowImage out;
  ASSERT_TRUE(deserialize(golden_bytes, out));
  EXPECT_EQ(out.backend, Backend::kSwBatch);
  EXPECT_EQ(out.epoch, image.epoch);
  EXPECT_EQ(out.count_s, image.count_s);
  ASSERT_EQ(out.cores.size(), 2u);
  EXPECT_EQ(out.cores[0].win_r, image.cores[0].win_r);
  EXPECT_EQ(out.cores[0].win_s, image.cores[0].win_s);
  EXPECT_EQ(out.cores[1].win_r, image.cores[1].win_r);
  EXPECT_EQ(out.cores[1].arr_r, image.cores[1].arr_r);
  ASSERT_EQ(out.boundaries.size(), 1u);
  EXPECT_EQ(out.boundaries[0].r_q, image.boundaries[0].r_q);
  EXPECT_EQ(serialize(out), golden_bytes);
}

TEST(Checkpoint, EmptyEngineRoundTrips) {
  auto engine = core::make_engine(config_for(Backend::kSwSplitJoin));
  WindowImage image;
  ASSERT_TRUE(engine->snapshot(image));
  EXPECT_EQ(image.count_r, 0u);
  EXPECT_EQ(image.count_s, 0u);
  WindowImage decoded;
  ASSERT_TRUE(deserialize(serialize(image), decoded));
  auto fresh = core::make_engine(config_for(Backend::kSwSplitJoin));
  EXPECT_TRUE(fresh->restore(decoded));
}

}  // namespace
}  // namespace hal::recovery
