#include "oracle.h"

#include "stream/generator.h"
#include "stream/reference_join.h"

namespace perfbench {

using hal::stream::StreamId;
using hal::stream::Tuple;

CountingOracle::CountingOracle(std::size_t window) : window_(window) {
  for (Side& s : side_) s.ring.assign(window, 0);
}

std::uint64_t CountingOracle::process(const Tuple& t) {
  Side& own = side_[t.origin == StreamId::R ? 0 : 1];
  const Side& other = side_[t.origin == StreamId::R ? 1 : 0];
  const auto it = other.count.find(t.key);
  const std::uint64_t matches = it != other.count.end() ? it->second : 0;

  if (own.size == window_) {
    const auto old = own.count.find(own.ring[own.head]);
    if (--old->second == 0) own.count.erase(old);
    own.ring[own.head] = t.key;
    own.head = (own.head + 1) % window_;
  } else {
    own.ring[(own.head + own.size) % window_] = t.key;
    ++own.size;
  }
  ++own.count[t.key];
  return matches;
}

std::string self_test() {
  using hal::stream::KeyDistribution;
  struct Case {
    std::size_t window;
    std::uint32_t key_domain;
    KeyDistribution dist;
    bool deterministic_interleave;
  };
  const Case cases[] = {
      {1, 4, KeyDistribution::kUniform, true},
      {7, 16, KeyDistribution::kUniform, false},
      {64, 64, KeyDistribution::kZipf, true},
      {256, 1u << 10, KeyDistribution::kZipf, false},
      {1000, 1u << 20, KeyDistribution::kUniform, true},
  };
  for (const Case& c : cases) {
    hal::stream::WorkloadConfig wc;
    wc.seed = 7 + c.window;
    wc.key_domain = c.key_domain;
    wc.distribution = c.dist;
    wc.zipf_theta = 0.9;
    wc.deterministic_interleave = c.deterministic_interleave;
    hal::stream::WorkloadGenerator gen(wc);
    hal::stream::ReferenceJoin ref(c.window,
                                   hal::stream::JoinSpec::equi_on_key());
    CountingOracle oracle(c.window);
    std::vector<hal::stream::ResultTuple> out;
    for (std::size_t i = 0; i < 8 * c.window + 64; ++i) {
      const Tuple t = gen.next();
      out.clear();
      ref.process(t, out);
      const std::uint64_t counted = oracle.process(t);
      if (counted != out.size()) {
        return "window " + std::to_string(c.window) + ", tuple " +
               std::to_string(i) + ": counting oracle " +
               std::to_string(counted) + " != ReferenceJoin " +
               std::to_string(out.size());
      }
    }
  }
  return {};
}

}  // namespace perfbench
