// hal::elastic — live shard add/remove with online state migration and
// skew-aware routing for the key-hash cluster.
//
// The paper's scaling story (§VI, Fig. 17) is static: pick a shard count,
// measure. Real deployments resize under load, and the interesting
// question is what a reconfiguration costs while the join keeps running.
// This controller answers it with an epoch-aligned migration protocol on
// top of cluster::ClusterEngine's topology primitives:
//
//   1. freeze  — migrations run strictly between process() calls, at the
//                epoch barrier where every slot's epoch has been collected
//                (supervised restarts included). No tuple is in flight for
//                the affected key ranges, so there is nothing to quiesce:
//                the barrier *is* the freeze.
//   2. ship    — each source slot's window state is captured (a live
//                snapshot, or the newest checkpoint plus the replay-log
//                delta since it — the "since-snapshot ingress delta"),
//                serialized with recovery::serialize, and pushed through a
//                hal::net connection so every migration exercises the full
//                wire codec (CRC, framing, credit window).
//   3. rebuild — every slot whose key set changes is rebuilt from the
//                seq-ordered, seq-deduplicated merge of its own surviving
//                tuples and the shipped-in state. Count-based eviction
//                trims the merge to the window, and the exact-global
//                horizon stamps keep the output multiset byte-identical
//                to a fixed-topology oracle (router.h has the argument).
//   4. swap    — the versioned KeyspaceMap is installed atomically
//                (version must be exactly current+1), then slots the new
//                map no longer references are retired. In-flight tuples
//                cannot be double-counted or dropped because there are
//                none at the barrier.
//
// Skew-aware routing rides the same machinery: the router's per-key load
// counters feed rebalance(), which (a) splits hot keys across a replica
// group 1×k join-matrix style — R replicated, S dealt round-robin, so each
// (r, s) pair still meets exactly once — and (b) greedily repacks whole
// keyslots so zipfian workloads spread like uniform ones.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace hal::elastic {

struct ElasticConfig {
  // Ship every migration image through a hal::net connection even when
  // the cluster's own links are raw SPSC: codec fidelity on every path.
  // Off = decode the serialized frame in place (still exercises the
  // checkpoint codec, skips the wire).
  bool ship_images = true;
  // Transport carrying shipped images. The cluster's sockets are not
  // reused — migration is a control-plane transfer with its own channel.
  net::TransportKind ship_transport = net::TransportKind::kLoopback;
  // Reconstruct source state as newest-checkpoint + replay-delta instead
  // of a live snapshot when the delta still covers the gap (requires
  // recovery.supervise). Falls back to a snapshot when it does not.
  // Either way a slot whose replicas are all dead is served from the
  // checkpoint path when possible.
  bool prefer_checkpoint_delta = false;
  // rebalance(): a key is "hot" when its measured load exceeds
  // threshold × the per-shard fair share; hot keys are split.
  double hot_key_split_threshold = 1.0;
  // Upper bound on a split group's size (and on split creation at all:
  // < 2 disables splitting).
  std::uint32_t max_split_ways = 4;
  // rebalance(): keyslots move while some shard's measured load exceeds
  // (1 + slack) × fair share and a move strictly improves the spread.
  double rebalance_slack = 0.10;
};

// One migration's accounting, also the unit of the controller's history.
struct MigrationReport {
  std::uint64_t from_version = 0;
  std::uint64_t to_version = 0;
  std::uint32_t shards_before = 0;
  std::uint32_t shards_after = 0;
  std::uint32_t moved_keyslots = 0;  // owner changed in this revision
  std::uint32_t rebuilt_slots = 0;
  std::uint32_t splits_created = 0;  // split groups added or resized
  std::uint32_t splits_removed = 0;
  std::uint64_t moved_tuples = 0;     // tuples shipped into rebuilt slots
  std::uint64_t image_bytes = 0;      // Σ serialized source images
  std::uint64_t shipped_frames = 0;   // images that crossed the net channel
  std::uint64_t replayed_batches = 0; // checkpoint+delta reconstructions
  std::uint32_t lost_sources = 0;     // dead slots with no usable state
  double pause_seconds = 0.0;  // wall time process() was held off
};

class Controller {
 public:
  // The engine must be kKeyHash-partitioned; the controller holds a
  // reference and must not outlive it. All calls must happen on the
  // thread that calls engine.process(), between process() calls.
  explicit Controller(cluster::ClusterEngine& engine, ElasticConfig cfg = {});
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // Grows the cluster by `count` fresh slots and rebalances keyslots onto
  // them (load-weighted when key-load tracking is on, count-balanced
  // otherwise).
  MigrationReport add_shards(std::uint32_t count);
  // Shrinks by `count` slots (the highest-numbered live ones): their
  // splits are dissolved, their keyslots migrate to the survivors, then
  // the victims are retired. At least one slot must survive.
  MigrationReport remove_shards(std::uint32_t count);

  // Evicts one *specific* live slot — the hal::guard quarantine path: the
  // slot's splits dissolve, its keyslots re-route to the survivors, its
  // state ships out, then it is retired. Same protocol as remove_shards,
  // but the victim is chosen by the caller (a suspected-slow shard), not
  // by slot id. At least one other slot must survive.
  MigrationReport drain_slot(std::uint32_t slot);

  // Splits `key` across the `ways` least-loaded live slots (join-matrix
  // style); unsplit_key() collapses it back onto its keyslot's owner.
  MigrationReport split_key(std::uint32_t key, std::uint32_t ways);
  MigrationReport unsplit_key(std::uint32_t key);

  // Measured-skew pass: splits keys whose load exceeds the hot-key
  // threshold, dissolves splits that cooled off, then repacks keyslots
  // until every shard is within the slack band. Returns one report per
  // revision installed (empty when the placement was already balanced).
  std::vector<MigrationReport> rebalance();

  [[nodiscard]] const std::vector<MigrationReport>& history() const noexcept {
    return history_;
  }

  // Controller totals under `prefix` ("elastic."): migration counts and
  // moved bytes/tuples are deterministic for a fixed reconfiguration
  // schedule; pause wall time is not.
  void collect_metrics(obs::MetricRegistry& registry,
                       const std::string& prefix) const;

 private:
  // Computes the delta between the installed keyspace and `next`
  // (version already bumped), gathers every source slot's state, rebuilds
  // every affected slot, installs `next`, then retires `retire`.
  void execute(cluster::KeyspaceMap next,
               const std::vector<std::uint32_t>& retire,
               MigrationReport& rep);
  // One slot's window as a seq-sorted, seq-deduplicated tuple list
  // (snapshot or checkpoint+delta per config), shipped per config.
  [[nodiscard]] std::vector<stream::Tuple> fetch_slot(std::uint32_t slot,
                                                      MigrationReport& rep);
  // Round-trips a serialized image through the controller's net channel
  // (lazily established) and returns the received bytes.
  [[nodiscard]] std::vector<std::uint8_t> ship(
      std::vector<std::uint8_t> bytes);
  void ensure_ship_channel();

  // Live slot ids, ascending.
  [[nodiscard]] std::vector<std::uint32_t> live_slots() const;
  // Measured per-keyslot load under the split set of `splits` (split keys
  // don't ride their keyslot); uniform 1.0 per keyslot when tracking is
  // off or nothing was routed yet.
  [[nodiscard]] std::vector<double> keyslot_loads(
      const std::map<std::uint32_t, std::vector<std::uint32_t>>& splits)
      const;
  // Deterministic greedy repack of `cur`'s keyslots over `targets`:
  // forced moves off non-targets first (largest load to least-loaded
  // shard), then largest-from-fullest to emptiest while it strictly
  // narrows the spread. Does not bump the version.
  [[nodiscard]] static cluster::KeyspaceMap balanced(
      const cluster::KeyspaceMap& cur,
      const std::vector<std::uint32_t>& targets,
      const std::vector<double>& load);

  cluster::ClusterEngine& engine_;
  ElasticConfig cfg_;
  std::vector<MigrationReport> history_;

  // Lazy migration channel (ship_images): a listener/dialer pair on a
  // controller-owned transport. Teardown order: dialer, listener,
  // transport (see ~Controller).
  std::unique_ptr<net::Transport> ship_transport_;
  std::unique_ptr<net::Listener> ship_listener_;
  std::unique_ptr<net::Connection> ship_tx_;
  net::Connection* ship_rx_ = nullptr;  // owned by the listener
};

}  // namespace hal::elastic
