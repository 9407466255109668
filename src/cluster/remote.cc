#include "cluster/remote.h"

#include <memory>
#include <utility>

#include "cluster/cluster_engine.h"
#include "common/assert.h"
#include "common/backoff.h"

namespace hal::cluster {

RemoteWorkerReport serve_worker(const RemoteWorkerOptions& opts) {
  std::unique_ptr<net::Transport> owned;
  net::Transport* transport = opts.shared_transport;
  if (transport == nullptr) {
    owned = net::make_transport(opts.transport);
    transport = owned.get();
  }
  net::EndpointOptions ep;
  ep.window_frames = opts.window_frames;
  auto listener = transport->listen(opts.listen_address, ep);
  if (opts.on_listening) opts.on_listening(listener->address());

  net::Connection* conn = listener->accept(opts.accept_timeout_s);
  HAL_CHECK(conn != nullptr, "remote worker: coordinator never connected");

  // This process's ends of the coordinator's two links to this worker,
  // both over the one accepted connection.
  Link<TupleBatch> inbox{LinkParams{}};
  Link<ResultBatch> outbox{LinkParams{}};
  inbox.attach_net(nullptr, conn);
  outbox.attach_net(conn, nullptr);

  auto engine = core::make_engine(opts.engine);
  WorkerStep step(opts.batch_size);
  RemoteWorkerReport rep;
  SpinBackoff backoff;
  while (true) {
    TupleBatch batch;
    if (!inbox.try_recv(batch)) {
      if (inbox.peer_closed()) break;
      backoff.pause();  // idle between epochs
      continue;
    }
    backoff.reset();
    ++rep.batches_in;
    rep.tuples_in += batch.tuples.size();
    rep.results_out += step.process(*engine, batch).results;
    const bool sent = step.ship(batch, [&outbox](ResultBatch results) {
      const auto n = static_cast<std::uint64_t>(results.results.size());
      return outbox.send(std::move(results), 0.0, n);
    });
    HAL_CHECK(sent, "remote worker: the coordinator went away");
    if (batch.end_of_epoch) ++rep.epochs;
  }
  rep.net = conn->stats();
  conn->close();
  return rep;
}

}  // namespace hal::cluster
