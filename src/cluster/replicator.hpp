// Cross-replica cache replication: pushes locally solved cache records
// to every configured peer.
//
// One sender thread per peer owns a private net::Client and drives a
// small state machine:
//
//   connecting --hello ok, v2+replication--> connected
//   connecting --hello ok, v1 granted-----> v1-peer (recheck later)
//   connecting --transport fault----------> down (backoff, retry)
//   connected  --transport fault----------> connecting (records requeued)
//
// The handshake is the codec's hello exchange; a pre-v2 peer rejects
// the frame and that rejection is the negotiation result (state
// "v1-peer"), re-probed every v1_retry_ms in case the peer was
// upgraded. Once connected, records are drained from a bounded
// per-peer queue and pipelined in repl_insert bursts; on peer loss the
// un-acked burst is requeued at the front, so a bounce loses nothing
// that still fits the queue.
//
// publish() is called from the service's on_cache_insert hook (worker
// threads): it only copies the record into each peer queue and rings
// the peer's cv -- no IO on the solve path. When a queue is full the
// OLDEST record is dropped (counted per peer): fresh entries are the
// ones duplicate traffic is about to ask for. Replication is
// best-effort by design -- a dropped record costs a peer one cache
// miss, never correctness.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/config.hpp"
#include "net/codec.hpp"
#include "util/mutex.hpp"

namespace medcc::cluster {

class Replicator {
public:
  /// Validates `config` (throws ClusterError) but starts nothing.
  explicit Replicator(ClusterConfig config);
  /// stop()s implicitly.
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Starts one sender thread per peer. Idempotent.
  void start();
  /// Signals every sender, joins them, leaves queued records unsent.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Enqueues one encoded cache record for every peer (bounded queues,
  /// oldest dropped on overflow). Thread-safe and cheap -- called from
  /// solve workers via ServiceConfig::on_cache_insert. `trace` is the
  /// context of the solve that produced the record (invalid = untraced);
  /// it rides the repl_insert frame to peers that negotiated
  /// kFeatureTracing, so the apply on the far side stays on the origin
  /// request's trace id.
  void publish(const std::string& payload, obs::TraceContext trace = {});

  /// Per-peer replication view (addresses, states, counters). The
  /// node-level fields (repl_applied and friends) are left zero: they
  /// live in the service's MetricsRegistry and the caller merges them.
  [[nodiscard]] net::ClusterStatus status() const;

  [[nodiscard]] std::size_t peer_count() const { return peers_.size(); }

private:
  struct Peer {
    /// Immutable after construction.
    MEDCC_NOT_GUARDED net::Endpoint endpoint;
    mutable util::Mutex mutex;
    /// Internally synchronized; always signalled with `mutex` held.
    MEDCC_NOT_GUARDED std::condition_variable cv;
    std::deque<net::ReplRecord> queue MEDCC_GUARDED_BY(mutex);
    /// Records taken off `queue` for the burst on the wire; status()
    /// counts them as queued until they are acked or requeued.
    std::size_t in_flight MEDCC_GUARDED_BY(mutex) = 0;
    std::string state MEDCC_GUARDED_BY(mutex) = "connecting";
    std::uint16_t version MEDCC_GUARDED_BY(mutex) = 0;
    std::uint64_t sent MEDCC_GUARDED_BY(mutex) = 0;
    std::uint64_t acked MEDCC_GUARDED_BY(mutex) = 0;
    std::uint64_t dropped MEDCC_GUARDED_BY(mutex) = 0;
    std::uint64_t send_errors MEDCC_GUARDED_BY(mutex) = 0;
    /// Touched only by start()/stop(), which are externally serialized.
    MEDCC_NOT_GUARDED std::thread thread;
  };

  void sender_loop(Peer& peer);
  /// Sleeps up to `ms` on the peer's cv; cut short by stop().
  void interruptible_sleep(Peer& peer, double ms);

  const ClusterConfig config_;  // immutable after construction
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  /// Sized in the constructor, structurally immutable afterwards (each
  /// peer locks itself).
  MEDCC_NOT_GUARDED std::vector<std::unique_ptr<Peer>> peers_;
};

}  // namespace medcc::cluster
