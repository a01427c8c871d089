#include "cluster/replicator.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/client.hpp"
#include "util/backoff.hpp"

namespace medcc::cluster {

Replicator::Replicator(ClusterConfig config) : config_(std::move(config)) {
  validate(config_);
  peers_.reserve(config_.peers.size());
  for (const net::Endpoint& endpoint : config_.peers) {
    auto peer = std::make_unique<Peer>();
    peer->endpoint = endpoint;
    peers_.push_back(std::move(peer));
  }
}

Replicator::~Replicator() { stop(); }

void Replicator::start() {
  if (started_.exchange(true)) return;
  for (auto& peer : peers_)
    peer->thread = std::thread([this, raw = peer.get()] { sender_loop(*raw); });
}

void Replicator::stop() {
  if (!started_.load(std::memory_order_relaxed)) return;
  if (stop_.exchange(true)) return;
  for (auto& peer : peers_) {
    {
      const util::MutexLock lock(peer->mutex);
    }
    peer->cv.notify_all();
  }
  for (auto& peer : peers_)
    if (peer->thread.joinable()) peer->thread.join();
}

void Replicator::publish(const std::string& payload,
                         obs::TraceContext trace) {
  if (stop_.load(std::memory_order_relaxed)) return;
  for (auto& peer : peers_) {
    {
      const util::MutexLock lock(peer->mutex);
      if (peer->queue.size() >= config_.queue_capacity) {
        peer->queue.pop_front();  // oldest loses to freshest
        ++peer->dropped;
      }
      peer->queue.push_back(net::ReplRecord{payload, trace});
    }
    peer->cv.notify_one();
  }
}

net::ClusterStatus Replicator::status() const {
  net::ClusterStatus status;
  status.node_id = config_.node_id;
  status.protocol_version = net::kMaxVersion;
  status.peers.reserve(peers_.size());
  for (const auto& peer : peers_) {
    net::ClusterPeerStatus p;
    p.address = net::to_string(peer->endpoint);
    const util::MutexLock lock(peer->mutex);
    p.state = peer->state;
    p.peer_version = peer->version;
    p.queued = peer->queue.size() + peer->in_flight;
    p.sent = peer->sent;
    p.acked = peer->acked;
    p.dropped = peer->dropped;
    p.send_errors = peer->send_errors;
    status.peers.push_back(std::move(p));
  }
  return status;
}

void Replicator::interruptible_sleep(Peer& peer, double ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(std::max(0.0, ms)));
  util::MutexLock lock(peer.mutex);
  while (!stop_.load(std::memory_order_relaxed) &&
         std::chrono::steady_clock::now() < deadline)
    peer.cv.wait_until(lock.native(), deadline);
}

void Replicator::sender_loop(Peer& peer) {
  net::ClientConfig client_config;
  client_config.host = peer.endpoint.host;
  client_config.port = peer.endpoint.port;
  client_config.connect_attempts = 1;  // our backoff paces the retries
  client_config.connect_timeout_ms = config_.connect_timeout_ms;
  client_config.request_timeout_ms = config_.request_timeout_ms;
  net::Client client(std::move(client_config));

  util::Backoff backoff(config_.backoff_initial_ms, config_.backoff_cap_ms);
  bool replicating = false;
  bool peer_tracing = false;

  while (!stop_.load(std::memory_order_relaxed)) {
    if (!replicating) {
      // (Re-)handshake. A v1 peer answers the hello with a protocol
      // error -- surfaced as granted version 1 -- and is left alone
      // for v1_retry_ms; a transport fault backs off exponentially.
      net::Hello offer;
      offer.version = net::kMaxVersion;
      offer.features = net::kFeatureReplication | net::kFeatureTracing;
      offer.node_id = config_.node_id;
      try {
        const net::Hello granted = client.hello(offer);
        if (granted.version >= net::kVersion2 &&
            (granted.features & net::kFeatureReplication) != 0) {
          replicating = true;
          // Trace suffixes only go to peers that negotiated them: a
          // pre-tracing v2 peer would reject the trailing bytes.
          peer_tracing = (granted.features & net::kFeatureTracing) != 0;
          backoff.reset();
          const util::MutexLock lock(peer.mutex);
          peer.state = "connected";
          peer.version = granted.version;
        } else {
          {
            const util::MutexLock lock(peer.mutex);
            peer.state = "v1-peer";
            peer.version = granted.version;
          }
          interruptible_sleep(peer, config_.v1_retry_ms);
          continue;
        }
      } catch (const std::exception&) {
        // Transport fault or a malformed reply -- either way the
        // stream is useless until re-established.
        {
          const util::MutexLock lock(peer.mutex);
          peer.state = "down";
        }
        interruptible_sleep(peer, backoff.next_ms());
        continue;
      }
    }

    // Drain a burst (blocking until records arrive or stop()).
    std::vector<net::ReplRecord> batch;
    {
      util::MutexLock lock(peer.mutex);
      while (!stop_.load(std::memory_order_relaxed) && peer.queue.empty())
        peer.cv.wait(lock.native());
      while (!peer.queue.empty() && batch.size() < config_.batch_max) {
        batch.push_back(std::move(peer.queue.front()));
        peer.queue.pop_front();
      }
      peer.in_flight = batch.size();
    }
    if (batch.empty()) continue;  // woken by stop()
    if (!peer_tracing)
      for (net::ReplRecord& record : batch) record.trace = {};

    try {
      const std::vector<net::ReplAck> acks = client.repl_insert_batch(batch);
      backoff.reset();
      const util::MutexLock lock(peer.mutex);
      peer.in_flight = 0;
      peer.sent += batch.size();
      for (const net::ReplAck& ack : acks)
        if (ack.applied) ++peer.acked;
    } catch (const std::exception&) {
      // Peer lost mid-burst: requeue the whole batch at the front (the
      // receiver applies records idempotently, so re-sending a record
      // the peer acked before the fault is harmless) and go back to
      // the handshake.
      replicating = false;
      {
        const util::MutexLock lock(peer.mutex);
        ++peer.send_errors;
        peer.in_flight = 0;
        peer.state = "connecting";
        for (auto it = batch.rbegin(); it != batch.rend(); ++it)
          peer.queue.push_front(std::move(*it));
        while (peer.queue.size() > config_.queue_capacity) {
          peer.queue.pop_front();  // oldest loses, as in publish()
          ++peer.dropped;
        }
      }
      interruptible_sleep(peer, backoff.next_ms());
    }
  }

  const util::MutexLock lock(peer.mutex);
  peer.state = "down";
}

}  // namespace medcc::cluster
