// Sharded LRU result cache keyed by canonical instance fingerprints.
//
// Entries are stored under the 128-bit order-independent key, so both
// verbatim duplicates and permuted duplicates of an earlier request hit.
// The two kinds are served differently:
//
//  * exact hit (the stored order-dependent hash also matches): the stored
//    schedule is served as is -- the service re-derives its evaluation
//    and requires the stored MED and cost back bit for bit, so the
//    response is byte-identical to the fresh solve that produced it.
//  * isomorphic hit (canonical key matches, layout differs): the stored
//    assignment is carried across as {module label -> assigned type hash}
//    pairs and re-indexed through the requesting instance's own labels.
//    This is only attempted when every module label and every type hash
//    is pairwise distinct on BOTH sides: distinct stabilized
//    Weisfeiler-Lehman labels force a unique label-matching bijection
//    that preserves the neighbourhood structure the labels encode, so
//    the re-mapped schedule assigns each module the same type as in the
//    solved twin. The service additionally re-evaluates the re-mapped
//    schedule against the requesting instance and falls back to a fresh
//    solve if it does not fit the budget, so a label collision can cost
//    performance but never correctness.
//
// Sharding: entries are distributed over `shards` independently locked
// LRU lists by fingerprint, so concurrent workers rarely contend.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/schedule.hpp"
#include "service/fingerprint.hpp"
#include "util/mutex.hpp"

namespace medcc::service {

/// A successful cache lookup: a copy of what the hit kind uses.
struct CacheHit {
  /// The stored decision: MED, cost and iterations, plus -- for exact
  /// hits only -- the schedule in the cached instance's index space.
  /// `eval.cpm` is always empty (the cache does not store it).
  sched::Result result;
  /// The stored layout matches the request index-for-index.
  bool exact = false;
  /// {module label, assigned type hash} sorted by label, for re-mapping;
  /// copied for isomorphic hits only.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> assignment;
  /// The cached side had pairwise-distinct module and type hashes.
  bool remappable = false;
};

/// One cache entry in exportable form: everything the persistence layer
/// snapshots/journals and everything restore() needs to rebuild the
/// entry so that warmed hits are byte-identical to live ones. It holds
/// the decision, not its CPM timing: MED, cost and timing are a pure
/// function of (instance, schedule), re-derived on every hit.
struct CacheEntry {
  Fingerprint key;
  /// Order-dependent layout hash; equality with a request's exact hash
  /// makes the hit verbatim.
  std::uint64_t exact = 0;
  /// Solver id that produced the result (metadata for inspection tools;
  /// the canonical key already encodes it).
  std::string solver;
  /// Module -> VM type mapping, in the solved instance's index space.
  sched::Schedule schedule;
  /// MED and cost the solver reported for `schedule` (Eqs. 8-9); an
  /// exact hit is served only if re-evaluation reproduces both bits.
  double med = 0.0;
  double cost = 0.0;
  std::size_t iterations = 0;
  /// {module label, assigned type hash} sorted by label.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> assignment;
  bool remappable = false;
  /// Times this entry answered a lookup (hit metadata; persisted).
  std::uint64_t hits = 0;
  /// Insertion timestamp in cache-clock seconds, stamped by the cache
  /// itself on upsert. Runtime-only: NOT part of the persisted record,
  /// so restored and replicated entries start a fresh TTL on the
  /// receiving node.
  std::int64_t inserted_at = 0;
};

class ResultCache {
public:
  struct Config {
    /// Total entries across all shards (>= 1 effective per shard).
    std::size_t capacity = 4096;
    std::size_t shards = 8;
    /// Seconds an entry may answer lookups after its last upsert;
    /// 0 disables expiry. Expired entries are evicted lazily on find()
    /// and in bulk by sweep_expired().
    std::int64_t ttl_s = 0;
    /// Monotonic-ish seconds source; injectable so tests can age
    /// entries without sleeping. Defaults to the steady clock.
    std::function<std::int64_t()> clock{};
    /// Invoked (outside the shard lock) with the number of entries an
    /// operation expired; the service binds this to the cache_expired
    /// metric.
    std::function<void(std::size_t)> on_expired{};
  };

  struct Stats {
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t expired = 0;
    std::size_t size = 0;
  };

  explicit ResultCache(const Config& config);

  /// Looks `fp` up and refreshes its LRU position.
  [[nodiscard]] std::optional<CacheHit> find(const FingerprintDetail& fp);

  /// Builds the entry insert() would store for (`fp`, `result`) --
  /// exposed so the service can journal exactly what it caches.
  [[nodiscard]] static CacheEntry make_entry(const FingerprintDetail& fp,
                                             const sched::Result& result);

  /// Stores (or refreshes) the result solved for `fp`, evicting the
  /// least-recently-used entry of the shard when it is full.
  void insert(const FingerprintDetail& fp, const sched::Result& result);
  /// insert() for a pre-built entry (counts as an insertion).
  void insert(CacheEntry entry);

  /// Re-inserts a persisted entry during warm start: upserts like
  /// insert() but does not count towards Stats::insertions (restores
  /// are reported separately by the persist_* metrics).
  void restore(CacheEntry entry);

  /// Erases every entry whose TTL has lapsed and returns how many were
  /// dropped (0 when expiry is disabled). Called periodically by the
  /// service's snapshot source, i.e. on the persist flusher thread.
  std::size_t sweep_expired();

  /// Copies every entry out, least-recently-used first, so re-applying
  /// them in order (snapshot load, compaction) reproduces the LRU
  /// order. Order across shards is interleaved and insignificant.
  [[nodiscard]] std::vector<CacheEntry> export_entries() const;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const {
    return shard_capacity_ * shards_.size();
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  void clear();

private:
  struct Shard {
    util::Mutex mutex;
    std::list<CacheEntry> lru MEDCC_GUARDED_BY(mutex);  // front == most recent
    std::unordered_map<Fingerprint, std::list<CacheEntry>::iterator,
                       FingerprintHash>
        index MEDCC_GUARDED_BY(mutex);
    std::uint64_t insertions MEDCC_GUARDED_BY(mutex) = 0;
    std::uint64_t evictions MEDCC_GUARDED_BY(mutex) = 0;
    std::uint64_t expired MEDCC_GUARDED_BY(mutex) = 0;
  };

  void upsert(CacheEntry entry, bool count_insertion);
  [[nodiscard]] std::int64_t now() const { return clock_(); }
  [[nodiscard]] bool expired(const CacheEntry& entry,
                             std::int64_t at) const {
    return ttl_s_ > 0 && at - entry.inserted_at >= ttl_s_;
  }
  void notify_expired(std::size_t count) const {
    if (count > 0 && on_expired_) on_expired_(count);
  }

  [[nodiscard]] Shard& shard_for(const Fingerprint& fp) {
    return *shards_[fp.hi % shards_.size()];
  }

  std::size_t shard_capacity_;
  std::int64_t ttl_s_;
  std::function<std::int64_t()> clock_;
  std::function<void(std::size_t)> on_expired_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Re-indexes a cached twin's schedule into the requesting instance's
/// module/type numbering, or nullopt when either side still has symmetric
/// (equal-label) modules or types, or a label fails to match.
[[nodiscard]] std::optional<sched::Schedule> remap_schedule(
    const CacheHit& hit, const FingerprintDetail& fp);

}  // namespace medcc::service
