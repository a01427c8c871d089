#include "service/cache.hpp"

#include <algorithm>
#include <chrono>

namespace medcc::service {

namespace {

std::int64_t steady_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ResultCache::ResultCache(const Config& config)
    : ttl_s_(config.ttl_s),
      clock_(config.clock ? config.clock : steady_seconds),
      on_expired_(config.on_expired) {
  MEDCC_EXPECTS(config.capacity > 0);
  MEDCC_EXPECTS(config.shards > 0);
  MEDCC_EXPECTS(config.ttl_s >= 0);
  const std::size_t shards = std::min(config.shards, config.capacity);
  shard_capacity_ = (config.capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::optional<CacheHit> ResultCache::find(const FingerprintDetail& fp) {
  Shard& shard = shard_for(fp.canonical);
  const std::int64_t at = now();
  bool dropped = false;
  std::optional<CacheHit> hit;
  {
    const util::MutexLock lock(shard.mutex);
    const auto it = shard.index.find(fp.canonical);
    if (it == shard.index.end()) return std::nullopt;
    CacheEntry& entry = *it->second;
    if (expired(entry, at)) {
      shard.lru.erase(it->second);
      shard.index.erase(it);
      ++shard.expired;
      dropped = true;
    } else {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++entry.hits;
      hit.emplace();
      hit->exact = entry.exact == fp.exact;
      hit->result.eval.med = entry.med;
      hit->result.eval.cost = entry.cost;
      hit->result.iterations = entry.iterations;
      hit->remappable = entry.remappable;
      if (hit->exact)
        hit->result.schedule = entry.schedule;
      else
        hit->assignment = entry.assignment;
    }
  }
  if (dropped) notify_expired(1);
  return hit;
}

CacheEntry ResultCache::make_entry(const FingerprintDetail& fp,
                                   const sched::Result& result) {
  CacheEntry entry;
  entry.key = fp.canonical;
  entry.exact = fp.exact;
  entry.solver = fp.solver;
  entry.schedule = result.schedule;
  entry.med = result.eval.med;
  entry.cost = result.eval.cost;
  entry.iterations = result.iterations;
  entry.remappable = fp.modules_distinct && fp.types_distinct;
  if (entry.remappable) {
    entry.assignment.reserve(fp.module_hash.size());
    for (std::size_t i = 0; i < fp.module_hash.size(); ++i) {
      MEDCC_EXPECTS(i < result.schedule.type_of.size());
      const std::size_t type = result.schedule.type_of[i];
      MEDCC_EXPECTS(type < fp.type_hash.size());
      entry.assignment.emplace_back(fp.module_hash[i], fp.type_hash[type]);
    }
    std::sort(entry.assignment.begin(), entry.assignment.end());
  }
  return entry;
}

void ResultCache::insert(const FingerprintDetail& fp,
                         const sched::Result& result) {
  upsert(make_entry(fp, result), /*count_insertion=*/true);
}

void ResultCache::insert(CacheEntry entry) {
  upsert(std::move(entry), /*count_insertion=*/true);
}

void ResultCache::restore(CacheEntry entry) {
  upsert(std::move(entry), /*count_insertion=*/false);
}

void ResultCache::upsert(CacheEntry entry, bool count_insertion) {
  Shard& shard = shard_for(entry.key);
  entry.inserted_at = now();
  const util::MutexLock lock(shard.mutex);
  const auto it = shard.index.find(entry.key);
  if (it != shard.index.end()) {
    *it->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  const Fingerprint key = entry.key;
  shard.lru.push_front(std::move(entry));
  shard.index[key] = shard.lru.begin();
  if (count_insertion) ++shard.insertions;
  while (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

std::size_t ResultCache::sweep_expired() {
  if (ttl_s_ <= 0) return 0;
  const std::int64_t at = now();
  std::size_t total = 0;
  for (auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (expired(*it, at)) {
        shard->index.erase(it->key);
        it = shard->lru.erase(it);
        ++shard->expired;
        ++total;
      } else {
        ++it;
      }
    }
  }
  notify_expired(total);
  return total;
}

std::vector<CacheEntry> ResultCache::export_entries() const {
  std::vector<CacheEntry> entries;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    // Oldest first, so replaying in order reproduces the LRU order.
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it)
      entries.push_back(*it);
  }
  return entries;
}

ResultCache::Stats ResultCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.expired += shard->expired;
    total.size += shard->lru.size();
  }
  return total;
}

void ResultCache::clear() {
  for (auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

std::optional<sched::Schedule> remap_schedule(const CacheHit& hit,
                                              const FingerprintDetail& fp) {
  if (!hit.remappable || !fp.modules_distinct || !fp.types_distinct)
    return std::nullopt;
  if (hit.assignment.size() != fp.module_hash.size()) return std::nullopt;

  // type hash -> requesting catalog index
  std::vector<std::pair<std::uint64_t, std::size_t>> types;
  types.reserve(fp.type_hash.size());
  for (std::size_t j = 0; j < fp.type_hash.size(); ++j)
    types.emplace_back(fp.type_hash[j], j);
  std::sort(types.begin(), types.end());

  sched::Schedule schedule;
  schedule.type_of.resize(fp.module_hash.size(), 0);
  for (std::size_t i = 0; i < fp.module_hash.size(); ++i) {
    const auto label = fp.module_hash[i];
    const auto it = std::lower_bound(
        hit.assignment.begin(), hit.assignment.end(), label,
        [](const auto& pair, std::uint64_t l) { return pair.first < l; });
    if (it == hit.assignment.end() || it->first != label)
      return std::nullopt;
    const auto type_it = std::lower_bound(
        types.begin(), types.end(), it->second,
        [](const auto& pair, std::uint64_t t) { return pair.first < t; });
    if (type_it == types.end() || type_it->first != it->second)
      return std::nullopt;
    schedule.type_of[i] = type_it->second;
  }
  return schedule;
}

}  // namespace medcc::service
