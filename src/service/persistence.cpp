#include "service/persistence.hpp"

#include <cstdint>
#include <vector>

#include "persist/wire.hpp"

namespace medcc::service {

namespace {

void put_index_vector(persist::Writer& w, const std::vector<std::size_t>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const std::size_t x : v) w.u64(x);
}

std::vector<std::size_t> get_index_vector(persist::Reader& r,
                                          std::size_t max_count) {
  const std::uint32_t count = r.u32();
  if (count > max_count)
    throw persist::PersistError("cache record: index vector too long");
  r.expect_fits(count, sizeof(std::uint64_t));
  std::vector<std::size_t> v;
  v.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    v.push_back(static_cast<std::size_t>(r.u64()));
  return v;
}

/// Steps over version 1's CPM timing block: est, eft, lst, lft and
/// buffer (f64 each), the critical flags (u8 each) and the critical path
/// (u64 each), every one a u32 count plus its elements, then the
/// makespan (f64).
void skip_v1_cpm(persist::Reader& r) {
  for (const std::uint64_t width : {8, 8, 8, 8, 8, 1, 8})
    r.skip(width * r.u32());
  r.skip(sizeof(double));
}

}  // namespace

std::string encode_cache_record(const CacheEntry& entry) {
  persist::Writer w;
  w.u16(kCacheRecordVersion);
  w.u64(entry.key.hi);
  w.u64(entry.key.lo);
  w.u64(entry.exact);
  w.str(entry.solver);
  w.u8(entry.remappable ? 1 : 0);
  w.u64(entry.hits);
  w.u64(entry.iterations);
  w.f64(entry.med);
  w.f64(entry.cost);
  put_index_vector(w, entry.schedule.type_of);
  w.u32(static_cast<std::uint32_t>(entry.assignment.size()));
  for (const auto& [label, type] : entry.assignment) {
    w.u64(label);
    w.u64(type);
  }
  return w.take();
}

std::uint16_t cache_record_version(std::string_view payload) {
  return persist::Reader(payload).u16();
}

CacheEntry decode_cache_record(std::string_view payload) {
  persist::Reader r(payload);
  const std::uint16_t version = r.u16();
  if (version != 1 && version != kCacheRecordVersion)
    throw persist::PersistError("cache record: unsupported payload version " +
                                std::to_string(version));

  CacheEntry entry;
  entry.key.hi = r.u64();
  entry.key.lo = r.u64();
  entry.exact = r.u64();
  entry.solver = r.str(kMaxPersistedString);
  entry.remappable = r.u8() != 0;
  entry.hits = r.u64();
  entry.iterations = static_cast<std::size_t>(r.u64());
  entry.med = r.f64();
  entry.cost = r.f64();
  entry.schedule.type_of = get_index_vector(r, kMaxPersistedModules);
  if (version == 1) skip_v1_cpm(r);

  const std::uint32_t assignment_count = r.u32();
  if (assignment_count > kMaxPersistedModules)
    throw persist::PersistError("cache record: assignment too long");
  r.expect_fits(assignment_count, 2 * sizeof(std::uint64_t));
  entry.assignment.reserve(assignment_count);
  for (std::uint32_t i = 0; i < assignment_count; ++i) {
    const std::uint64_t label = r.u64();
    const std::uint64_t type = r.u64();
    entry.assignment.emplace_back(label, type);
  }
  r.expect_done();
  return entry;
}

}  // namespace medcc::service
