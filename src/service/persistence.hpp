// Codec between ResultCache entries and the opaque record payloads the
// persistence subsystem (src/persist) snapshots and journals and the
// cluster replicates.
//
// The payload carries the entry's decision -- key, exact hash, solver
// id, iterations, the schedule with the MED and cost the solver reported
// (doubles via their IEEE-754 bit pattern), the re-mapping assignment and
// hit metadata -- but not the CPM timing: the service re-derives that
// from (instance, schedule) on every hit, so a warmed exact hit is still
// byte-identical to the live solve that produced it.
//
// Version 2 is written. Version 1, which also carried the CPM timing
// block, is still read; the block is bounds-checked and dropped. Decoding
// validates element counts against the remaining bytes before any
// allocation, caps strings, and throws persist::PersistError on every
// malformed shape and on any other version, so warm start skips such a
// record (counted as a load error) instead of misreading it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/cache.hpp"

namespace medcc::service {

/// Version of the cache-record payload this build writes. It reads this
/// version and version 1.
inline constexpr std::uint16_t kCacheRecordVersion = 2;

/// Decode guards (far above anything the service accepts today).
inline constexpr std::size_t kMaxPersistedModules = 1u << 20;
inline constexpr std::size_t kMaxPersistedString = 1u << 16;

/// Serializes one cache entry into a self-contained record payload.
[[nodiscard]] std::string encode_cache_record(const CacheEntry& entry);

/// Parses a record payload. Throws persist::PersistError on any
/// malformed or future-versioned payload.
[[nodiscard]] CacheEntry decode_cache_record(std::string_view payload);

/// The version a record payload declares (its first two bytes), without
/// decoding the rest. Throws persist::PersistError on a shorter payload.
[[nodiscard]] std::uint16_t cache_record_version(std::string_view payload);

}  // namespace medcc::service
