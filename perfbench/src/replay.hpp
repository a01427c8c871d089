// The traced replay: a workload's request stream pushed, one request at
// a time on one thread, through the same public functions the server
// and service call for it -- frame header parse, WireCache find, decode
// (with its Instance and FlatDag builds), fingerprint, ResultCache
// find, isomorphic re-map, the registry solver, cache insert, journal
// append, response encode and WireCache insert -- on a stack the
// benchmark owns (its own caches and DurableStore, configured like the
// server's). A span is recorded around every call; see spans.hpp.
//
// What the replay cannot see -- syscalls, the reactor loop, the queue
// hop to a worker, metrics, wake-ups -- is what the server's CPU per
// request has beyond the replayed self times.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>

#include "pool.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayResult {
  std::size_t requests = 0;
  /// Self time of every layer span (not the request roots), summed and
  /// divided by the requests replayed; microseconds.
  double self_us_per_request = 0.0;
  /// Per layer: mean self time per request that used the layer, ns (0
  /// when no request did).
  std::array<double, kLayerCount> layer_ns{};
  /// dag::makespan_into on each solved instance and schedule, ns/call.
  double cpm_eval_ns = 0.0;
  /// Solver iterations per fresh solve.
  double iterations_per_solve = 0.0;
};

/// Warms a fresh replay stack with the pool's warm list, then replays
/// timed requests from the start of the pool (cycling when the pool
/// does) until `max_requests` or `max_seconds` is reached. Spans go to
/// `log`; the stack's journal lives in `store_dir`.
[[nodiscard]] ReplayResult replay(const Pool& pool,
                                  const std::filesystem::path& store_dir,
                                  std::size_t max_requests, double max_seconds,
                                  SpanLog& log);

/// Aggregates `log` over `requests` replayed requests.
[[nodiscard]] ReplayResult summarize(const SpanLog& log, std::size_t requests);

}  // namespace perfbench
