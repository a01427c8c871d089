// Request pools: every byte the load generator sends, made from the
// workload seed.
//
// A pool holds encoded solve_request frames ("templates", request id 0)
// and the requests over them: `warm`, sent during set-up to fill the
// caches, and the timed requests the measured phases send, one per
// position. A request names a template and, for fresh_solves, its own
// budget: the budget is the first field of a solve_request body, so a
// distinct problem is the template with 8 bytes replaced. The generator
// copies the frame into its send buffer anyway, so patching the id and
// budget there costs nothing extra.
//
// Templates and the hit workloads' timed lists are built before any
// timing starts. A fresh_solves timed request is a pure function of the
// seed and its position (timed_at), so no rate or speed-up can use the
// pool up.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "sched/instance.hpp"

namespace perfbench {

enum class Workload : std::uint8_t {
  exact_hits,
  shared_problems,
  fresh_solves,
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload workload);

/// How the service must answer a template once the warm-up has run.
enum class Expect : std::uint8_t {
  solve,      ///< distinct problem: a fresh solve (cache miss)
  hit_exact,  ///< same problem, same layout as a warmed one
  hit_iso,    ///< permuted twin of a warmed problem
};

struct Template {
  std::string frame;  ///< encoded solve_request frame, request id 0
  std::shared_ptr<const medcc::sched::Instance> instance;  ///< as sent
  double budget = 0.0;
  std::string solver;
  Expect expect = Expect::solve;
  /// Warm template whose response is this template's reference result
  /// (itself for warm templates).
  std::uint32_t ref = 0;
};

struct Request {
  std::uint32_t tmpl = 0;
  /// Overrides the template's budget when set (fresh_solves).
  std::optional<double> budget;
};

/// A fresh_solves (shape, solver) template and its shape's cost bounds.
struct FreshShape {
  std::uint32_t tmpl = 0;
  double cmin = 0.0;
  double cmax = 0.0;
};

struct Pool {
  Workload workload = Workload::exact_hits;
  std::uint64_t seed = 0;
  std::vector<Template> templates;
  std::vector<Request> warm;
  /// Hit workloads: the timed requests, repeated from the start once
  /// used up.
  std::vector<Request> timed;
  /// fresh_solves: the templates its timed requests draw from.
  std::vector<FreshShape> fresh;

  /// The timed request at `position` (0, 1, 2, ... in sending order).
  /// fresh_solves draws its template and a budget strictly inside the
  /// shape's [C_min, C_max] from a hash of the seed and the position:
  /// every position is a distinct problem, however many are sent.
  [[nodiscard]] Request timed_at(std::size_t position) const;
  [[nodiscard]] double budget(const Request& request) const;
  /// Appends the request's solve_request frame with `id` patched in.
  void append_frame(const Request& request, std::uint64_t id,
                    std::string& out) const;
  /// Appends the same request as a traced_solve_request frame.
  void append_traced_frame(const Request& request, std::uint64_t id,
                           const medcc::obs::TraceContext& context,
                           std::string& out) const;
  /// FNV-1a over every warm frame and the timed frames of one cycle (of
  /// the first 4096 positions for fresh_solves), in order.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Builds the pool of `workload` from `seed`.
[[nodiscard]] Pool build_pool(Workload workload, std::uint64_t seed);

}  // namespace perfbench
