#include "pool.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cloud/vm_type.hpp"
#include "net/codec.hpp"
#include "sched/bounds.hpp"
#include "service/fingerprint.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/random_workflow.hpp"

namespace perfbench {

namespace {

using medcc::cloud::VmCatalog;
using medcc::sched::Instance;
using medcc::service::SchedulingRequest;
using medcc::util::Prng;
using medcc::workflow::Workflow;

/// Warmed problems shared by exact_hits and shared_problems: a few
/// hundred, well under the wire cache's 1024 entries.
constexpr std::size_t kProblems = 256;
/// exact_hits: Zipf-popular resubmissions, drawn once per pool.
constexpr std::size_t kZipfLength = 1u << 16;
constexpr double kZipfExponent = 0.9;
/// shared_problems: byte-distinct variants per warmed problem. 16 x 256
/// = 4096 variants cycled in a fixed order, four times the wire cache,
/// so LRU evicts every variant before it comes round again.
constexpr std::size_t kVariants = 16;
constexpr std::size_t kTwins = 2;
/// fresh_solves: workflow shapes; requests differ in budget and solver.
constexpr std::size_t kShapes = 256;
constexpr std::size_t kFreshWarm = 256;
constexpr std::size_t kFreshDigestRequests = 4096;

constexpr std::size_t kBudgetOffset = medcc::net::kHeaderSize;
constexpr std::size_t kIdOffset = 8;

void put_u64(std::string& out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out[at + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
}

/// Workflow sizes: small for the warmed problems, larger for the
/// fresh solves so that solving dominates their cost.
struct Size {
  std::int64_t modules_lo, modules_hi, tiles_lo, tiles_hi, sites_lo, sites_hi;
};
constexpr Size kHitSize{14, 26, 3, 5, 3, 6};
constexpr Size kFreshSize{40, 70, 8, 12, 10, 16};

/// Spreads index `k` evenly over [lo, hi].
std::size_t stratum(std::size_t k, std::int64_t lo, std::int64_t hi) {
  return static_cast<std::size_t>(lo) +
         k % static_cast<std::size_t>(hi - lo + 1);
}

/// A paper-style random workflow (Section VI generator) or a Montage /
/// CyberShake shape, on a random EC2-style linear catalog. The shape
/// kind and size follow from `k` alone and only the draws inside a
/// shape come from the seed, so every seed's pool costs about the same
/// to serve and runs with different seeds stay comparable.
Instance make_instance(std::size_t k, const Size& size, Prng& rng) {
  Workflow wf;
  const std::size_t step = k / 4;
  switch (k % 4) {
    case 0:
    case 1: {
      medcc::workflow::RandomWorkflowSpec spec;
      spec.modules = stratum(step, size.modules_lo, size.modules_hi);
      spec.edges = spec.modules * 3 / 2 + step % 7;
      wf = medcc::workflow::random_workflow(spec, rng);
      break;
    }
    case 2:
      wf = medcc::workflow::montage_like(
          stratum(step, size.tiles_lo, size.tiles_hi), rng);
      break;
    default:
      wf = medcc::workflow::cybershake_like(
          stratum(step, size.sites_lo, size.sites_hi), rng);
      break;
  }
  VmCatalog catalog =
      medcc::cloud::random_linear_catalog(4, 12, rng, 1.0, 1.0, 0.2);
  return Instance::from_model(std::move(wf), std::move(catalog));
}

/// A budget strictly inside [C_min, C_max].
double draw_budget(const Instance& instance, Prng& rng) {
  const auto bounds = medcc::sched::cost_bounds(instance);
  return bounds.cmin + rng.uniform_real(0.1, 0.9) * (bounds.cmax - bounds.cmin);
}

/// Critical-Greedy and the paper's GAIN3 baseline, alternating.
const char* solver_for(std::size_t k) {
  return (k / 2) % 2 == 0 ? "cg" : "gain3";
}

/// The same problem with modules, edges and VM types inserted in a
/// shuffled order.
Instance permuted_twin(const Instance& base, Prng& rng) {
  const Workflow& wf = base.workflow();
  std::vector<std::size_t> order(wf.module_count());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<std::size_t> new_id(wf.module_count());
  Workflow twin;
  for (const std::size_t old_id : order) {
    const auto& mod = wf.module(old_id);
    new_id[old_id] = mod.is_fixed()
                         ? twin.add_fixed_module(mod.name, *mod.fixed_time)
                         : twin.add_module(mod.name, mod.workload);
  }
  std::vector<std::size_t> edges(wf.graph().edge_count());
  for (std::size_t e = 0; e < edges.size(); ++e) edges[e] = e;
  rng.shuffle(edges);
  for (const std::size_t e : edges) {
    const auto& edge = wf.graph().edge(e);
    twin.add_dependency(new_id[edge.src], new_id[edge.dst], wf.data_size(e));
  }
  auto types = base.catalog().types();
  rng.shuffle(types);
  return Instance::from_model(std::move(twin), VmCatalog(std::move(types)),
                              base.billing(), base.network());
}

/// The service can re-map a twin's schedule only when module and type
/// labels are pairwise distinct on both sides (service/cache.hpp).
bool remappable(const Instance& instance, double budget,
                const std::string& solver) {
  const auto fp =
      medcc::service::fingerprint_instance(instance, budget, solver, "");
  return fp.modules_distinct && fp.types_distinct;
}

std::uint32_t add_template(Pool& pool,
                           std::shared_ptr<const Instance> instance,
                           double budget, const std::string& solver,
                           std::string tenant, double deadline_ms,
                           Expect expect, std::size_t ref) {
  SchedulingRequest request;
  request.instance = instance;
  request.budget = budget;
  request.solver = solver;
  request.tenant = std::move(tenant);
  request.deadline_ms = deadline_ms;
  Template t;
  t.frame = medcc::net::encode_solve_request(request, 0);
  t.instance = std::move(instance);
  t.budget = budget;
  t.solver = solver;
  t.expect = expect;
  const auto index = static_cast<std::uint32_t>(pool.templates.size());
  t.ref = ref == SIZE_MAX ? index : static_cast<std::uint32_t>(ref);
  pool.templates.push_back(std::move(t));
  return index;
}

/// The warmed problems, one template each, solved during warm-up.
void add_problems(Pool& pool, Prng& rng,
                  std::vector<std::shared_ptr<const Instance>>& instances) {
  for (std::size_t k = 0; k < kProblems; ++k) {
    auto instance =
        std::make_shared<const Instance>(make_instance(k, kHitSize, rng));
    const double budget = draw_budget(*instance, rng);
    const std::uint32_t t = add_template(pool, instance, budget,
                                         solver_for(k), "", 0.0,
                                         Expect::solve, SIZE_MAX);
    pool.warm.push_back({t, std::nullopt});
    instances.push_back(std::move(instance));
  }
}

void build_exact_hits(Pool& pool, Prng& rng) {
  std::vector<std::shared_ptr<const Instance>> instances;
  add_problems(pool, rng, instances);
  // Problem k has popularity rank k: the shape kind and size at every
  // rank are the same for all seeds (see make_instance).
  std::vector<double> cdf(kProblems);
  double total = 0.0;
  for (std::size_t r = 0; r < kProblems; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  pool.timed.reserve(kZipfLength);
  for (std::size_t i = 0; i < kZipfLength; ++i) {
    const double u = rng.uniform_real(0.0, total);
    const auto r = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    pool.timed.push_back(
        {static_cast<std::uint32_t>(std::min(r, kProblems - 1)), std::nullopt});
  }
}

void build_shared_problems(Pool& pool, Prng& rng) {
  std::vector<std::shared_ptr<const Instance>> instances;
  add_problems(pool, rng, instances);
  std::vector<std::uint32_t> variants;
  variants.reserve(kProblems * kVariants);
  for (std::size_t p = 0; p < kProblems; ++p) {
    const Template& base = pool.templates[p];
    const std::shared_ptr<const Instance> instance = instances[p];
    const double budget = base.budget;
    const std::string solver = base.solver;
    // Twins answered as isomorphic hits; each is warmed once under a
    // tenant no timed request uses, which pins its reference result.
    std::vector<std::pair<std::shared_ptr<const Instance>, std::uint32_t>>
        twins;
    if (remappable(*instance, budget, solver)) {
      for (std::size_t t = 0; t < kTwins; ++t) {
        auto twin =
            std::make_shared<const Instance>(permuted_twin(*instance, rng));
        if (!remappable(*twin, budget, solver)) continue;
        const std::uint32_t warm = add_template(pool, twin, budget, solver,
                                                "warm", 0.0, Expect::hit_iso,
                                                SIZE_MAX);
        pool.warm.push_back({warm, std::nullopt});
        twins.emplace_back(std::move(twin), warm);
      }
    }
    for (std::size_t v = 0; v < kVariants; ++v) {
      // Every variant's bytes are unique (its tenant or deadline names
      // it), so none is a verbatim duplicate of another.
      const std::size_t n = p * kVariants + v;
      if (v % 2 == 1 && !twins.empty()) {
        const auto& [twin, warm] = twins[(v / 2) % twins.size()];
        variants.push_back(add_template(pool, twin, budget, solver,
                                        "tenant-" + std::to_string(n), 0.0,
                                        Expect::hit_iso, warm));
      } else if (v % 4 == 0) {
        variants.push_back(add_template(pool, instance, budget, solver, "",
                                        60'000.0 + static_cast<double>(n),
                                        Expect::hit_exact, p));
      } else {
        variants.push_back(add_template(pool, instance, budget, solver,
                                        "tenant-" + std::to_string(n), 0.0,
                                        Expect::hit_exact, p));
      }
    }
  }
  rng.shuffle(variants);
  for (const std::uint32_t t : variants)
    pool.timed.push_back({t, std::nullopt});
}

void build_fresh_solves(Pool& pool, Prng& rng) {
  // One template per (shape, solver); every request has its own budget,
  // so no two requests are the same problem.
  for (std::size_t k = 0; k < kShapes; ++k) {
    auto instance =
        std::make_shared<const Instance>(make_instance(k, kFreshSize, rng));
    const double budget = draw_budget(*instance, rng);
    const auto bounds = medcc::sched::cost_bounds(*instance);
    for (const char* solver : {"cg", "gain3"})
      pool.fresh.push_back({add_template(pool, instance, budget, solver, "",
                                         0.0, Expect::solve, SIZE_MAX),
                            bounds.cmin, bounds.cmax});
  }
  // Warmed with budgets from the seeded stream, the timed requests with
  // budgets from the per-position hash (timed_at).
  for (std::size_t i = 0; i < kFreshWarm; ++i) {
    const auto& shape = pool.fresh[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(pool.fresh.size()) - 1))];
    pool.warm.push_back(
        {shape.tmpl,
         shape.cmin + rng.uniform_real(0.1, 0.9) * (shape.cmax - shape.cmin)});
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::exact_hits, Workload::shared_problems,
                           Workload::fresh_solves})
    if (name == to_string(w)) return w;
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::exact_hits: return "exact_hits";
    case Workload::shared_problems: return "shared_problems";
    case Workload::fresh_solves: return "fresh_solves";
  }
  return "?";
}

Request Pool::timed_at(std::size_t position) const {
  if (fresh.empty()) return timed[position % timed.size()];
  // Outputs 2 * position and 2 * position + 1 of a SplitMix64 stream
  // keyed by the seed: no two positions share a draw.
  std::uint64_t key = seed ^ 0xf7e5c0de5eedULL;
  std::uint64_t state = medcc::util::splitmix64(key) +
                        2 * position * 0x9e3779b97f4a7c15ULL;
  const std::uint64_t pick = medcc::util::splitmix64(state);
  const std::uint64_t draw = medcc::util::splitmix64(state);
  const FreshShape& shape = fresh[pick % fresh.size()];
  // 53 random bits: a double in [0, 1).
  const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
  return {shape.tmpl,
          shape.cmin + (0.1 + 0.8 * u) * (shape.cmax - shape.cmin)};
}

double Pool::budget(const Request& request) const {
  return request.budget.value_or(templates[request.tmpl].budget);
}

void Pool::append_frame(const Request& request, std::uint64_t id,
                        std::string& out) const {
  const std::size_t at = out.size();
  out += templates[request.tmpl].frame;
  put_u64(out, at + kIdOffset, id);
  if (request.budget)
    put_u64(out, at + kBudgetOffset,
            std::bit_cast<std::uint64_t>(*request.budget));
}

void Pool::append_traced_frame(const Request& request, std::uint64_t id,
                               const medcc::obs::TraceContext& context,
                               std::string& out) const {
  std::string inner;
  append_frame(request, id, inner);
  std::string body;
  body.reserve(medcc::net::kTraceContextSize + inner.size());
  medcc::net::append_trace_context(body, context);
  body.append(inner, medcc::net::kHeaderSize);
  out += medcc::net::encode_frame(medcc::net::FrameType::traced_solve_request,
                                  id, body);
}

std::uint64_t Pool::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::string frame;
  const auto fold = [&](const std::vector<Request>& requests) {
    for (const Request& r : requests) {
      frame.clear();
      append_frame(r, 0, frame);
      for (const char c : frame) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
      }
    }
  };
  fold(warm);
  std::vector<Request> one_cycle;
  const std::size_t n = fresh.empty() ? timed.size() : kFreshDigestRequests;
  for (std::size_t i = 0; i < n; ++i) one_cycle.push_back(timed_at(i));
  fold(one_cycle);
  return h;
}

Pool build_pool(Workload workload, std::uint64_t seed) {
  Pool pool;
  pool.workload = workload;
  pool.seed = seed;
  Prng rng(seed);
  switch (workload) {
    case Workload::exact_hits: build_exact_hits(pool, rng); break;
    case Workload::shared_problems: build_shared_problems(pool, rng); break;
    case Workload::fresh_solves: build_fresh_solves(pool, rng); break;
  }
  if (pool.timed.empty() && pool.fresh.empty())
    throw std::runtime_error("empty request pool");
  return pool;
}

}  // namespace perfbench
