// Canonical-fingerprint invariants: permuted duplicates hash equal, any
// semantic field change hashes different, and the per-module labels
// support schedule re-mapping between permuted twins. The property tests
// at the end check the same over hundreds of seeded random, Montage and
// CyberShake instances.
#include "service/fingerprint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/cost_model.hpp"
#include "cloud/vm_type.hpp"
#include "sched/instance.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/random_workflow.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::service::fingerprint_instance;
using medcc::service::FingerprintDetail;
using medcc::sched::Instance;
using medcc::workflow::Workflow;

// The paper's example workflow (entry, w1..w6, exit) built in its natural
// module order.
Workflow diamond_forward() {
  Workflow wf;
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto a = wf.add_module("a", 30.0);
  const auto b = wf.add_module("b", 45.0);
  const auto c = wf.add_module("c", 75.0);
  const auto exit = wf.add_fixed_module("exit", 1.0);
  wf.add_dependency(entry, a, 2.0);
  wf.add_dependency(a, b, 3.0);
  wf.add_dependency(a, c, 4.0);
  wf.add_dependency(b, exit, 5.0);
  wf.add_dependency(c, exit, 6.0);
  return wf;
}

// The same DAG with modules inserted in a different order and the edges
// declared in a different sequence.
Workflow diamond_permuted() {
  Workflow wf;
  const auto c = wf.add_module("c-renamed", 75.0);  // names must not matter
  const auto exit = wf.add_fixed_module("exit", 1.0);
  const auto a = wf.add_module("a", 30.0);
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto b = wf.add_module("b", 45.0);
  wf.add_dependency(c, exit, 6.0);
  wf.add_dependency(b, exit, 5.0);
  wf.add_dependency(entry, a, 2.0);
  wf.add_dependency(a, c, 4.0);
  wf.add_dependency(a, b, 3.0);
  return wf;
}

VmCatalog catalog_forward() {
  return VmCatalog({VmType{"small", 3.0, 1.0}, VmType{"medium", 15.0, 4.0},
                    VmType{"large", 30.0, 8.0}});
}

VmCatalog catalog_permuted() {
  return VmCatalog({VmType{"L", 30.0, 8.0}, VmType{"S", 3.0, 1.0},
                    VmType{"M", 15.0, 4.0}});
}

FingerprintDetail fp(const Instance& inst, double budget = 50.0,
                     std::string_view solver = "cg",
                     std::string_view config = "") {
  return fingerprint_instance(inst, budget, solver, config);
}

TEST(Fingerprint, IdenticalInstancesHashEqual) {
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_forward(), catalog_forward());
  const auto fa = fp(a);
  const auto fb = fp(b);
  EXPECT_EQ(fa.canonical, fb.canonical);
  EXPECT_EQ(fa.exact, fb.exact);
  EXPECT_TRUE(fa.modules_distinct);
  EXPECT_TRUE(fa.types_distinct);
}

TEST(Fingerprint, PermutedModuleOrderHashesEqualButNotExact) {
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_permuted(), catalog_forward());
  const auto fa = fp(a);
  const auto fb = fp(b);
  EXPECT_EQ(fa.canonical, fb.canonical);
  EXPECT_NE(fa.exact, fb.exact);  // layouts differ index-for-index
}

TEST(Fingerprint, PermutedCatalogOrderHashesEqual) {
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_forward(), catalog_permuted());
  EXPECT_EQ(fp(a).canonical, fp(b).canonical);
  EXPECT_NE(fp(a).exact, fp(b).exact);
}

TEST(Fingerprint, BothPermutationsAtOnceHashEqual) {
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_permuted(), catalog_permuted());
  EXPECT_EQ(fp(a).canonical, fp(b).canonical);
}

TEST(Fingerprint, PermutedLabelsMatchModuleForModule) {
  // The canonical label of module "a" must be the same whatever its
  // NodeId is -- that is what re-mapping relies on.
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_permuted(), catalog_forward());
  const auto fa = fp(a);
  const auto fb = fp(b);
  ASSERT_TRUE(fa.modules_distinct);
  ASSERT_TRUE(fb.modules_distinct);
  // forward ids: entry=0 a=1 b=2 c=3 exit=4; permuted: c=0 exit=1 a=2
  // entry=3 b=4.
  EXPECT_EQ(fa.module_hash[0], fb.module_hash[3]);  // entry
  EXPECT_EQ(fa.module_hash[1], fb.module_hash[2]);  // a
  EXPECT_EQ(fa.module_hash[2], fb.module_hash[4]);  // b
  EXPECT_EQ(fa.module_hash[3], fb.module_hash[0]);  // c
  EXPECT_EQ(fa.module_hash[4], fb.module_hash[1]);  // exit
}

TEST(Fingerprint, WorkloadChangeHashesDifferent) {
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  Workflow other;
  {
    const auto entry = other.add_fixed_module("entry", 1.0);
    const auto a = other.add_module("a", 31.0);  // 30 -> 31
    const auto b = other.add_module("b", 45.0);
    const auto c = other.add_module("c", 75.0);
    const auto exit = other.add_fixed_module("exit", 1.0);
    other.add_dependency(entry, a, 2.0);
    other.add_dependency(a, b, 3.0);
    other.add_dependency(a, c, 4.0);
    other.add_dependency(b, exit, 5.0);
    other.add_dependency(c, exit, 6.0);
  }
  const auto inst = Instance::from_model(std::move(other), catalog_forward());
  EXPECT_NE(fp(base).canonical, fp(inst).canonical);
}

TEST(Fingerprint, TopologyChangeHashesDifferent) {
  Workflow other;
  const auto entry = other.add_fixed_module("entry", 1.0);
  const auto a = other.add_module("a", 30.0);
  const auto b = other.add_module("b", 45.0);
  const auto c = other.add_module("c", 75.0);
  const auto exit = other.add_fixed_module("exit", 1.0);
  other.add_dependency(entry, a, 2.0);
  other.add_dependency(a, b, 3.0);
  other.add_dependency(b, c, 4.0);  // chain instead of fork
  other.add_dependency(b, exit, 5.0);
  other.add_dependency(c, exit, 6.0);
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  const auto inst = Instance::from_model(std::move(other), catalog_forward());
  EXPECT_NE(fp(base).canonical, fp(inst).canonical);
}

TEST(Fingerprint, CatalogChangeHashesDifferent) {
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  const auto faster = Instance::from_model(
      diamond_forward(),
      VmCatalog({VmType{"small", 3.0, 1.0}, VmType{"medium", 15.0, 4.0},
                 VmType{"large", 31.0, 8.0}}));  // 30 -> 31
  const auto pricier = Instance::from_model(
      diamond_forward(),
      VmCatalog({VmType{"small", 3.0, 1.5}, VmType{"medium", 15.0, 4.0},
                 VmType{"large", 30.0, 8.0}}));  // rate 1 -> 1.5
  EXPECT_NE(fp(base).canonical, fp(faster).canonical);
  EXPECT_NE(fp(base).canonical, fp(pricier).canonical);
}

TEST(Fingerprint, ScalarFieldChangesHashDifferent) {
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  const auto base = fp(inst);
  EXPECT_NE(base.canonical, fp(inst, 51.0).canonical);           // budget
  EXPECT_NE(base.canonical, fp(inst, 50.0, "gain3").canonical);  // solver
  EXPECT_NE(base.canonical,
            fp(inst, 50.0, "cg", "tuned").canonical);  // config tag
}

TEST(Fingerprint, BillingAndNetworkChangesHashDifferent) {
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  const auto continuous =
      Instance::from_model(diamond_forward(), catalog_forward(),
                           medcc::cloud::BillingPolicy::continuous());
  medcc::cloud::NetworkModel net;
  net.bandwidth = 10.0;
  net.link_delay = 0.5;
  const auto networked = Instance::from_model(
      diamond_forward(), catalog_forward(),
      medcc::cloud::BillingPolicy::per_unit_time(), net);
  EXPECT_NE(fp(base).canonical, fp(continuous).canonical);
  EXPECT_NE(fp(base).canonical, fp(networked).canonical);
}

TEST(Fingerprint, EdgeDataSizeChangeHashesDifferent) {
  Workflow other;
  const auto entry = other.add_fixed_module("entry", 1.0);
  const auto a = other.add_module("a", 30.0);
  const auto b = other.add_module("b", 45.0);
  const auto c = other.add_module("c", 75.0);
  const auto exit = other.add_fixed_module("exit", 1.0);
  other.add_dependency(entry, a, 2.0);
  other.add_dependency(a, b, 3.5);  // 3.0 -> 3.5
  other.add_dependency(a, c, 4.0);
  other.add_dependency(b, exit, 5.0);
  other.add_dependency(c, exit, 6.0);
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  const auto inst = Instance::from_model(std::move(other), catalog_forward());
  EXPECT_NE(fp(base).canonical, fp(inst).canonical);
}

TEST(Fingerprint, SymmetricModulesAreDetectedAsNonRemappable) {
  // Two structurally identical parallel branches: the WL labels of the
  // twin modules coincide, so modules_distinct must be false and the
  // cache will refuse to re-map (exact hits still work).
  Workflow wf;
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto a = wf.add_module("a", 30.0);
  const auto b = wf.add_module("b", 30.0);
  const auto exit = wf.add_fixed_module("exit", 1.0);
  wf.add_dependency(entry, a, 2.0);
  wf.add_dependency(entry, b, 2.0);
  wf.add_dependency(a, exit, 3.0);
  wf.add_dependency(b, exit, 3.0);
  const auto inst = Instance::from_model(std::move(wf), catalog_forward());
  EXPECT_FALSE(fp(inst).modules_distinct);
}

TEST(Fingerprint, DuplicateCatalogTypesAreDetected) {
  const auto inst = Instance::from_model(
      diamond_forward(),
      VmCatalog({VmType{"a", 3.0, 1.0}, VmType{"b", 3.0, 1.0}}));
  EXPECT_FALSE(fp(inst).types_distinct);
}

TEST(Fingerprint, LargerPatternPermutationProperty) {
  // montage_like from the same seed, then rebuilt with a rotated module
  // order via a manual copy, must canonically collide. Build the rotation
  // by re-adding modules in reverse id order.
  medcc::util::Prng rng(7);
  const auto wf = medcc::workflow::montage_like(4, rng);
  Workflow reversed;
  const std::size_t m = wf.module_count();
  std::vector<std::size_t> new_id(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto old_id = m - 1 - i;
    const auto& mod = wf.module(old_id);
    new_id[old_id] = mod.is_fixed()
                         ? reversed.add_fixed_module(mod.name, *mod.fixed_time)
                         : reversed.add_module(mod.name, mod.workload);
  }
  const auto& graph = wf.graph();
  for (std::size_t e = graph.edge_count(); e-- > 0;) {
    const auto& edge = graph.edge(e);
    reversed.add_dependency(new_id[edge.src], new_id[edge.dst],
                            wf.data_size(e));
  }
  const auto a = Instance::from_model(wf, catalog_forward());
  const auto b = Instance::from_model(std::move(reversed), catalog_forward());
  EXPECT_EQ(fp(a).canonical, fp(b).canonical);
  EXPECT_NE(fp(a).exact, fp(b).exact);
}

// -- property tests over seeded instances ----------------------------------

/// Everything a measured-matrix instance is built from, so a test can
/// rebuild it with one field moved.
struct Spec {
  Workflow wf;
  std::vector<VmType> types;
  std::vector<std::vector<double>> times;  ///< per computing module
  double quantum = 1.0;
  medcc::cloud::NetworkModel network;
  double budget = 0.0;
  std::string solver;
  std::string config;
};

Instance build(const Spec& s) {
  return Instance::from_matrix(s.wf, VmCatalog(s.types), s.times,
                               medcc::cloud::BillingPolicy(s.quantum),
                               s.network);
}

FingerprintDetail fp(const Spec& s) {
  return fingerprint_instance(build(s), s.budget, s.solver, s.config);
}

/// Seed k's instance: a Section VI random workflow, a Montage or a
/// CyberShake shape (k mod 3), with random TE rows, catalog, billing
/// quantum, network, budget, solver and config.
Spec make_spec(std::uint64_t k) {
  medcc::util::Prng rng(0xF1F3 + k);
  Spec s;
  switch (k % 3) {
    case 0: {
      medcc::workflow::RandomWorkflowSpec spec;
      spec.modules = static_cast<std::size_t>(rng.uniform_int(4, 40));
      spec.edges = 2 * spec.modules;
      spec.data_size_max = 20.0;
      spec.weighted_endpoints = rng.bernoulli(0.5);
      s.wf = medcc::workflow::random_workflow(spec, rng);
      break;
    }
    case 1:
      s.wf = medcc::workflow::montage_like(
          static_cast<std::size_t>(rng.uniform_int(2, 8)), rng);
      break;
    default:
      s.wf = medcc::workflow::cybershake_like(
          static_cast<std::size_t>(rng.uniform_int(2, 8)), rng);
      break;
  }
  s.types = medcc::cloud::random_linear_catalog(
                static_cast<std::size_t>(rng.uniform_int(2, 6)), 16, rng,
                1.0, 1.0, 0.1)
                .types();
  s.times.resize(s.wf.computing_module_count());
  for (auto& row : s.times) {
    row.resize(s.types.size());
    for (double& t : row) t = rng.uniform_real(0.5, 50.0);
  }
  s.quantum = rng.uniform_real(0.25, 2.0);
  s.network.bandwidth = rng.uniform_real(10.0, 100.0);
  s.network.link_delay = rng.uniform_real(0.01, 0.5);
  s.network.transfer_cost_rate = rng.uniform_real(0.001, 0.1);
  s.budget = rng.uniform_real(10.0, 1000.0);
  s.solver = rng.bernoulli(0.5) ? "cg" : "gain3";
  const auto config_len = static_cast<std::size_t>(rng.uniform_int(1, 24));
  for (std::size_t i = 0; i < config_len; ++i)
    s.config.push_back(static_cast<char>(rng.uniform_int(32, 126)));
  return s;
}

constexpr std::uint64_t kPropertyInstances = 240;

/// `s` rebuilt with modules, edges and VM types added in random order.
/// new_id[i] and new_type[j] are where old module i and old type j went.
struct Twin {
  Spec spec;
  std::vector<std::size_t> new_id;
  std::vector<std::size_t> new_type;
};

Twin permuted(const Spec& s, medcc::util::Prng& rng) {
  const Workflow& wf = s.wf;
  const std::size_t m = wf.module_count();
  const std::size_t n = s.types.size();
  Twin twin{Spec{}, std::vector<std::size_t>(m), std::vector<std::size_t>(n)};
  Spec& out = twin.spec;
  std::vector<std::size_t> modules(m);
  std::iota(modules.begin(), modules.end(), 0);
  rng.shuffle(modules);
  for (const std::size_t old : modules) {
    const auto& mod = wf.module(old);
    twin.new_id[old] = mod.is_fixed()
                           ? out.wf.add_fixed_module(mod.name, *mod.fixed_time)
                           : out.wf.add_module(mod.name, mod.workload);
  }
  std::vector<std::size_t> edges(wf.graph().edge_count());
  std::iota(edges.begin(), edges.end(), 0);
  rng.shuffle(edges);
  for (const std::size_t e : edges) {
    const auto& edge = wf.graph().edge(e);
    out.wf.add_dependency(twin.new_id[edge.src], twin.new_id[edge.dst],
                          wf.data_size(e));
  }
  std::vector<std::size_t> type_order(n);
  std::iota(type_order.begin(), type_order.end(), 0);
  rng.shuffle(type_order);
  for (std::size_t p = 0; p < n; ++p) {
    out.types.push_back(s.types[type_order[p]]);
    twin.new_type[type_order[p]] = p;
  }
  // TE rows follow their modules (ascending new id) and their columns
  // follow the types.
  const auto old_computing = wf.computing_modules();
  std::vector<std::size_t> row_of(m);
  for (std::size_t r = 0; r < old_computing.size(); ++r)
    row_of[old_computing[r]] = r;
  std::vector<std::size_t> old_of(m);
  for (std::size_t i = 0; i < m; ++i) old_of[twin.new_id[i]] = i;
  for (const std::size_t id : out.wf.computing_modules()) {
    const auto& row = s.times[row_of[old_of[id]]];
    auto& permuted_row = out.times.emplace_back(n);
    for (std::size_t p = 0; p < n; ++p) permuted_row[p] = row[type_order[p]];
  }
  out.quantum = s.quantum;
  out.network = s.network;
  out.budget = s.budget;
  out.solver = s.solver;
  out.config = s.config;
  return twin;
}

/// `wf` with edge `target`'s data size replaced by `data`.
Workflow with_data_size(const Workflow& wf, std::size_t target, double data) {
  Workflow out;
  for (std::size_t i = 0; i < wf.module_count(); ++i) {
    const auto& mod = wf.module(i);
    if (mod.is_fixed())
      (void)out.add_fixed_module(mod.name, *mod.fixed_time);
    else
      (void)out.add_module(mod.name, mod.workload);
  }
  for (std::size_t e = 0; e < wf.graph().edge_count(); ++e) {
    const auto& edge = wf.graph().edge(e);
    out.add_dependency(edge.src, edge.dst,
                       e == target ? data : wf.data_size(e));
  }
  return out;
}

double ulp_up(double x) { return std::nextafter(x, INFINITY); }

TEST(FingerprintProperty, PermutedTwinsHashEqualWithMatchingLabels) {
  medcc::util::Prng rng(0x0DE5);
  for (std::uint64_t k = 0; k < kPropertyInstances; ++k) {
    SCOPED_TRACE("instance " + std::to_string(k));
    const Spec spec = make_spec(k);
    const Twin twin = permuted(spec, rng);
    const auto a = fp(spec);
    const auto b = fp(twin.spec);
    ASSERT_EQ(a.canonical, b.canonical);
    EXPECT_EQ(a.modules_distinct, b.modules_distinct);
    EXPECT_EQ(a.types_distinct, b.types_distinct);
    for (std::size_t i = 0; i < a.module_hash.size(); ++i)
      ASSERT_EQ(a.module_hash[i], b.module_hash[twin.new_id[i]])
          << "module " << i;
    for (std::size_t j = 0; j < a.type_hash.size(); ++j)
      ASSERT_EQ(a.type_hash[j], b.type_hash[twin.new_type[j]]) << "type " << j;
  }
}

TEST(FingerprintProperty, OneUlpInAnyFieldChangesCanonicalAndExact) {
  // An edge's transfer time is a function of its data size and the
  // network model (Instance::finalize_edges), so it cannot move alone:
  // "edge data size" moves one data size, "edge time" one data size
  // whose transfer time moves with it, and the network fields move
  // every edge time along with themselves.
  using Perturb = std::function<void(Spec&, medcc::util::Prng&)>;
  const auto pick = [](medcc::util::Prng& rng, std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  const std::pair<const char*, Perturb> fields[] = {
      {"TE cell",
       [&](Spec& s, medcc::util::Prng& rng) {
         double& t = s.times[pick(rng, s.times.size())]
                            [pick(rng, s.types.size())];
         t = ulp_up(t);
       }},
      {"edge data size",
       [&](Spec& s, medcc::util::Prng& rng) {
         const std::size_t e = pick(rng, s.wf.graph().edge_count());
         s.wf = with_data_size(s.wf, e, ulp_up(s.wf.data_size(e)));
       }},
      {"edge time",
       [&](Spec& s, medcc::util::Prng& rng) {
         // Grow a data size until its transfer time changes.
         const std::size_t e = pick(rng, s.wf.graph().edge_count());
         const double before = build(s).edge_time(e);
         double data = s.wf.data_size(e);
         Spec moved = s;
         do {
           data = ulp_up(data);
           moved.wf = with_data_size(s.wf, e, data);
         } while (build(moved).edge_time(e) == before);
         s = std::move(moved);
       }},
      {"VM power",
       [&](Spec& s, medcc::util::Prng& rng) {
         double& vp = s.types[pick(rng, s.types.size())].processing_power;
         vp = ulp_up(vp);
       }},
      {"VM rate",
       [&](Spec& s, medcc::util::Prng& rng) {
         double& cr = s.types[pick(rng, s.types.size())].cost_rate;
         cr = ulp_up(cr);
       }},
      {"budget", [](Spec& s, medcc::util::Prng&) { s.budget = ulp_up(s.budget); }},
      {"quantum",
       [](Spec& s, medcc::util::Prng&) { s.quantum = ulp_up(s.quantum); }},
      {"bandwidth",
       [](Spec& s, medcc::util::Prng&) {
         s.network.bandwidth = ulp_up(s.network.bandwidth);
       }},
      {"delay",
       [](Spec& s, medcc::util::Prng&) {
         s.network.link_delay = ulp_up(s.network.link_delay);
       }},
      {"transfer rate",
       [](Spec& s, medcc::util::Prng&) {
         s.network.transfer_cost_rate = ulp_up(s.network.transfer_cost_rate);
       }},
      {"solver byte",
       [&](Spec& s, medcc::util::Prng& rng) {
         s.solver[pick(rng, s.solver.size())] ^= 0x01;
       }},
      {"config byte",
       [&](Spec& s, medcc::util::Prng& rng) {
         s.config[pick(rng, s.config.size())] ^=
             static_cast<char>(1 << rng.uniform_int(0, 6));
       }},
  };
  medcc::util::Prng rng(0x5E45);
  for (std::uint64_t k = 0; k < kPropertyInstances; ++k) {
    const Spec spec = make_spec(k);
    const auto base = fp(spec);
    for (const auto& [name, perturb] : fields) {
      Spec moved = spec;
      perturb(moved, rng);
      const auto other = fp(moved);
      EXPECT_NE(base.canonical, other.canonical)
          << name << ", instance " << k;
      EXPECT_NE(base.exact, other.exact) << name << ", instance " << k;
    }
  }
}

TEST(FingerprintProperty, NoCollisionsAcrossTwentyThousandInstances) {
  // Near neighbours are the hard case for a weak hash: each base
  // instance plus 100 variants that move one TE cell and 100 that move
  // one edge data size, variant v by v + 1 ulps, so every instance
  // differs from every other one.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> canonical;
  std::vector<std::uint64_t> exact;
  const auto record = [&](const Spec& s) {
    const auto f = fp(s);
    canonical.emplace_back(f.canonical.hi, f.canonical.lo);
    exact.push_back(f.exact);
  };
  const auto ulps_up = [](double x, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) x = ulp_up(x);
    return x;
  };
  for (std::uint64_t k = 0; k < 100; ++k) {
    const Spec spec = make_spec(k);
    record(spec);
    const std::size_t n = spec.types.size();
    const std::size_t cells = spec.times.size() * n;
    const std::size_t edges = spec.wf.graph().edge_count();
    for (std::size_t v = 0; v < 100; ++v) {
      Spec moved = spec;
      double& t = moved.times[(v % cells) / n][v % n];
      t = ulps_up(t, v + 1);
      record(moved);
    }
    for (std::size_t v = 0; v < 100; ++v) {
      const std::size_t e = v % edges;
      Spec moved = spec;
      moved.wf = with_data_size(spec.wf, e, ulps_up(spec.wf.data_size(e), v + 1));
      record(moved);
    }
  }
  ASSERT_GE(canonical.size(), 20000u);
  std::sort(canonical.begin(), canonical.end());
  std::sort(exact.begin(), exact.end());
  EXPECT_EQ(std::adjacent_find(canonical.begin(), canonical.end()),
            canonical.end());
  EXPECT_EQ(std::adjacent_find(exact.begin(), exact.end()), exact.end());
}

}  // namespace
