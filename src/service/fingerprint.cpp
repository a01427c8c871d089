#include "service/fingerprint.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/prng.hpp"

namespace medcc::service {

namespace {

/// One SplitMix64 scramble of `x` -- the mixing primitive for all hashes.
constexpr std::uint64_t mix(std::uint64_t x) {
  return util::splitmix64(x);
}

/// chain(h, value) = fold(h, mix(value)): every value below is mixed
/// once and folded into each order-dependent chain that uses it.
constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t mixed) {
  return mix(h ^ mixed);
}

/// mix() of a double's bit pattern, with -0.0 normalized to +0.0 so
/// numerically equal fields hash equal.
std::uint64_t mix_double(double x) {
  if (x == 0.0) x = 0.0;
  return mix(std::bit_cast<std::uint64_t>(x));
}

// The tags: pre-mixed, except the exact hash's start value.
constexpr std::uint64_t kExactTag = 0x65786163ULL;         // "exac"
constexpr std::uint64_t kTypesTag = mix(0x7479706573ULL);  // "types"
constexpr std::uint64_t kRowTag = mix(0x726f77ULL);        // "row"
constexpr std::uint64_t kInTag = mix(0x696eULL);           // "in"
constexpr std::uint64_t kOutTag = mix(0x6f7574ULL);        // "out"
constexpr std::uint64_t kMedcTag = mix(0x6d656463ULL);     // "medc"
constexpr std::uint64_t kComputingTag = mix(1);
constexpr std::uint64_t kFixedTag = mix(2);

/// One value per label run. The runs advance in lock-step, so their
/// independent hash chains overlap on the CPU; lane 0 (hi) also supplies
/// the reported module and type hashes.
using Lanes = std::array<std::uint64_t, 2>;
constexpr Lanes kSeeds = {0x243f6a8885a308d3ULL,   // pi digits
                          0x13198a2e03707344ULL};  // more pi digits

/// True when the sorted copy of `hashes` has no duplicates.
bool all_distinct(std::vector<std::uint64_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  return std::adjacent_find(hashes.begin(), hashes.end()) == hashes.end();
}

}  // namespace

// Both Weisfeiler-Lehman label runs and the order-dependent exact hash
// in one pass. Per run with seed s, with chain(h, v) = mix(h ^ mix(v)):
//
//   type hash   t_j  = chain(chain(chain(s, "types"), VP_j), CR_j)
//   label       l_i  = chain(chain(s, fixed_i ? 2 : 1), sum_j mix(c_ij)),
//               c_ij = chain(chain(chain(t_j, "row"), TE_ij), CE_ij)
//   refinement  l_i' = chain(chain(l_i, in_i), out_i), for
//               2 + bit_width(m + 1) rounds; in_i sums
//               mix(chain(chain(chain(l_src, "in"), DS_e), ET_e)) over
//               the in-edges, out_i likewise with l_dst and "out"
//   canonical   chain from s over "medc", m, |E|, n, sum mix(l_i),
//               sum mix(t_j), then the scalar tail
//
// The exact hash chains the same fields index by index. Doubles enter
// as mix_double; strings as their length, then one step per byte.
// These bits are persisted and replicated (docs/service.md).
FingerprintDetail fingerprint_instance(const sched::Instance& instance,
                                       double budget, std::string_view solver,
                                       std::string_view config) {
  const auto& wf = instance.workflow();
  const auto& graph = wf.graph();
  const auto& catalog = instance.catalog();
  const std::size_t m = wf.module_count();
  const std::size_t n = instance.type_count();
  const std::size_t edges = graph.edge_count();

  // The scalar tail every chain ends with.
  std::vector<std::uint64_t> tail = {
      mix_double(budget),
      mix_double(instance.billing().quantum()),
      mix_double(instance.network().bandwidth),
      mix_double(instance.network().link_delay),
      mix_double(instance.network().transfer_cost_rate)};
  for (const std::string_view s : {solver, config}) {
    tail.push_back(mix(s.size()));
    for (const char c : s) tail.push_back(mix(static_cast<unsigned char>(c)));
  }
  const std::uint64_t sizes[] = {mix(m), mix(edges), mix(n)};
  std::uint64_t exact = kExactTag;
  for (const std::uint64_t v : sizes) exact = fold(exact, v);

  // Types: hashes and their "row"-tagged cell prefixes.
  std::vector<std::uint64_t> type_hash(n);
  std::vector<Lanes> row_prefix(n);
  std::vector<std::uint64_t> type_fields;  // mixed VP_j, CR_j pairs
  Lanes type_sum{};
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t power = mix_double(catalog.type(j).processing_power);
    const std::uint64_t rate = mix_double(catalog.type(j).cost_rate);
    type_fields.insert(type_fields.end(), {power, rate});
    for (const int k : {0, 1}) {
      const std::uint64_t t =
          fold(fold(fold(kSeeds[k], kTypesTag), power), rate);
      row_prefix[j][k] = fold(t, kRowTag);
      type_sum[k] += mix(t);
      if (k == 0) type_hash[j] = t;
    }
  }

  // Initial labels from the TE/CE rows, and the exact hash's module part.
  std::vector<Lanes> label(m);
  for (workflow::NodeId i = 0; i < m; ++i) {
    const std::uint64_t tag =
        wf.module(i).is_fixed() ? kFixedTag : kComputingTag;
    exact = fold(exact, tag);
    Lanes rows{};
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t te = mix_double(instance.time(i, j));
      const std::uint64_t ce = mix_double(instance.cost(i, j));
      exact = fold(fold(exact, te), ce);
      for (const int k : {0, 1})
        rows[k] += mix(fold(fold(row_prefix[j][k], te), ce));
    }
    for (const int k : {0, 1})
      label[i][k] = fold(fold(kSeeds[k], tag), mix(rows[k]));
  }

  // Flat edge arrays with the per-edge values mixed once; the exact hash
  // takes its edge and type parts on the way.
  std::vector<workflow::NodeId> src(edges), dst(edges);
  std::vector<std::uint64_t> data(edges), time(edges);
  for (dag::EdgeId e = 0; e < edges; ++e) {
    src[e] = graph.edge(e).src;
    dst[e] = graph.edge(e).dst;
    data[e] = mix_double(wf.data_size(e));
    time[e] = mix_double(instance.edge_time(e));
    for (const std::uint64_t v : {mix(src[e]), mix(dst[e]), data[e], time[e]})
      exact = fold(exact, v);
  }
  for (const std::uint64_t v : type_fields) exact = fold(exact, v);
  for (const std::uint64_t v : tail) exact = fold(exact, v);

  // Refinement: each round folds in the multiset of labelled in- and
  // out-neighbourhoods (edge data size and transfer time included), so
  // after ~log2(m)+2 rounds a label encodes the module's whole
  // neighbourhood out to the graph's diameter on typical workflows.
  const int rounds = 2 + std::bit_width(static_cast<std::uint64_t>(m) + 1);
  std::vector<Lanes> in_sum(m), out_sum(m);
  for (int round = 0; round < rounds; ++round) {
    std::fill(in_sum.begin(), in_sum.end(), Lanes{});
    std::fill(out_sum.begin(), out_sum.end(), Lanes{});
    for (dag::EdgeId e = 0; e < edges; ++e) {
      for (const int k : {0, 1}) {
        in_sum[dst[e]][k] +=
            mix(fold(fold(fold(label[src[e]][k], kInTag), data[e]), time[e]));
        out_sum[src[e]][k] +=
            mix(fold(fold(fold(label[dst[e]][k], kOutTag), data[e]), time[e]));
      }
    }
    for (workflow::NodeId i = 0; i < m; ++i)
      for (const int k : {0, 1})
        label[i][k] =
            fold(fold(label[i][k], mix(in_sum[i][k])), mix(out_sum[i][k]));
  }

  // Order-independent combination of labels, type hashes, and scalars.
  FingerprintDetail detail;
  detail.module_hash.resize(m);
  Lanes module_sum{};
  for (workflow::NodeId i = 0; i < m; ++i) {
    detail.module_hash[i] = label[i][0];
    for (const int k : {0, 1}) module_sum[k] += mix(label[i][k]);
  }
  Lanes h{};
  for (const int k : {0, 1}) {
    h[k] = fold(kSeeds[k], kMedcTag);
    for (const std::uint64_t v : sizes) h[k] = fold(h[k], v);
    h[k] = fold(fold(h[k], mix(module_sum[k])), mix(type_sum[k]));
    for (const std::uint64_t v : tail) h[k] = fold(h[k], v);
  }

  detail.canonical = {h[0], h[1]};
  detail.exact = exact;
  detail.modules_distinct = all_distinct(detail.module_hash);
  detail.types_distinct = all_distinct(type_hash);
  detail.type_hash = std::move(type_hash);
  detail.solver = std::string(solver);
  return detail;
}

FingerprintDetail fingerprint(const SchedulingRequest& request) {
  MEDCC_EXPECTS(request.instance != nullptr);
  return fingerprint_instance(*request.instance, request.budget,
                              request.solver, request.config);
}

}  // namespace medcc::service
