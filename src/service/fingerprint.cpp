#include "service/fingerprint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/prng.hpp"

namespace medcc::service {

namespace {

/// One SplitMix64 scramble of `x` -- the mixing primitive for all hashes.
constexpr std::uint64_t mix(std::uint64_t x) {
  return util::splitmix64(x);
}

/// One step of an order-dependent chain: the state is pseudo-random, so
/// xoring a raw field into it and scrambling once is enough.
constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t value) {
  return mix(h ^ value);
}

/// A double's bit pattern, with -0.0 normalized to +0.0 so numerically
/// equal fields hash equal.
std::uint64_t bits(double x) {
  if (x == 0.0) x = 0.0;
  return std::bit_cast<std::uint64_t>(x);
}

/// One mix of two doubles. The second is rotated by half a word so that
/// round values (whose low mantissa words are zero) cannot cancel.
std::uint64_t mix_pair(double a, double b) {
  return mix(bits(a) ^ std::rotl(bits(b), 32));
}

constexpr std::uint64_t kExactTag = 0x65786163ULL;  // "exac"
constexpr std::uint64_t kTypesTag = 0x7479706573ULL;  // "types"
constexpr std::uint64_t kRowTag = 0x726f77ULL;        // "row"
constexpr std::uint64_t kMedcTag = 0x6d656463ULL;     // "medc"
constexpr std::uint64_t kComputingTag = 1;
constexpr std::uint64_t kFixedTag = 2;

/// One value per label run. The runs advance in lock-step, so their
/// independent hash chains overlap on the CPU; lane 0 (hi) also supplies
/// the reported module and type hashes.
using Lanes = std::array<std::uint64_t, 2>;
constexpr Lanes kSeeds = {0x243f6a8885a308d3ULL,   // pi digits
                          0x13198a2e03707344ULL};  // more pi digits
/// Per-lane direction tags, pre-mixed: "in" and "out" xor the lane seed.
constexpr Lanes kInTags = {mix(0x696eULL ^ kSeeds[0]),
                           mix(0x696eULL ^ kSeeds[1])};
constexpr Lanes kOutTags = {mix(0x6f7574ULL ^ kSeeds[0]),
                            mix(0x6f7574ULL ^ kSeeds[1])};
/// A module label's start, before its TE/CE row is folded in.
constexpr Lanes kComputingStart = {fold(kSeeds[0], kComputingTag),
                                   fold(kSeeds[1], kComputingTag)};
constexpr Lanes kFixedStart = {fold(kSeeds[0], kFixedTag),
                               fold(kSeeds[1], kFixedTag)};

/// One dependency edge with its refinement keys, hashed once per call.
struct EdgeKeys {
  workflow::NodeId src;
  workflow::NodeId dst;
  Lanes in;   ///< folded into dst's in-sum with src's label
  Lanes out;  ///< folded into src's out-sum with dst's label
};

/// Appends a string as its length, then its bytes in little-endian
/// 8-byte words (the last one zero-padded).
void append_string(std::vector<std::uint64_t>& out, std::string_view s) {
  out.push_back(s.size());
  for (std::size_t at = 0; at < s.size(); at += 8) {
    unsigned char word[8] = {};
    std::memcpy(word, s.data() + at, std::min<std::size_t>(8, s.size() - at));
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b) v = (v << 8) | word[b];
    out.push_back(v);
  }
}

/// True when the sorted copy of `hashes` has no duplicates.
bool all_distinct(std::vector<std::uint64_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  return std::adjacent_find(hashes.begin(), hashes.end()) == hashes.end();
}

}  // namespace

// Both Weisfeiler-Lehman label runs and the order-dependent exact hash
// in one pass (version 3). Per run with seed s, with fold(h, v) =
// mix(h ^ v) and pair(a, b) = mix(bits(a) ^ rotl(bits(b), 32)):
//
//   type hash   t_j  = fold(fold(fold(s, "types"), VP_j), CR_j)
//   cell        c_ij = pair(TE_ij, CE_ij), shared by both runs and exact
//   label       l_i  = fold(fold(s, fixed_i ? 2 : 1),
//                           sum_j mix(c_ij ^ fold(t_j, "row")))
//   edge key    k_e  = pair(DS_e, ET_e); in_e = mix(k_e ^ in_s),
//               out_e = mix(k_e ^ out_s) with pre-mixed per-run tags
//   refinement  l_i' = fold(fold(l_i, in_i), out_i), for
//               2 + bit_width(m + 1) rounds; in_i sums
//               mix(l_src ^ in_e) over the in-edges, out_i sums
//               mix(l_dst ^ out_e) over the out-edges
//   canonical   fold chain from s over "medc", m, |E|, n,
//               sum mix(l_i), sum mix(t_j), then the scalar tail
//
// The exact hash folds, index by index: m, |E|, n, each module's tag
// and cells c_ij, each edge's src, dst and k_e, each type's VP and CR,
// then the tail. Doubles enter as bits(); strings as their length, then
// 8-byte words. These bits are persisted and replicated (docs/service.md).
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
      bits(budget), bits(instance.billing().quantum()),
      bits(instance.network().bandwidth), bits(instance.network().link_delay),
      bits(instance.network().transfer_cost_rate)};
  append_string(tail, solver);
  append_string(tail, config);
  const std::uint64_t sizes[] = {m, edges, n};
  std::uint64_t exact = kExactTag;
  for (const std::uint64_t v : sizes) exact = fold(exact, v);

  // Types: hashes and per-run row keys.
  std::vector<std::uint64_t> type_hash(n);
  std::vector<Lanes> row_key(n);
  Lanes type_sum{};
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t power = bits(catalog.type(j).processing_power);
    const std::uint64_t rate = bits(catalog.type(j).cost_rate);
    for (const int k : {0, 1}) {
      const std::uint64_t t =
          fold(fold(fold(kSeeds[k], kTypesTag), power), rate);
      row_key[j][k] = fold(t, kRowTag);
      type_sum[k] += mix(t);
      if (k == 0) type_hash[j] = t;
    }
  }

  // Initial labels from the TE/CE rows, and the exact hash's module part.
  std::vector<Lanes> label(m);
  for (workflow::NodeId i = 0; i < m; ++i) {
    const bool fixed = wf.module(i).is_fixed();
    exact = fold(exact, fixed ? kFixedTag : kComputingTag);
    Lanes rows{};
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t cell = mix_pair(instance.time(i, j),
                                          instance.cost(i, j));
      exact = fold(exact, cell);
      for (const int k : {0, 1}) rows[k] += mix(cell ^ row_key[j][k]);
    }
    const Lanes& start = fixed ? kFixedStart : kComputingStart;
    for (const int k : {0, 1}) label[i][k] = fold(start[k], rows[k]);
  }

  // Edge keys, hashed once; the exact hash takes its edge part on the way.
  std::vector<EdgeKeys> edge_keys(edges);
  for (dag::EdgeId e = 0; e < edges; ++e) {
    EdgeKeys& edge = edge_keys[e];
    edge.src = graph.edge(e).src;
    edge.dst = graph.edge(e).dst;
    const std::uint64_t key = mix_pair(wf.data_size(e), instance.edge_time(e));
    for (const int k : {0, 1}) {
      edge.in[k] = mix(key ^ kInTags[k]);
      edge.out[k] = mix(key ^ kOutTags[k]);
    }
    exact = fold(fold(fold(exact, edge.src), edge.dst), key);
  }
  for (std::size_t j = 0; j < n; ++j) {
    exact = fold(exact, bits(catalog.type(j).processing_power));
    exact = fold(exact, bits(catalog.type(j).cost_rate));
  }
  for (const std::uint64_t v : tail) exact = fold(exact, v);

  // Refinement: each round folds in the multiset of labelled in- and
  // out-neighbourhoods (edge data size and transfer time included), so
  // after ~log2(m)+2 rounds a label encodes the module's whole
  // neighbourhood out to the graph's diameter on typical workflows. One
  // mix per edge, run and direction; the sums are cleared as they are
  // consumed.
  const int rounds = 2 + std::bit_width(static_cast<std::uint64_t>(m) + 1);
  std::vector<Lanes> in_sum(m), out_sum(m);
  for (int round = 0; round < rounds; ++round) {
    for (const EdgeKeys& edge : edge_keys) {
      for (const int k : {0, 1}) {
        in_sum[edge.dst][k] += mix(label[edge.src][k] ^ edge.in[k]);
        out_sum[edge.src][k] += mix(label[edge.dst][k] ^ edge.out[k]);
      }
    }
    for (workflow::NodeId i = 0; i < m; ++i) {
      for (const int k : {0, 1})
        label[i][k] = fold(fold(label[i][k], in_sum[i][k]), out_sum[i][k]);
      in_sum[i] = {};
      out_sum[i] = {};
    }
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
    h[k] = fold(fold(h[k], module_sum[k]), type_sum[k]);
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
