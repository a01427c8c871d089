// Self-test of the benchmark's own logic (no server involved):
//  * every metric name matches [A-Za-z0-9_.-]+ and is used once;
//  * the same seed yields byte-identical request pools, another seed
//    does not;
//  * span self times are right on a hand-built span tree.
//
//   perfbench_selftest          run the checks; exit 0 when all pass
//   perfbench_selftest --list   print "<kind> <name> <unit>" per metric
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <regex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.hpp"
#include "pool.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void test_metric_names() {
  const std::regex valid("[A-Za-z0-9_.-]+");
  std::set<std::string> seen;
  const auto check = [&](std::span<const perfbench::MetricSpec> catalog) {
    for (const auto& spec : catalog) {
      expect(std::regex_match(spec.name, valid),
             std::string("metric name ") + spec.name);
      expect(seen.insert(spec.name).second,
             std::string("duplicate metric ") + spec.name);
      expect(std::string_view(spec.unit).size() <= 16,
             std::string("unit of ") + spec.name);
    }
  };
  check(perfbench::kEndToEnd);
  check(perfbench::kPerLayer);
  expect(std::regex_match("sched.solve_ns.cg", valid), "regex accepts dots");
  expect(!std::regex_match("bad name", valid), "regex rejects spaces");
}

void test_pool_determinism() {
  using perfbench::Workload;
  for (const Workload w : {Workload::exact_hits, Workload::shared_problems,
                           Workload::fresh_solves}) {
    const auto a = perfbench::build_pool(w, 11);
    const auto b = perfbench::build_pool(w, 11);
    const auto c = perfbench::build_pool(w, 12);
    const std::string name = perfbench::to_string(w);
    expect(a.digest() == b.digest(), name + ": same seed, same bytes");
    expect(a.timed.size() == b.timed.size() && a.warm.size() == b.warm.size(),
           name + ": same seed, same request counts");
    expect(a.digest() != c.digest(), name + ": another seed, other bytes");
  }
  // A fresh_solves pool never repeats a problem, and its requests depend
  // on the seed and the position only. Frames are compared by a 64-bit
  // hash: a collision could only fail the check, never pass it.
  const auto fresh = perfbench::build_pool(Workload::fresh_solves, 5);
  const auto again = perfbench::build_pool(Workload::fresh_solves, 5);
  constexpr std::size_t kFresh = 20'000;
  const auto hash = [](const std::string& frame) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : frame) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  std::set<std::uint64_t> frames;
  bool same = true;
  for (std::size_t i = 0; i < kFresh; ++i) {
    std::string frame, other;
    fresh.append_frame(fresh.timed_at(i), 0, frame);
    again.append_frame(again.timed_at(i), 0, other);
    same = same && frame == other;
    frames.insert(hash(frame));
  }
  expect(same, "fresh requests repeat with the seed");
  expect(frames.size() == kFresh, "fresh requests are distinct");
  for (const auto& r : fresh.warm) {
    std::string frame;
    fresh.append_frame(r, 0, frame);
    frames.insert(hash(frame));
  }
  expect(frames.size() == kFresh + fresh.warm.size(),
         "fresh requests differ from the warm-up");
}

void test_self_times() {
  using perfbench::Layer;
  using perfbench::Span;
  // root [0,100]
  //   a [10,40]            real child, self 30 - 10 = 20
  //     b [15,25]          real grandchild, self 10
  //   c [35,60]            overlaps a by 5: union with a covers [10,60]
  //   d [90,120]           sticks out of root: clipped to [90,100]
  //   s (shadow of a), 7 long, outside every interval
  //     t (shadow of s), 3 long
  std::vector<Span> spans;
  const auto add = [&](std::uint32_t parent, Layer layer, bool shadow,
                       std::int64_t start, std::int64_t end) {
    spans.push_back({1, parent, layer, shadow, start, end});
    return static_cast<std::uint32_t>(spans.size() - 1);
  };
  const auto root = add(perfbench::kNoParent, Layer::request, false, 0, 100);
  const auto a = add(root, Layer::decode, false, 10, 40);
  const auto b = add(a, Layer::header, false, 15, 25);
  const auto c = add(root, Layer::fingerprint, false, 35, 60);
  const auto d = add(root, Layer::encode, false, 90, 120);
  const auto s = add(a, Layer::instance_build, true, 200, 207);
  const auto t = add(s, Layer::flatdag_build, true, 300, 303);
  const auto self = perfbench::self_times(spans);
  expect(self[root] == 100 - 50 - 10, "root self time");
  expect(self[a] == 30 - 10 - 7, "self time minus a real and a shadow child");
  expect(self[b] == 10, "leaf self time");
  expect(self[c] == 25, "overlapping sibling keeps its own duration");
  expect(self[d] == 30, "child sticking out keeps its own duration");
  expect(self[s] == 7 - 3, "shadow minus its shadow child");
  expect(self[t] == 3, "shadow leaf");
  // Below the root, self times add up to the spans the root covers plus
  // the shadows' re-measured work: a's call took 30, of which 7 was the
  // shadowed inner step.
  expect(self[a] + self[b] + self[s] + self[t] == 30, "a's subtree sums to a");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--list") {
    for (const auto& spec : perfbench::kEndToEnd)
      std::printf("end_to_end %s %s\n", spec.name, spec.unit);
    for (const auto& spec : perfbench::kPerLayer)
      std::printf("per_layer %s %s\n", spec.name, spec.unit);
    return 0;
  }
  test_metric_names();
  test_pool_determinism();
  test_self_times();
  if (failures == 0) std::cout << "perfbench_selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
