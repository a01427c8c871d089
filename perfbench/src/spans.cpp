#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::request: return "bench.request";
    case Layer::header: return "net.header";
    case Layer::wire_find: return "service.wire_find";
    case Layer::frame_copy: return "net.frame_copy";
    case Layer::decode: return "net.decode";
    case Layer::instance_build: return "sched.instance_build";
    case Layer::flatdag_build: return "dag.flatdag_build";
    case Layer::fingerprint: return "service.fingerprint";
    case Layer::cache_find: return "service.cache_find";
    case Layer::remap: return "service.remap";
    case Layer::solve_cg: return "sched.solve.cg";
    case Layer::solve_gain3: return "sched.solve.gain3";
    case Layer::cache_insert: return "service.cache_insert";
    case Layer::persist_append: return "persist.append";
    case Layer::encode: return "net.encode";
    case Layer::wire_insert: return "service.wire_insert";
  }
  return "?";
}

std::uint32_t SpanLog::open(std::uint64_t request, Layer layer,
                            std::uint32_t parent) {
  Span span;
  span.request = request;
  span.parent = parent;
  span.layer = layer;
  span.start_ns = now_ns();
  return add(span);
}

void SpanLog::close(std::uint32_t span) { spans_[span].end_ns = now_ns(); }

std::uint32_t SpanLog::add(const Span& span) {
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::write_tsv(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out << "request\tspan\tparent\tlayer\tshadow\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.request << '\t' << i << '\t'
        << (s.parent == kNoParent ? std::string("-")
                                  : std::to_string(s.parent))
        << '\t' << layer_name(s.layer) << '\t' << (s.shadow ? 1 : 0) << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  // Real children's intervals, clipped to the parent, per parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.end_ns - s.start_ns;
    if (s.parent == kNoParent) continue;
    if (s.parent >= spans.size())
      throw std::invalid_argument("span parent out of range");
    const Span& p = spans[s.parent];
    if (s.shadow) continue;
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[s.parent].emplace_back(lo, hi);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.shadow && s.parent != kNoParent)
      self[s.parent] -= s.end_ns - s.start_ns;
    auto& intervals = covered[i];
    if (intervals.empty()) continue;
    std::sort(intervals.begin(), intervals.end());
    std::int64_t lo = intervals.front().first;
    std::int64_t hi = intervals.front().second;
    for (const auto& [a, b] : intervals) {
      if (a > hi) {
        self[i] -= hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    self[i] -= hi - lo;
  }
  return self;
}

}  // namespace perfbench
