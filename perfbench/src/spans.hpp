// Spans of the traced replay, recorded by the benchmark around its
// calls into each layer and kept in memory until the run ends.
//
// A span names one call into one layer: the request it belongs to, its
// parent span, start and end. Self time is the span's duration minus
// the part of its interval covered by its child spans. One extension:
// a *shadow* child re-measures work its parent's call did internally
// but cannot expose (decode_solve_request builds the Instance, and the
// Instance builds its FlatDag, inside one call). The replay re-runs that
// inner step right after the parent and records it as a shadow child,
// whose whole duration is taken out of the parent's self time. Either
// way the self times of a request's spans add up to the duration of its
// top-level spans.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string_view>
#include <vector>

namespace perfbench {

/// The layers the replay times. Names are the per-layer metric stems.
enum class Layer : std::uint8_t {
  request,         ///< one replayed request (the root; no layer work)
  header,          ///< net: frame header parse
  wire_find,       ///< service: WireCache::find
  frame_copy,      ///< net: cached frame copied out, id patched
  decode,          ///< net: decode_solve_request
  instance_build,  ///< sched: Instance::from_matrix (shadow of decode)
  flatdag_build,   ///< dag: FlatDag build (shadow of instance_build)
  fingerprint,     ///< service: fingerprint
  cache_find,      ///< service: ResultCache::find
  remap,           ///< service: remap_schedule + evaluate + budget check
  solve_cg,        ///< sched: Critical-Greedy
  solve_gain3,     ///< sched: GAIN3
  cache_insert,    ///< service: ResultCache::make_entry + insert
  persist_append,  ///< persist: encode_cache_record + DurableStore::append
  encode,          ///< net: encode_solve_response
  wire_insert,     ///< service: template encode + WireCache::insert
};
inline constexpr std::size_t kLayerCount = 16;

/// Metric stem of a layer, e.g. "service.fingerprint".
[[nodiscard]] const char* layer_name(Layer layer);

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint64_t request = 0;
  std::uint32_t parent = kNoParent;
  Layer layer = Layer::request;
  bool shadow = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
public:
  /// Opens a span starting now; returns its index.
  std::uint32_t open(std::uint64_t request, Layer layer,
                     std::uint32_t parent);
  void close(std::uint32_t span);
  /// Records a finished span.
  std::uint32_t add(const Span& span);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// One line per span: request, index, parent, layer, shadow, start, end.
  void write_tsv(const std::filesystem::path& path) const;

private:
  std::vector<Span> spans_;
};

/// Self time of every span (see the header comment), ns. Real children
/// are clipped to their parent's interval and overlaps are counted once.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

}  // namespace perfbench
