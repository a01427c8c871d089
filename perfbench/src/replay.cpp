#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "dag/cpm_kernel.hpp"
#include "dag/flat_dag.hpp"
#include "net/codec.hpp"
#include "persist/store.hpp"
#include "sched/schedule.hpp"
#include "sched/solver_registry.hpp"
#include "service/cache.hpp"
#include "service/fingerprint.hpp"
#include "service/persistence.hpp"
#include "service/wire_cache.hpp"
#include "stack.hpp"

namespace perfbench {

namespace {

using medcc::sched::Instance;
using medcc::service::CacheOutcome;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;

constexpr int kCpmProbeCalls = 8;

/// A span around one scope; does nothing without a log.
class Scope {
public:
  Scope(SpanLog* log, std::uint64_t request, Layer layer, std::uint32_t parent)
      : log_(log) {
    if (log_ != nullptr) index_ = log_->open(request, layer, parent);
  }
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t index() const { return index_; }

private:
  SpanLog* log_;
  std::uint32_t index_ = kNoParent;
};

medcc::service::ResultCache::Config result_cache_config() {
  medcc::service::ResultCache::Config config;
  config.capacity = kCacheCapacity;
  config.shards = kCacheShards;
  return config;
}

medcc::service::WireCache::Config wire_cache_config() {
  medcc::service::WireCache::Config config;
  config.capacity = kWireCapacity;
  config.shards = kCacheShards;
  return config;
}

medcc::persist::StoreConfig store_config(const std::filesystem::path& dir) {
  const auto service = service_config(dir, nullptr);
  medcc::persist::StoreConfig config;
  config.dir = dir;
  config.snapshot_interval_s = service.snapshot_interval_s;
  config.journal_rotate_bytes = service.journal_rotate_bytes;
  config.fsync_appends = service.persist_fsync;
  return config;
}

class Replayer {
public:
  Replayer(const Pool& pool, const std::filesystem::path& store_dir)
      : pool_(pool),
        cache_(result_cache_config()),
        wire_(wire_cache_config()),
        store_(store_config(store_dir), [this] {
          std::vector<std::string> payloads;
          for (const auto& entry : cache_.export_entries())
            payloads.push_back(medcc::service::encode_cache_record(entry));
          return payloads;
        }) {
    (void)store_.load();
  }

  void serve(const Request& r, std::uint64_t id, SpanLog* log);

  double cpm_ns = 0.0;
  std::uint64_t cpm_calls = 0;
  std::uint64_t solves = 0;
  std::uint64_t iterations = 0;

private:
  /// Re-runs the Instance and FlatDag builds decode_solve_request did
  /// internally, as shadow spans under `decode`.
  void shadow_builds(const Instance& instance, std::uint64_t id,
                     std::uint32_t decode, SpanLog& log);
  void probe_cpm(const Instance& instance,
                 const medcc::sched::Schedule& schedule);

  const Pool& pool_;
  medcc::service::ResultCache cache_;
  medcc::service::WireCache wire_;
  medcc::persist::DurableStore store_;
  std::string frame_;
  std::string out_;
  medcc::dag::CpmWorkspace workspace_;
};

void Replayer::shadow_builds(const Instance& instance, std::uint64_t id,
                             std::uint32_t decode, SpanLog& log) {
  // Inputs are prepared outside the spans, as decode has them in hand.
  medcc::workflow::Workflow wf = instance.workflow();
  medcc::cloud::VmCatalog catalog = instance.catalog();
  std::vector<std::vector<double>> times;
  for (std::size_t i = 0; i < instance.module_count(); ++i) {
    if (wf.module(i).is_fixed()) continue;
    auto& row = times.emplace_back(instance.type_count());
    for (std::size_t j = 0; j < instance.type_count(); ++j)
      row[j] = instance.time(i, j);
  }
  Span build{id, decode, Layer::instance_build, true, now_ns(), 0};
  const Instance rebuilt = Instance::from_matrix(
      std::move(wf), std::move(catalog), times, instance.billing(),
      instance.network());
  build.end_ns = now_ns();
  const std::uint32_t build_index = log.add(build);
  Span flat{id, build_index, Layer::flatdag_build, true, now_ns(), 0};
  const medcc::dag::FlatDag dag(rebuilt.workflow().graph(),
                                rebuilt.edge_times());
  flat.end_ns = now_ns();
  log.add(flat);
  if (dag.node_count() != instance.flat_dag().node_count())
    throw std::runtime_error("replay: rebuilt instance differs");
}

void Replayer::probe_cpm(const Instance& instance,
                         const medcc::sched::Schedule& schedule) {
  const std::vector<double> weights =
      medcc::sched::durations(instance, schedule);
  double sink = 0.0;
  const std::int64_t start = now_ns();
  for (int k = 0; k < kCpmProbeCalls; ++k)
    sink += medcc::dag::makespan_into(instance.flat_dag(), weights, workspace_);
  cpm_ns += static_cast<double>(now_ns() - start);
  cpm_calls += kCpmProbeCalls;
  if (!(sink > 0.0)) throw std::runtime_error("replay: empty makespan");
}

void Replayer::serve(const Request& r, std::uint64_t id, SpanLog* log) {
  frame_.clear();
  pool_.append_frame(r, id, frame_);
  const Scope root(log, id, Layer::request, kNoParent);
  const std::uint32_t top = root.index();

  std::optional<medcc::net::FrameHeader> header;
  {
    const Scope s(log, id, Layer::header, top);
    header = medcc::net::parse_frame_header(frame_);
  }
  const std::string_view body = std::string_view(frame_).substr(
      medcc::net::kHeaderSize, header->body_size);

  std::shared_ptr<const std::string> cached;
  {
    const Scope s(log, id, Layer::wire_find, top);
    cached = wire_.find(body);
  }
  if (cached) {
    const Scope s(log, id, Layer::frame_copy, top);
    out_.assign(*cached);
    for (int i = 0; i < 8; ++i)
      out_[8 + i] = static_cast<char>((id >> (8 * i)) & 0xffu);
    return;
  }

  SchedulingRequest request;
  std::uint32_t decode_span = kNoParent;
  {
    const Scope s(log, id, Layer::decode, top);
    request = medcc::net::decode_solve_request(body);
    decode_span = s.index();
  }
  const Instance& instance = *request.instance;
  if (log != nullptr) shadow_builds(instance, id, decode_span, *log);

  medcc::service::FingerprintDetail fp;
  {
    const Scope s(log, id, Layer::fingerprint, top);
    fp = medcc::service::fingerprint(request);
  }
  std::optional<medcc::service::CacheHit> hit;
  {
    const Scope s(log, id, Layer::cache_find, top);
    hit = cache_.find(fp);
  }

  SchedulingResponse response;
  response.status = medcc::service::ResponseStatus::ok;
  response.solver = request.solver;
  bool answered = false;
  if (hit && hit->exact) {
    response.cache = CacheOutcome::hit_exact;
    response.result = std::move(hit->result);
    answered = true;
  } else if (hit) {
    const Scope s(log, id, Layer::remap, top);
    if (auto remapped = medcc::service::remap_schedule(*hit, fp)) {
      medcc::sched::Result result;
      result.schedule = std::move(*remapped);
      result.eval = medcc::sched::evaluate(instance, result.schedule);
      result.iterations = hit->result.iterations;
      const double slack = 1e-9 * std::max(1.0, std::abs(request.budget));
      if (result.eval.cost <= request.budget + slack) {
        response.cache = CacheOutcome::hit_isomorphic;
        response.result = std::move(result);
        answered = true;
      }
    }
  }
  if (!answered) {
    response.cache = CacheOutcome::miss;
    const auto* solver =
        medcc::sched::SolverRegistry::built_in().find(request.solver);
    if (solver == nullptr)
      throw std::runtime_error("replay: unknown solver " + request.solver);
    {
      const Scope s(log, id,
                    request.solver == "gain3" ? Layer::solve_gain3
                                              : Layer::solve_cg,
                    top);
      response.result = (*solver)(instance, request.budget);
    }
    if (log != nullptr) {
      probe_cpm(instance, response.result.schedule);
      ++solves;
      iterations += response.result.iterations;
    }
    // The service's insert-then-journal sequence, step by step.
    medcc::service::CacheEntry entry;
    std::string payload;
    {
      const Scope s(log, id, Layer::cache_insert, top);
      entry = medcc::service::ResultCache::make_entry(fp, response.result);
    }
    {
      const Scope s(log, id, Layer::persist_append, top);
      payload = medcc::service::encode_cache_record(entry);
    }
    {
      const Scope s(log, id, Layer::cache_insert, top);
      cache_.insert(std::move(entry));
    }
    {
      const Scope s(log, id, Layer::persist_append, top);
      store_.append(payload);
    }
  }
  {
    const Scope s(log, id, Layer::encode, top);
    out_ = medcc::net::encode_solve_response(response, id);
  }
  // The server's completion callback memoizes a template frame.
  const Scope s(log, id, Layer::wire_insert, top);
  response.queue_delay_ms = 0.0;
  response.solve_ms = 0.0;
  response.cache = CacheOutcome::hit_exact;
  wire_.insert(body, medcc::net::encode_solve_response(response, 0));
}

}  // namespace

ReplayResult summarize(const SpanLog& log, std::size_t requests) {
  ReplayResult result;
  result.requests = requests;
  if (requests == 0) return result;
  const std::vector<Span>& spans = log.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::array<double, kLayerCount> total{};
  std::array<std::uint64_t, kLayerCount> users{};
  std::array<std::uint64_t, kLayerCount> last_user{};
  last_user.fill(UINT64_MAX);
  double layer_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto layer = static_cast<std::size_t>(spans[i].layer);
    total[layer] += static_cast<double>(self[i]);
    if (last_user[layer] != spans[i].request) {
      last_user[layer] = spans[i].request;
      ++users[layer];
    }
    if (spans[i].layer != Layer::request)
      layer_self += static_cast<double>(self[i]);
  }
  for (std::size_t l = 0; l < kLayerCount; ++l)
    result.layer_ns[l] =
        users[l] > 0 ? total[l] / static_cast<double>(users[l]) : 0.0;
  result.self_us_per_request =
      layer_self / 1e3 / static_cast<double>(requests);
  return result;
}

ReplayResult replay(const Pool& pool, const std::filesystem::path& store_dir,
                    std::size_t max_requests, double max_seconds,
                    SpanLog& log) {
  Replayer replayer(pool, store_dir);
  std::uint64_t id = 1;
  for (const Request& r : pool.warm) replayer.serve(r, id++, nullptr);

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(max_seconds * 1e9);
  std::size_t n = 0;
  while (n < max_requests) {
    if (n % 64 == 0 && now_ns() > deadline) break;
    replayer.serve(pool.timed_at(n), id++, &log);
    ++n;
  }
  ReplayResult result = summarize(log, n);
  if (replayer.cpm_calls > 0)
    result.cpm_eval_ns =
        replayer.cpm_ns / static_cast<double>(replayer.cpm_calls);
  if (replayer.solves > 0)
    result.iterations_per_solve = static_cast<double>(replayer.iterations) /
                                  static_cast<double>(replayer.solves);
  return result;
}

}  // namespace perfbench
