// perfbench_serving: the serving benchmark's measuring program.
//
//   perfbench_serving --workload exact_hits|shared_problems|fresh_solves
//                     --seed N --seconds S --trace 0|1
//                     [--out-dir DIR] [--commit TEXT]
//
// Both modes set up the workload's stack and run its serving phases on
// it (open-loop reference rate, closed loop, rate ladder), verifying
// every response. --trace 0 prints the end-to-end metrics; --trace 1
// adds a traced closed loop and the replay, and prints the per-layer
// metrics. The last line of standard output is the result object; run
// metadata, every measured value and phase details go to standard error
// and to DIR/results/. README.md documents every metric.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "loadgen.hpp"
#include "metrics.hpp"
#include "pool.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stack.hpp"
#include "util/prng.hpp"
#include "verify.hpp"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// The fixed load settings of one workload.
struct Plan {
  double reference_rps;    ///< open-loop rate for the latency metrics
  double ladder_base_rps;  ///< lowest rung of the rate ladder
  double limit_ms;         ///< latency limit of the rate ladder
  std::size_t outstanding; ///< closed-loop requests in flight
  std::size_t reactors;    ///< server reactors, each with its own CPU
};

/// The rate ladder: kRungs rates, each kLadderRatio above the last. It
/// spans 1.05^63 = 22x, so its top lies several times above what each
/// workload carries today and a speed-up moves the rung rather than
/// saturating it. A binary search visits 7 of the rungs.
constexpr double kLadderRatio = 1.05;
constexpr int kRungs = 64;
/// A ladder probe passes when this share of its requests succeeds
/// within the latency limit.
constexpr double kSloShare = 0.99;
/// A probe is stopped once this many times the requests that the rate
/// sustains within the limit are unanswered: it has failed.
constexpr double kAbortFactor = 4.0;
/// Open-loop runs whose generator sent its p99 request later than this
/// are invalid: their numbers would measure the generator.
constexpr double kLateLimitMs = 1.0;
/// Set-ups per untraced run; setup_s is their median. The first few of a
/// process run slower (fresh heap pages, cold caches); with this many
/// the median lies among the steady ones.
constexpr int kSetups = 21;
/// Warm-up requests in flight at once. Sending a whole wave at once
/// raised peak RSS by a quarter (shared_problems: 33 -> 42 MiB) and did
/// not make set-up cheaper.
constexpr std::size_t kWarmWindow = 16;
constexpr double kWindowS = 0.25;
constexpr std::size_t kDirectSamples = 16;
constexpr std::size_t kReplayMaxRequests = 50'000;

Plan plan_of(Workload w) {
  switch (w) {
    // Two reactors, so that wire-cache lookups run on two CPUs at once.
    case Workload::exact_hits: return {10'000.0, 100'000.0, 10.0, 64, 2};
    case Workload::shared_problems: return {3'000.0, 4'000.0, 20.0, 32, 1};
    case Workload::fresh_solves: return {1'000.0, 2'000.0, 50.0, 16, 1};
  }
  return {};
}

double rung_rps(const Plan& plan, int rung) {
  return plan.ladder_base_rps * std::pow(kLadderRatio, rung);
}

/// Share of --seconds each serving phase gets: the open-loop reference
/// rate, one ladder probe and the closed loop.
constexpr double kReferenceShare = 0.15;
constexpr double kProbeShare = 0.02;
constexpr double kClosedShare = 0.6;
/// --trace 1 runs the same serving phases, then a traced closed loop
/// and the replay.
constexpr double kTracedClosedShare = 0.2;
constexpr double kReplayShare = 0.15;

/// The CPUs a run uses, the last ones the process may use: one per
/// reactor for all server threads, and one more for the generator. With
/// fewer CPUs the server gets fewer, and on one CPU everything shares it.
struct Cpus {
  int generator = 0;
  std::vector<int> server;
};

Cpus choose_cpus(std::size_t server_cpus) {
  const std::vector<int> cpus = usable_cpus();
  if (cpus.empty()) throw std::runtime_error("no usable CPU");
  const std::size_t n = cpus.size();
  const std::size_t k =
      std::min(server_cpus, std::max<std::size_t>(1, n - 1));
  Cpus out;
  out.server.assign(cpus.end() - static_cast<std::ptrdiff_t>(k), cpus.end());
  out.generator = n > k ? cpus[n - k - 1] : cpus.back();
  return out;
}

std::int64_t server_steal_ms(const Cpus& cpus) {
  std::int64_t total = 0;
  for (const int cpu : cpus.server) total += cpu_steal_ms(cpu);
  return total;
}

struct Options {
  Workload workload = Workload::exact_hits;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path out_dir = ".bench_build/perfbench";
  std::string commit = "unknown";
  Cpus cpus;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_serving: " << why
            << "\nusage: perfbench_serving --workload "
               "exact_hits|shared_problems|fresh_solves --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit TEXT]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value after " + std::string(arg));
    const std::string_view value = argv[++i];
    const auto number = [&](auto& out) {
      const auto [end, ec] =
          std::from_chars(value.data(), value.data() + value.size(), out);
      if (ec != std::errc() || end != value.data() + value.size())
        usage("bad value for " + std::string(arg));
    };
    if (arg == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage("unknown workload " + std::string(value));
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      number(opt.seed);
      have_seed = true;
    } else if (arg == "--seconds") {
      number(opt.seconds);
      if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0))
        usage("--seconds must be in [1, 600]");
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = std::string(value);
    } else if (arg == "--commit") {
      opt.commit = std::string(value);
    } else {
      usage("unknown argument " + std::string(arg));
    }
  }
  if (!have_workload || !have_seed || !have_seconds)
    usage("--workload, --seed and --seconds are required");
  opt.cpus = choose_cpus(plan_of(opt.workload).reactors);
  return opt;
}

/// One set-up stack: pool, server, verifier and connected generator.
struct Session {
  fs::path dir;
  Pool pool;
  std::unique_ptr<Verifier> verifier;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<LoadGen> gen;
  /// Process CPU (all threads) and wall time of the set-up, seconds.
  double setup_cpu_s = 0.0;
  double setup_wall_s = 0.0;

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() {
    gen.reset();
    stack.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

void warm_up(Session& s) {
  // Misses first, so every hit in the second wave finds its entry.
  for (const bool solves : {true, false}) {
    std::vector<Request> wave;
    for (const Request& r : s.pool.warm)
      if ((s.pool.templates[r.tmpl].expect == Expect::solve) == solves)
        wave.push_back(r);
    if (wave.empty()) continue;
    const auto frames = s.gen->round_trip(wave, kWarmWindow);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const std::string error = s.verifier->warm(wave[i], frames[i]);
      if (!error.empty())
        throw std::runtime_error("warm-up response " + std::to_string(i) +
                                 ": " + error);
    }
  }
  if (s.pool.workload == Workload::exact_hits) {
    // Resubmitted verbatim, each now answers from the fast path; these
    // are the frames every timed response must equal.
    const auto frames = s.gen->round_trip(s.pool.warm, kWarmWindow);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const std::string error =
          s.verifier->warm_hit(s.pool.warm[i].tmpl, frames[i]);
      if (!error.empty())
        throw std::runtime_error("warm-up hit " + std::to_string(i) + ": " +
                                 error);
    }
  }
}

std::unique_ptr<Session> set_up(const Options& opt, bool traced, int index,
                                SlotRing& slots) {
  const std::int64_t t0 = now_ns();
  const std::int64_t cpu0 = process_cpu_ns();
  auto s = std::make_unique<Session>();
  s->dir = opt.out_dir / "state" /
           (std::string(to_string(opt.workload)) + "-" +
            std::to_string(::getpid()) + "-" + std::to_string(index));
  fs::remove_all(s->dir);
  fs::create_directories(s->dir);
  s->pool = build_pool(opt.workload, opt.seed);
  s->verifier = std::make_unique<Verifier>(s->pool);
  // The server's threads start on, and stay on, the server CPUs; the
  // generator (this thread) then moves to its own.
  pin_thread(opt.cpus.server);
  s->stack = std::make_unique<Stack>(s->dir / "cache", traced,
                                     plan_of(opt.workload).reactors);
  pin_thread({opt.cpus.generator});
  s->gen = std::make_unique<LoadGen>(s->pool, s->stack->port(), kConnections,
                                     slots);
  warm_up(*s);
  s->gen->set_verifier(s->verifier.get());
  s->setup_wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  s->setup_cpu_s = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
  return s;
}

/// Requests per block of the blocked p99: ten samples beyond the p99.
constexpr std::size_t kP99Block = 1000;

/// p99 latency of an open-loop phase: the median, over consecutive
/// blocks of kP99Block requests (in due order), of each block's p99, so
/// that one host stall inside one block cannot move it.
double blocked_p99_ms(const PhaseResult& phase) {
  std::vector<std::size_t> order(phase.latency_ns.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return phase.latency_due_s[a] < phase.latency_due_s[b];
  });
  std::vector<double> p99s, block;
  for (std::size_t start = 0; start + kP99Block <= order.size();
       start += kP99Block) {
    block.clear();
    for (std::size_t i = start; i < start + kP99Block; ++i)
      block.push_back(phase.latency_ns[order[i]]);
    p99s.push_back(quantile(block, 0.99) / 1e6);
  }
  return median(std::move(p99s));
}

/// Mean of the windows after dropping the lowest and highest tenth: a
/// window cut short by a host stall does not move it, and unlike the
/// median it does not jump when the host alternates between a faster
/// and a slower speed.
double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

double late_p99_ms(const PhaseResult& phase) {
  return quantile(phase.late_ns, 0.99) / 1e6;
}

std::string phase_json(const PhaseResult& p) {
  JsonObject o;
  o.add("sent", static_cast<std::int64_t>(p.sent));
  o.add("ok", static_cast<std::int64_t>(p.ok));
  o.add("within_limit", static_cast<std::int64_t>(p.within_limit));
  o.add("seconds", p.seconds);
  o.add("gen_cpu_util",
        p.seconds > 0 ? static_cast<double>(p.gen_cpu_ns) / 1e9 / p.seconds
                      : 0.0);
  if (!p.late_ns.empty()) {
    o.add("late_p99_ms", late_p99_ms(p));
    o.add("backlog_at_end", static_cast<std::int64_t>(p.backlog_at_end));
  }
  if (!p.latency_ns.empty()) {
    o.add("latency_p50_ms", quantile(p.latency_ns, 0.5) / 1e6);
    o.add("latency_p99_ms", quantile(p.latency_ns, 0.99) / 1e6);
    o.add("latency_samples", static_cast<std::int64_t>(p.latency_ns.size()));
  }
  if (!p.window_counts.empty()) {
    o.add("window_median", median(p.window_counts));
    o.add("window_min", *std::min_element(p.window_counts.begin(),
                                          p.window_counts.end()));
    o.add("window_max", *std::max_element(p.window_counts.begin(),
                                          p.window_counts.end()));
    o.add("completed_in_interval",
          static_cast<std::int64_t>(p.completed_in_interval));
    const double n = static_cast<double>(std::max<std::uint64_t>(
        1, p.completed_in_interval));
    std::string windows = "[";
    for (std::size_t i = 0; i < p.window_counts.size(); ++i)
      windows += (i ? ", " : "") + json_number(p.window_counts[i]);
    o.add_raw("windows", windows + "]");
    o.add("sys_us_per_req", static_cast<double>(p.sys_ns) / 1e3 / n);
    o.add("switches_per_req", static_cast<double>(p.context_switches) / n);
    o.add("faults_per_req", static_cast<double>(p.minor_faults) / n);
  }
  if (p.aborted) o.add_bool("aborted", true);
  if (!p.errors.empty()) o.add("first_error", p.errors.front());
  return o.str();
}

/// Totals over every timed phase of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<std::string> errors;

  void add(const PhaseResult& p) {
    attempted += p.sent;
    ok += p.ok;
    for (const auto& e : p.errors)
      if (errors.size() < 8) errors.push_back(e);
  }
};

double server_cpu_us_per_req(const PhaseResult& closed) {
  if (closed.completed_in_interval == 0) return 0.0;
  return static_cast<double>(closed.process_cpu_ns - closed.gen_cpu_ns) / 1e3 /
         static_cast<double>(closed.completed_in_interval);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

using Values = std::map<std::string, double>;

/// The result object, with exactly the catalog's metrics; `values` must
/// hold each of them (and may hold more, which the run details keep).
std::string result_json(bool correct, const Tally& tally,
                        std::span<const MetricSpec> catalog,
                        const Values& values) {
  JsonObject m;
  for (const MetricSpec& spec : catalog) {
    const auto it = values.find(spec.name);
    if (it == values.end())
      throw std::logic_error(std::string("metric not measured: ") + spec.name);
    JsonObject v;
    v.add("value", it->second);
    v.add("unit", spec.unit);
    m.add_raw(spec.name, v.str());
  }
  JsonObject o;
  o.add_bool("correct", correct);
  o.add("attempted", static_cast<std::int64_t>(tally.attempted));
  o.add("failed", static_cast<std::int64_t>(tally.attempted - tally.ok));
  o.add_raw("metrics", m.str());
  return o.str();
}

/// Runs one open-loop ladder probe; returns whether it met the limit.
bool probe(Session& s, const Plan& plan, int rung, double seconds,
           Tally& tally, PhaseResult& out) {
  const double rate = rung_rps(plan, rung);
  // No growing backlog: when the send window closes, no more requests
  // in flight than the rate sustains within the limit. A backlog
  // several times that is a failure already, and ends the probe early
  // so that it stays small.
  const double allowed = rate * plan.limit_ms / 1e3 + kConnections;
  out = s.gen->open_loop(rate, seconds, plan.limit_ms,
                         static_cast<std::size_t>(kAbortFactor * allowed));
  tally.add(out);
  return !out.aborted &&
         static_cast<double>(out.within_limit) >=
             kSloShare * static_cast<double>(out.sent) &&
         static_cast<double>(out.backlog_at_end) <= allowed &&
         late_p99_ms(out) <= kLateLimitMs;
}

struct RunOutput {
  bool valid = true;
  bool correct = true;
  Tally tally;
  Values values;
  JsonObject detail;
};

void compare_samples(Session& s, RunOutput& run) {
  std::size_t checked = 0;
  for (const auto& [position, frame] : s.gen->kept()) {
    const std::string error =
        compare_with_direct_solve(s.pool, s.pool.timed_at(position), frame);
    ++checked;
    if (!error.empty()) {
      run.correct = false;
      run.tally.errors.push_back("sample " + std::to_string(position) + ": " +
                                 error);
    }
  }
  run.detail.add("direct_solve_samples", static_cast<std::int64_t>(checked));
  if (s.pool.workload == Workload::fresh_solves && checked == 0)
    run.correct = false;
}

void keep_samples(Session& s, const Options& opt, std::size_t within) {
  if (s.pool.workload != Workload::fresh_solves) return;
  medcc::util::Prng rng(opt.seed ^ 0x5eed5a3b1e5ULL);
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < kDirectSamples && within > 0; ++i)
    positions.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(within) - 1)));
  s.gen->keep_responses(std::move(positions));
}

struct Counts {
  medcc::net::Server::Counters server;
  medcc::service::MetricsRegistry::Snapshot service;
  medcc::service::WireCache::Stats wire;
  medcc::persist::DurableStore::Stats persist;
};

Counts counts_of(Session& s) {
  auto& service = s.stack->service();
  return {s.stack->server().counters(), service.metrics().snapshot(),
          service.wire_cache()->stats(), service.persist_stats()};
}

/// The serving phases of one set-up stack, in order: the open-loop
/// reference rate, the closed loop, then the rate ladder.
struct Serving {
  PhaseResult ref;
  PhaseResult closed;
  std::optional<Counts> before_closed;
  std::optional<Counts> after_closed;
};

/// Runs the serving phases on `s` and stores their metrics in `run`.
Serving serve(Session& s, const Options& opt, RunOutput& run) {
  const Plan plan = plan_of(opt.workload);
  Serving out;
  const double ref_seconds = kReferenceShare * opt.seconds;
  keep_samples(s, opt,
               static_cast<std::size_t>(plan.reference_rps * ref_seconds / 2));
  PhaseResult& ref = out.ref;
  ref = s.gen->open_loop(plan.reference_rps, ref_seconds, plan.limit_ms);
  if (late_p99_ms(ref) > kLateLimitMs) {
    // One retry: a single stall of the host should not void the run.
    run.tally.add(ref);
    run.detail.add_raw("reference_late", phase_json(ref));
    ref = s.gen->open_loop(plan.reference_rps, ref_seconds, plan.limit_ms);
  }
  run.tally.add(ref);
  if (late_p99_ms(ref) > kLateLimitMs) run.valid = false;

  out.before_closed = counts_of(s);
  PhaseResult& closed = out.closed;
  closed = s.gen->closed_loop(plan.outstanding, kClosedShare * opt.seconds,
                              kWindowS);
  out.after_closed = counts_of(s);
  run.tally.add(closed);
  // Read before the ladder: its failing probes hold a backlog by design,
  // and memory the allocator keeps afterwards says nothing about the
  // steady state.
  const double peak_rss = peak_rss_mib();

  // Binary search of the rate ladder for its highest passing rung.
  int lo = -1, hi = kRungs;
  double best_goodput = 0.0, floor_goodput = 0.0;
  std::string probes = "[";
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    // A rung fails only when two probes in a row fail: one host stall
    // must not decide it, a rate the server cannot carry fails twice.
    bool pass = false;
    double goodput = 0.0;
    for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
      PhaseResult p;
      pass = probe(s, plan, mid, kProbeShare * opt.seconds, run.tally, p);
      goodput = static_cast<double>(p.within_limit) / p.seconds;
      JsonObject o;
      o.add("rung", static_cast<std::int64_t>(mid));
      o.add("rate", rung_rps(plan, mid));
      o.add_bool("pass", pass);
      o.add_raw("phase", phase_json(p));
      probes += (probes.size() > 1 ? ", " : "") + o.str();
    }
    if (pass) {
      lo = mid;
      best_goodput = goodput;
    } else {
      hi = mid;
      if (mid == 0) floor_goodput = goodput;
    }
  }
  probes += "]";
  // Even the lowest rung failed: report what it delivered.
  const double rate_at_slo = lo >= 0 ? best_goodput : floor_goodput;
  compare_samples(s, run);

  run.values["throughput_rps"] = trimmed_mean(closed.window_counts) / kWindowS;
  run.values["latency_p50_ms"] = quantile(ref.latency_ns, 0.5) / 1e6;
  run.values["latency_p99_ms"] = blocked_p99_ms(ref);
  run.values["rate_at_slo_rps"] = rate_at_slo;
  run.values["server_cpu_us_per_req"] = server_cpu_us_per_req(closed);
  run.values["peak_rss_mb"] = peak_rss;
  run.detail.add("latency_p99_samples",
                 static_cast<std::int64_t>(ref.latency_ns.size()));
  run.detail.add("rate_at_slo_rung", static_cast<std::int64_t>(lo));
  run.detail.add_raw("reference", phase_json(ref));
  run.detail.add_raw("probes", probes);
  run.detail.add_raw("closed", phase_json(closed));
  return out;
}

RunOutput run_untraced(const Options& opt) {
  RunOutput run;
  std::vector<double> setups_cpu, setups_wall;
  SlotRing slots = make_slot_ring();
  std::unique_ptr<Session> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    s = set_up(opt, false, i, slots);
    setups_cpu.push_back(s->setup_cpu_s);
    setups_wall.push_back(s->setup_wall_s);
  }
  serve(*s, opt, run);
  // CPU time, not wall time: the kernel leaves the hypervisor's steal
  // out of it, and the wake-ups between the generator and the server,
  // which set-up waits on but does not do, do not count.
  run.values["setup_s"] = median(setups_cpu);
  const auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
      out += (i ? ", " : "") + json_number(values[i]);
    return out + "]";
  };
  run.detail.add_raw("setup_cpu_s_each", list(setups_cpu));
  run.detail.add_raw("setup_wall_s_each", list(setups_wall));
  return run;
}

RunOutput run_traced(const Options& opt) {
  RunOutput run;
  const Plan plan = plan_of(opt.workload);

  // Untraced stack: the serving metrics, generator health, counters and
  // the server CPU per request the replay is set against.
  SlotRing slots = make_slot_ring();
  auto a = set_up(opt, false, 0, slots);
  const Serving serving = serve(*a, opt, run);
  const PhaseResult& ref = serving.ref;
  const PhaseResult& closed = serving.closed;
  const Counts& before = *serving.before_closed;
  const Counts& after = *serving.after_closed;
  const Pool pool = a->pool;  // replayed below
  a.reset();
  const double cpu_untraced = server_cpu_us_per_req(closed);

  // Traced stack: the production tracer's stage aggregates.
  auto b = set_up(opt, true, 1, slots);
  medcc::obs::Tracer client_tracer;
  b->gen->set_tracer(&client_tracer);
  const auto stages0 = b->stack->tracer()->snapshot().stages;
  const PhaseResult traced = b->gen->closed_loop(
      plan.outstanding, kTracedClosedShare * opt.seconds, kWindowS);
  run.tally.add(traced);
  const auto stages1 = b->stack->tracer()->snapshot().stages;
  b.reset();
  const double cpu_traced = server_cpu_us_per_req(traced);
  const auto stage_ns = [&](medcc::obs::Stage stage) {
    const auto i = static_cast<std::size_t>(stage);
    return ratio(static_cast<double>(stages1[i].total_ns - stages0[i].total_ns),
                 static_cast<double>(stages1[i].count - stages0[i].count));
  };

  // The replay, on the benchmark's own stack.
  SpanLog log;
  const fs::path replay_dir = opt.out_dir / "state" /
                              ("replay-" + std::to_string(::getpid()));
  fs::remove_all(replay_dir);
  ReplayResult r;
  {
    r = replay(pool, replay_dir, kReplayMaxRequests,
               kReplayShare * opt.seconds, log);
  }
  fs::remove_all(replay_dir);
  fs::create_directories(opt.out_dir / "traces");
  log.write_tsv(opt.out_dir / "traces" /
                (std::string(to_string(opt.workload)) + ".spans.tsv"));
  const auto layer = [&](Layer l) {
    return r.layer_ns[static_cast<std::size_t>(l)];
  };

  const double lookups = static_cast<double>(
      (after.service.cache_hits_exact - before.service.cache_hits_exact) +
      (after.service.cache_hits_isomorphic -
       before.service.cache_hits_isomorphic) +
      (after.service.cache_misses - before.service.cache_misses));
  const auto delta = [](std::uint64_t x1, std::uint64_t x0) {
    return static_cast<double>(x1 - x0);
  };
  using medcc::obs::Stage;
  const Values layers = {
      {"service.wire_find_ns", layer(Layer::wire_find)},
      {"net.fastpath_ratio",
       ratio(delta(after.server.fastpath_hits, before.server.fastpath_hits),
             delta(after.server.frames_in, before.server.frames_in))},
      {"obs.stage.wire_fastpath_ns", stage_ns(Stage::wire_fastpath)},
      {"net.decode_ns", layer(Layer::decode)},
      {"sched.instance_build_ns", layer(Layer::instance_build)},
      {"service.fingerprint_ns", layer(Layer::fingerprint)},
      {"service.cache_find_ns", layer(Layer::cache_find)},
      {"service.remap_ns", layer(Layer::remap)},
      {"net.encode_ns", layer(Layer::encode)},
      {"service.cache_exact_ratio",
       ratio(delta(after.service.cache_hits_exact,
                   before.service.cache_hits_exact),
             lookups)},
      {"service.cache_iso_ratio",
       ratio(delta(after.service.cache_hits_isomorphic,
                   before.service.cache_hits_isomorphic),
             lookups)},
      {"sched.solve_ns.cg", layer(Layer::solve_cg)},
      {"sched.solve_ns.gain3", layer(Layer::solve_gain3)},
      {"sched.iterations", r.iterations_per_solve},
      {"dag.flatdag_build_ns", layer(Layer::flatdag_build)},
      {"dag.cpm_eval_ns", r.cpm_eval_ns},
      {"service.cache_insert_ns", layer(Layer::cache_insert)},
      {"service.wire_insert_ns", layer(Layer::wire_insert)},
      {"persist.append_ns", layer(Layer::persist_append)},
      {"persist.journal_bytes_per_insert",
       ratio(delta(after.persist.journal_bytes, before.persist.journal_bytes),
             delta(after.persist.appends, before.persist.appends))},
      {"service.cache_miss_ratio",
       ratio(delta(after.service.cache_misses, before.service.cache_misses),
             lookups)},
      {"obs.stage.queue_wait_ns", stage_ns(Stage::queue_wait)},
      {"obs.stage.decode_ns", stage_ns(Stage::decode)},
      {"obs.stage.cache_lookup_ns", stage_ns(Stage::cache_lookup)},
      {"obs.stage.solve_ns", stage_ns(Stage::solve)},
      {"obs.stage.persist_append_ns", stage_ns(Stage::persist_append)},
      {"net.request_bytes",
       ratio(static_cast<double>(closed.bytes_out),
             static_cast<double>(closed.sent))},
      {"net.response_bytes",
       ratio(static_cast<double>(closed.bytes_in),
             static_cast<double>(closed.answered))},
      {"service.wire_hit_ratio",
       ratio(delta(after.wire.hits, before.wire.hits),
             delta(after.wire.hits, before.wire.hits) +
                 delta(after.wire.misses, before.wire.misses))},
      {"gen.late_p99_ms", late_p99_ms(ref)},
      {"gen.cpu_util",
       ratio(static_cast<double>(closed.gen_cpu_ns) / 1e9, closed.seconds)},
      {"gen.latency_samples", static_cast<double>(ref.latency_ns.size())},
      {"obs.trace_overhead_pct",
       cpu_untraced > 0 ? 100.0 * (cpu_traced - cpu_untraced) / cpu_untraced
                        : 0.0},
      {"bench.unattributed_us", cpu_untraced - r.self_us_per_request},
      {"bench.replay_self_us", r.self_us_per_request},
      {"net.header_ns", layer(Layer::header)},
      {"net.frame_copy_ns", layer(Layer::frame_copy)},
  };
  run.values.insert(layers.begin(), layers.end());
  if (late_p99_ms(ref) > kLateLimitMs) run.valid = false;
  run.detail.add("replayed_requests", static_cast<std::int64_t>(r.requests));
  run.detail.add("replay_spans", static_cast<std::int64_t>(log.spans().size()));
  run.detail.add_raw("reference", phase_json(ref));
  run.detail.add_raw("closed", phase_json(closed));
  run.detail.add_raw("closed_traced", phase_json(traced));
  return run;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int run_main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  fs::create_directories(opt.out_dir / "results");
  pin_thread({opt.cpus.generator});
  const std::int64_t steal_gen0 = cpu_steal_ms(opt.cpus.generator);
  const std::int64_t steal_server0 = server_steal_ms(opt.cpus);
  const std::int64_t started = now_ns();
  std::vector<double> calib;
  for (int i = 0; i < 5; ++i) calib.push_back(calibration_loop_ns());
  const double calib_start = median(calib);

  RunOutput run = opt.trace ? run_traced(opt) : run_untraced(opt);

  std::vector<double> calib_end;
  for (int i = 0; i < 5; ++i) calib_end.push_back(calibration_loop_ns());
  calib.insert(calib.end(), calib_end.begin(), calib_end.end());
  const double calib_ns = median(calib);
  run.values["host.calib_ns"] = calib_ns;
  run.values["ok_ratio"] = ratio(static_cast<double>(run.tally.ok),
                                 static_cast<double>(run.tally.attempted));
  if (run.tally.attempted == 0 || run.tally.ok != run.tally.attempted)
    run.correct = false;

  JsonObject meta;
  meta.add("workload", to_string(opt.workload));
  meta.add("seed", static_cast<std::int64_t>(opt.seed));
  meta.add("seconds", opt.seconds);
  meta.add_bool("trace", opt.trace);
  meta.add("cores", static_cast<std::int64_t>(usable_cores()));
  meta.add("compiler", compiler());
  meta.add("build_type", PERFBENCH_BUILD_TYPE);
  meta.add("commit", opt.commit);
  meta.add("host.calib_ns", calib_ns);
  meta.add("host.calib_start_ns", calib_start);
  meta.add("host.calib_end_ns", median(calib_end));
  meta.add("cpu.generator", static_cast<std::int64_t>(opt.cpus.generator));
  std::string server_cpus = "[";
  for (std::size_t i = 0; i < opt.cpus.server.size(); ++i)
    server_cpus += (i ? ", " : "") + std::to_string(opt.cpus.server[i]);
  meta.add_raw("cpu.server", server_cpus + "]");
  // Share of the run the hypervisor kept each CPU from running.
  const double run_ms = static_cast<double>(now_ns() - started) / 1e6;
  meta.add("host.steal_pct.generator",
           100.0 * static_cast<double>(cpu_steal_ms(opt.cpus.generator) -
                                       steal_gen0) / run_ms);
  // Summed over the server CPUs: up to 100 % per CPU.
  meta.add("host.steal_pct.server",
           100.0 * static_cast<double>(server_steal_ms(opt.cpus) -
                                       steal_server0) / run_ms);
  meta.add_bool("valid", run.valid);
  meta.add_bool("correct", run.correct);
  std::string errors = "[";
  for (std::size_t i = 0; i < run.tally.errors.size(); ++i)
    errors += (i ? ", " : "") + json_escape(run.tally.errors[i]);
  meta.add_raw("errors", errors + "]");
  JsonObject all;
  for (const auto& [name, value] : run.values) all.add(name, value);
  meta.add_raw("measured", all.str());
  meta.add_raw("detail", run.detail.str());
  const std::string result = result_json(
      run.correct, run.tally,
      opt.trace ? std::span<const MetricSpec>(kPerLayer)
                : std::span<const MetricSpec>(kEndToEnd),
      run.values);
  meta.add_raw("result", result);
  std::cerr << meta.str() << std::endl;
  std::ofstream(opt.out_dir / "results" /
                (std::string(to_string(opt.workload)) + "-" +
                 std::to_string(opt.seed) + (opt.trace ? "-trace" : "") +
                 ".json"))
      << meta.str() << "\n";

  if (!run.valid) {
    // The bounded metrics do not depend on the generator's timing, so
    // the result stands; the metadata marks the latency numbers as the
    // generator's rather than the server's.
    std::cerr << "perfbench_serving: invalid latency measurement -- the "
                 "open-loop generator ran more than "
              << kLateLimitMs << " ms late at p99\n";
  }
  std::cout << result << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_serving: " << e.what() << "\n";
    return 1;
  }
}
