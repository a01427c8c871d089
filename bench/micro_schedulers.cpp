// Ablation A5: scheduler micro-benchmarks. Two modes:
//
//  * default: the google-benchmark suite below (runtime scaling of CPM,
//    Critical-Greedy, GAIN3, the simulator, instance generation and the
//    parallel budget sweep);
//  * --smoke / --json <path>: a hand-timed suite comparing the legacy
//    dag::makespan fitness path against the allocation-free CPM kernel
//    (dag/cpm_kernel.hpp) on a genetic-style evaluation batch, plus
//    wall-clock solve times per scheduler. --json writes the numbers as a
//    machine-readable report (uploaded as a CI artifact); --smoke shrinks
//    the workload so the binary doubles as a ctest check, and fails if the
//    kernel is not at least 3x faster than the legacy path (the median
//    ratio over alternating rounds timed in thread CPU time).
#include <benchmark/benchmark.h>

#include <chrono>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "dag/cpm_kernel.hpp"
#include "expr/compare.hpp"
#include "sched/annealing.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/gain_loss.hpp"
#include "sched/genetic.hpp"
#include "sim/executor.hpp"
#include "util/stats.hpp"

namespace {

medcc::sched::Instance instance_for(std::size_t m) {
  medcc::util::Prng rng(m * 2654435761u + 17);
  // Density and catalog size scale like the paper's Table IV settings.
  const std::size_t edges = m * (m - 1) / 4;
  const std::size_t types = 3 + m / 16;
  return medcc::expr::make_instance({m, edges, types}, rng);
}

void BM_Cpm(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto least = medcc::sched::least_cost_schedule(inst);
  const auto weights = medcc::sched::durations(inst, least);
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::dag::compute_cpm(
        inst.workflow().graph(), weights, inst.edge_times()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Cpm)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_CpmKernel(benchmark::State& state) {
  // The same forward+backward evaluation through the reusable workspace:
  // no validation, no topo recompute, no per-call allocation.
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto least = medcc::sched::least_cost_schedule(inst);
  const auto weights = medcc::sched::durations(inst, least);
  medcc::dag::CpmWorkspace ws;
  for (auto _ : state) {
    medcc::dag::cpm_into(inst.flat_dag(), weights, ws);
    benchmark::DoNotOptimize(ws.makespan);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CpmKernel)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_CriticalGreedy(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto bounds = medcc::sched::cost_bounds(inst);
  const double budget = 0.5 * (bounds.cmin + bounds.cmax);
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::sched::critical_greedy(inst, budget));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CriticalGreedy)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_Gain3(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto bounds = medcc::sched::cost_bounds(inst);
  const double budget = 0.5 * (bounds.cmin + bounds.cmax);
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::sched::gain3(inst, budget));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gain3)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_Simulate(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto bounds = medcc::sched::cost_bounds(inst);
  const auto r = medcc::sched::critical_greedy(
      inst, 0.5 * (bounds.cmin + bounds.cmax));
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::sim::execute(inst, r.schedule));
  }
}
BENCHMARK(BM_Simulate)->RangeMultiplier(4)->Range(16, 256);

void BM_InstanceGeneration(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  medcc::util::Prng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        medcc::expr::make_instance({m, m * (m - 1) / 4, 5}, rng));
  }
}
BENCHMARK(BM_InstanceGeneration)->RangeMultiplier(4)->Range(16, 1024);

void BM_BudgetSweep20Levels(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::expr::sweep_budgets(inst, 20));
  }
}
BENCHMARK(BM_BudgetSweep20Levels)->Arg(50)->Arg(100);

// ---------------------------------------------------------------------------
// Hand-timed mode (--smoke / --json)
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// CPU time the calling thread has run, in seconds. Unlike the wall
/// clock it stands still while the thread waits for a core, so a busy
/// host cannot stretch one side of a ratio.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct FitnessReport {
  std::size_t modules = 0;
  std::size_t edges = 0;
  std::size_t batch = 0;
  std::size_t reps = 0;
  std::size_t rounds = 0;
  /// The seed's fitness path: durations() + a full compute_cpm per eval
  /// (dag::makespan delegated to compute_cpm before this optimisation).
  double legacy_us_per_eval = 0.0;
  /// The current forward-only dag::makespan (memoized topo order, no
  /// CpmResult) -- already part of this optimisation's satellite work.
  double makespan_us_per_eval = 0.0;
  double kernel_us_per_eval = 0.0;
  /// Medians over the rounds of each round's time ratio.
  double speedup = 0.0;           ///< legacy (seed) vs kernel
  double speedup_makespan = 0.0;  ///< current dag::makespan vs kernel
};

/// Times a genetic-style fitness batch -- makespan of many random
/// schedules on one instance -- through the seed's legacy path (durations()
/// + compute_cpm, which validates, recomputes slack vectors and allocates
/// per call), the current forward-only dag::makespan, and the CPM kernel
/// (weights refilled into a reusable workspace, forward pass only, zero
/// allocations). All three must agree bitwise.
///
/// Each of `rounds` rounds runs `reps` passes over the batch on every
/// path, timed in thread CPU time; successive rounds reverse the order of
/// the paths, and the speedups are the median per-round ratios, so a
/// burst of load on the host moves a round, not the result.
FitnessReport time_fitness_batch(const medcc::sched::Instance& inst,
                                 std::size_t batch, std::size_t reps,
                                 std::size_t rounds) {
  FitnessReport report;
  report.modules = inst.module_count();
  report.edges = inst.workflow().graph().edge_count();
  report.batch = batch;
  report.reps = reps;
  report.rounds = rounds;

  medcc::util::Prng rng(99);
  std::vector<medcc::sched::Schedule> schedules(batch);
  for (auto& s : schedules) {
    s.type_of.resize(inst.module_count());
    for (std::size_t i = 0; i < inst.module_count(); ++i)
      s.type_of[i] = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(inst.type_count()) - 1));
  }

  const auto& graph = inst.workflow().graph();
  const auto legacy = [&] {
    double sum = 0.0;
    for (std::size_t r = 0; r < reps; ++r)
      for (const auto& s : schedules)
        sum += medcc::dag::compute_cpm(graph,
                                       medcc::sched::durations(inst, s),
                                       inst.edge_times())
                   .makespan;
    return sum;
  };
  const auto forward = [&] {
    double sum = 0.0;
    for (std::size_t r = 0; r < reps; ++r)
      for (const auto& s : schedules)
        sum += medcc::dag::makespan(graph, medcc::sched::durations(inst, s),
                                    inst.edge_times());
    return sum;
  };
  const auto& flat = inst.flat_dag();
  medcc::dag::CpmWorkspace ws;
  ws.prepare(flat.node_count());
  const auto kernel = [&] {
    double sum = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& s : schedules) {
        for (std::size_t i = 0; i < inst.module_count(); ++i)
          ws.weights[i] = inst.time(i, s.type_of[i]);
        sum += medcc::dag::makespan_into(flat, ws);
      }
    }
    return sum;
  };

  /// One path's pass: its checksum and thread CPU seconds.
  struct Pass {
    double sum = 0.0;
    double seconds = 0.0;
  };
  const auto timed = [](const auto& pass) {
    const double start = thread_cpu_seconds();
    const double sum = pass();
    return Pass{sum, thread_cpu_seconds() - start};
  };
  std::vector<double> speedup;
  std::vector<double> speedup_makespan;
  double legacy_seconds = 0.0;
  double makespan_seconds = 0.0;
  double kernel_seconds = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    Pass l, f, k;
    if (round % 2 == 0) {
      l = timed(legacy);
      f = timed(forward);
      k = timed(kernel);
    } else {
      k = timed(kernel);
      f = timed(forward);
      l = timed(legacy);
    }
    if (l.sum != k.sum || f.sum != k.sum) {
      std::cerr << "FAIL: kernel fitness diverged from the legacy path ("
                << k.sum << " vs " << l.sum << " / " << f.sum << ")\n";
      std::exit(1);
    }
    legacy_seconds += l.seconds;
    makespan_seconds += f.seconds;
    kernel_seconds += k.seconds;
    if (k.seconds > 0.0) {
      speedup.push_back(l.seconds / k.seconds);
      speedup_makespan.push_back(f.seconds / k.seconds);
    }
  }
  const double evals = static_cast<double>(batch * reps * rounds);
  report.legacy_us_per_eval = legacy_seconds / evals * 1e6;
  report.makespan_us_per_eval = makespan_seconds / evals * 1e6;
  report.kernel_us_per_eval = kernel_seconds / evals * 1e6;
  if (!speedup.empty()) {
    report.speedup = medcc::util::median(speedup);
    report.speedup_makespan = medcc::util::median(speedup_makespan);
  }
  return report;
}

struct SolverReport {
  double critical_greedy_ms = 0.0;
  double genetic_ms = 0.0;
  double annealing_ms = 0.0;
};

SolverReport time_solvers(const medcc::sched::Instance& inst, bool smoke) {
  const auto bounds = medcc::sched::cost_bounds(inst);
  const double budget = 0.5 * (bounds.cmin + bounds.cmax);
  SolverReport report;
  {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(medcc::sched::critical_greedy(inst, budget));
    report.critical_greedy_ms = seconds_since(start) * 1e3;
  }
  {
    medcc::sched::GeneticOptions opts;
    if (smoke) {
      opts.population = 16;
      opts.generations = 10;
    }
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(medcc::sched::genetic(inst, budget, opts));
    report.genetic_ms = seconds_since(start) * 1e3;
  }
  {
    medcc::sched::AnnealingOptions opts;
    if (smoke) opts.iterations = 500;
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(medcc::sched::annealing(inst, budget, opts));
    report.annealing_ms = seconds_since(start) * 1e3;
  }
  return report;
}

void write_json(const std::string& path, bool smoke,
                const FitnessReport& fitness, const SolverReport& solvers) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n"
      << "  \"bench\": \"micro_schedulers\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"fitness\": {\n"
      << "    \"modules\": " << fitness.modules << ",\n"
      << "    \"edges\": " << fitness.edges << ",\n"
      << "    \"batch\": " << fitness.batch << ",\n"
      << "    \"reps\": " << fitness.reps << ",\n"
      << "    \"rounds\": " << fitness.rounds << ",\n"
      << "    \"legacy_us_per_eval\": " << fitness.legacy_us_per_eval << ",\n"
      << "    \"makespan_us_per_eval\": " << fitness.makespan_us_per_eval
      << ",\n"
      << "    \"kernel_us_per_eval\": " << fitness.kernel_us_per_eval << ",\n"
      << "    \"speedup\": " << fitness.speedup << ",\n"
      << "    \"speedup_vs_forward_only\": " << fitness.speedup_makespan
      << "\n"
      << "  },\n"
      << "  \"solvers\": {\n"
      << "    \"critical_greedy_ms\": " << solvers.critical_greedy_ms << ",\n"
      << "    \"genetic_ms\": " << solvers.genetic_ms << ",\n"
      << "    \"annealing_ms\": " << solvers.annealing_ms << "\n"
      << "  }\n"
      << "}\n";
}

/// Alternating rounds per fitness comparison (median ratio gated).
constexpr std::size_t kFitnessRounds = 7;

int run_handtimed(const std::string& json_path, bool smoke) {
  const std::size_t modules = smoke ? 100 : 400;
  const std::size_t batch = smoke ? 32 : 64;
  const std::size_t reps = smoke ? 20 : 50;
  const auto inst = instance_for(modules);

  // Warm-up rep so lazy one-time costs (page faults, topo memoization)
  // hit neither side of the comparison.
  (void)time_fitness_batch(inst, batch, 1, 1);
  const auto fitness = time_fitness_batch(inst, batch, reps, kFitnessRounds);
  const auto solvers = time_solvers(inst, smoke);

  std::cout << "fitness batch (m=" << fitness.modules
            << ", |Ew|=" << fitness.edges << ", " << fitness.batch << "x"
            << fitness.reps << " evals, " << fitness.rounds
            << " rounds, thread CPU time):\n"
            << "  legacy compute_cpm     : " << fitness.legacy_us_per_eval
            << " us/eval (the seed's fitness path)\n"
            << "  forward-only makespan  : " << fitness.makespan_us_per_eval
            << " us/eval\n"
            << "  cpm kernel             : " << fitness.kernel_us_per_eval
            << " us/eval\n"
            << "  speedup vs legacy      : " << fitness.speedup
            << "x (median round)\n"
            << "  speedup vs fwd-only    : " << fitness.speedup_makespan
            << "x (median round)\n"
            << "solve times: cg=" << solvers.critical_greedy_ms
            << " ms, genetic=" << solvers.genetic_ms
            << " ms, annealing=" << solvers.annealing_ms << " ms\n";

  if (!json_path.empty()) write_json(json_path, smoke, fitness, solvers);

  if (smoke && fitness.speedup < 3.0) {
    std::cerr << "FAIL: kernel speedup " << fitness.speedup
              << "x below the 3x acceptance target\n";
    return 1;
  }
  std::cout << (smoke ? "smoke OK\n" : "OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "missing value after --json\n";
        return 2;
      }
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (smoke || !json_path.empty()) return run_handtimed(json_path, smoke);

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
