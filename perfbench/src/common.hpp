// Small shared helpers of the serving benchmark: clocks, order
// statistics, the host calibration loop and a flat JSON writer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
[[nodiscard]] std::int64_t now_ns();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), ns.
[[nodiscard]] std::int64_t thread_cpu_ns();
/// Whole-process resource use (getrusage).
struct Usage {
  std::int64_t user_ns = 0;
  std::int64_t sys_ns = 0;
  std::int64_t context_switches = 0;  ///< voluntary + involuntary
  std::int64_t minor_faults = 0;
};
[[nodiscard]] Usage process_usage();
/// User + system CPU time of the whole process, ns.
[[nodiscard]] std::int64_t process_cpu_ns();
/// Peak resident set size of the process (getrusage), MiB.
[[nodiscard]] double peak_rss_mib();
/// CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> usable_cpus();
[[nodiscard]] unsigned usable_cores();
/// Binds the calling thread to `cpus`; threads it creates inherit that.
void pin_thread(const std::vector<int>& cpus);
/// Time the hypervisor ran something else while `cpu` wanted to run
/// (steal, /proc/stat), ms since boot; -1 when not available.
[[nodiscard]] std::int64_t cpu_steal_ms(int cpu);

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty
/// vector.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Times a fixed single-thread integer loop; nanoseconds per call. The
/// loop's work never changes, so its time tracks only the host.
[[nodiscard]] double calibration_loop_ns();

/// Accumulates one flat JSON object, keys in insertion order. Doubles
/// are printed with all 17 significant digits.
class JsonObject {
public:
  void add(std::string_view key, double value);
  void add(std::string_view key, std::int64_t value);
  void add(std::string_view key, std::string_view value);
  void add_bool(std::string_view key, bool value);
  /// Inserts `json` (already valid JSON) as the value.
  void add_raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string str() const;

private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

[[nodiscard]] std::string json_escape(std::string_view text);
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
