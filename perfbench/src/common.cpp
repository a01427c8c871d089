#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t timeval_ns(const timeval& tv) {
  return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
         static_cast<std::int64_t>(tv.tv_usec) * 1'000;
}

}  // namespace

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

Usage process_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {timeval_ns(usage.ru_utime), timeval_ns(usage.ru_stime),
          usage.ru_nvcsw + usage.ru_nivcsw, usage.ru_minflt};
}

std::int64_t process_cpu_ns() {
  const Usage usage = process_usage();
  return usage.user_ns + usage.sys_ns;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

unsigned usable_cores() {
  return static_cast<unsigned>(usable_cpus().size());
}

void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    throw std::runtime_error("cannot bind to CPU " +
                             std::to_string(cpus.front()));
}

std::int64_t cpu_steal_ms(int cpu) {
  std::ifstream stat("/proc/stat");
  const std::string want = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(stat, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name != want) continue;
    // user nice system idle iowait irq softirq steal, in clock ticks.
    std::int64_t v[8] = {};
    for (auto& x : v) fields >> x;
    if (!fields) return -1;
    return v[7] * 1000 / sysconf(_SC_CLK_TCK);
  }
  return -1;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double calibration_loop_ns() {
  const std::int64_t start = thread_cpu_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 0xbf58476d1ce4e5b9ULL;
  }
  const std::int64_t elapsed = thread_cpu_ns() - start;
  // Keep the loop observable so it cannot be folded away.
  volatile std::uint64_t sink = acc;
  (void)sink;
  return static_cast<double>(elapsed);
}

std::string json_escape(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void JsonObject::add(std::string_view key, double value) {
  fields_.emplace_back(std::string(key), json_number(value));
}

void JsonObject::add(std::string_view key, std::int64_t value) {
  fields_.emplace_back(std::string(key), std::to_string(value));
}

void JsonObject::add(std::string_view key, std::string_view value) {
  fields_.emplace_back(std::string(key), json_escape(value));
}

void JsonObject::add_bool(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), value ? "true" : "false");
}

void JsonObject::add_raw(std::string_view key, std::string_view json) {
  fields_.emplace_back(std::string(key), std::string(json));
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_escape(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

}  // namespace perfbench
