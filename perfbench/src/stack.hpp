// The serving stack under test: a net::Server over a
// service::SchedulingService, in this process, on loopback. Thread
// counts are fixed, never taken from the hardware: two service workers
// and the reactor count each workload names (main.cpp). The server
// threads share one CPU per reactor and the load generator has another,
// so a run keeps at most three CPUs busy whatever the host's core
// count.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "net/server.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace perfbench {

inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kCacheCapacity = 4096;
inline constexpr std::size_t kCacheShards = 8;
inline constexpr std::size_t kWireCapacity = 1024;

/// The service configuration every run uses. Persistence is on with
/// fsync off (shared-disk fsync latency cannot be measured steadily),
/// and no background snapshot runs during a run: no interval, and a
/// rotation threshold no run reaches.
[[nodiscard]] medcc::service::ServiceConfig service_config(
    const std::filesystem::path& cache_dir, medcc::obs::Tracer* tracer);

class Stack {
public:
  /// Starts service and server with `reactors` reactors; `traced`
  /// attaches a production Tracer (default configuration) to both.
  Stack(const std::filesystem::path& cache_dir, bool traced,
        std::size_t reactors);

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] medcc::service::SchedulingService& service() {
    return *service_;
  }
  [[nodiscard]] const medcc::net::Server& server() const { return *server_; }
  /// nullptr unless traced.
  [[nodiscard]] const medcc::obs::Tracer* tracer() const {
    return tracer_.get();
  }

private:
  // Destroyed bottom-up: server, then service, then the tracer both use.
  std::unique_ptr<medcc::obs::Tracer> tracer_;
  std::unique_ptr<medcc::service::SchedulingService> service_;
  std::unique_ptr<medcc::net::Server> server_;
};

}  // namespace perfbench
