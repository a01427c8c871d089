#include "stack.hpp"

namespace perfbench {

medcc::service::ServiceConfig service_config(
    const std::filesystem::path& cache_dir, medcc::obs::Tracer* tracer) {
  medcc::service::ServiceConfig config;
  config.threads = kWorkers;
  // Overload shows as latency, never as rejections: the open-loop
  // ladder's overloaded probes must not fail requests.
  config.queue_capacity = 1u << 20;
  config.cache_capacity = kCacheCapacity;
  config.cache_shards = kCacheShards;
  config.wire_cache_capacity = kWireCapacity;
  config.cache_dir = cache_dir.string();
  config.snapshot_interval_s = 0.0;
  config.journal_rotate_bytes = std::size_t{1} << 40;
  config.persist_fsync = false;
  config.tracer = tracer;
  return config;
}

Stack::Stack(const std::filesystem::path& cache_dir, bool traced,
             std::size_t reactors) {
  if (traced) tracer_ = std::make_unique<medcc::obs::Tracer>();
  service_ = std::make_unique<medcc::service::SchedulingService>(
      service_config(cache_dir, tracer_.get()));
  medcc::net::ServerConfig config;
  config.io_threads = reactors;
  config.tracer = tracer_.get();
  server_ = std::make_unique<medcc::net::Server>(*service_, config);
}

}  // namespace perfbench
