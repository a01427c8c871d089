// Bit-identity pins for bytes and hashes that outlive one process:
// canonical fingerprints (persisted in journals and snapshots, sent to
// replicas as cache keys), the encoded solve_request / solve_response /
// cache-record bytes, the other frame encoders, record-file framing and
// CRC-32 values. Every expected value below was recorded from the
// reference implementation; a rewrite of any of these layers must leave
// them untouched. When a pin fails, the test prints the line to paste --
// but pasting it is only legitimate together with a record-format (or
// protocol) version bump.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/cost_model.hpp"
#include "cloud/vm_type.hpp"
#include "net/codec.hpp"
#include "obs/trace.hpp"
#include "persist/record_file.hpp"
#include "sched/instance.hpp"
#include "service/cache.hpp"
#include "service/fingerprint.hpp"
#include "service/persistence.hpp"
#include "service/request.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/random_workflow.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::cloud::NetworkModel;
using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::sched::Instance;
using medcc::service::SchedulingRequest;
using medcc::util::Prng;
using medcc::workflow::Workflow;

// -- helpers --------------------------------------------------------------

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over the little-endian bytes of every word, in order.
std::uint64_t fnv1a_words(const std::vector<std::uint64_t>& words) {
  std::string bytes;
  for (const std::uint64_t w : words)
    for (int i = 0; i < 8; ++i)
      bytes.push_back(static_cast<char>((w >> (8 * i)) & 0xFFu));
  return fnv1a(bytes);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// -- the pinned instances -------------------------------------------------

struct Case {
  const char* name;
  std::shared_ptr<const Instance> instance;
  double budget;
  const char* solver;
  const char* config;
};

std::shared_ptr<const Instance> random_case(std::uint64_t seed,
                                            std::size_t modules,
                                            std::size_t edges,
                                            bool weighted_endpoints,
                                            double data_max,
                                            NetworkModel network) {
  Prng rng(seed);
  medcc::workflow::RandomWorkflowSpec spec;
  spec.modules = modules;
  spec.edges = edges;
  spec.data_size_max = data_max;
  spec.weighted_endpoints = weighted_endpoints;
  Workflow wf = medcc::workflow::random_workflow(spec, rng);
  VmCatalog catalog =
      medcc::cloud::random_linear_catalog(4, 12, rng, 1.0, 1.0, 0.2);
  return std::make_shared<const Instance>(Instance::from_model(
      std::move(wf), std::move(catalog),
      medcc::cloud::BillingPolicy::per_unit_time(), network));
}

std::shared_ptr<const Instance> pattern_case(Workflow wf, std::uint64_t seed) {
  Prng rng(seed);
  VmCatalog catalog =
      medcc::cloud::random_linear_catalog(5, 16, rng, 1.0, 1.0, 0.1);
  return std::make_shared<const Instance>(
      Instance::from_model(std::move(wf), std::move(catalog)));
}

// Fork of two identical branches: the labels cannot tell the branches
// apart, so the instance is not remappable. One branch ships -0.0 data,
// which must hash like +0.0.
std::shared_ptr<const Instance> symmetric_case() {
  Workflow wf;
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto a = wf.add_module("a", 40.0);
  const auto b = wf.add_module("b", 40.0);
  const auto exit = wf.add_fixed_module("exit", 1.0);
  wf.add_dependency(entry, a, 0.0);
  wf.add_dependency(entry, b, -0.0);
  wf.add_dependency(a, exit, 3.0);
  wf.add_dependency(b, exit, 3.0);
  return std::make_shared<const Instance>(Instance::from_model(
      std::move(wf), VmCatalog({VmType{"s", 3.0, 1.0}, VmType{"m", 15.0, 4.0},
                                VmType{"l", 30.0, 8.0}})));
}

// A measured-matrix instance with a billing quantum and a network model.
std::shared_ptr<const Instance> matrix_case() {
  Workflow wf = medcc::workflow::example6();
  const VmCatalog catalog = medcc::cloud::example_catalog();
  Prng rng(99);
  std::vector<std::vector<double>> times(wf.computing_module_count());
  for (auto& row : times) {
    row.resize(catalog.size());
    for (double& t : row) t = rng.uniform_real(0.5, 20.0);
  }
  NetworkModel network;
  network.bandwidth = 12.5;
  network.link_delay = 0.25;
  network.transfer_cost_rate = 0.01;
  return std::make_shared<const Instance>(
      Instance::from_matrix(std::move(wf), catalog, times,
                            medcc::cloud::BillingPolicy(0.5), network));
}

std::vector<Case> cases() {
  NetworkModel lan;
  lan.bandwidth = 100.0;
  lan.link_delay = 0.05;
  std::vector<Case> out;
  out.push_back({"random-10", random_case(1, 10, 17, true, 0.0, {}), 120.0,
                 "cg", ""});
  out.push_back({"random-30-data", random_case(7, 30, 80, true, 50.0, lan),
                 400.0, "gain3", ""});
  out.push_back({"random-fixed-ends",
                 random_case(42, 24, 60, false, 20.0, lan), 300.0, "cg",
                 "trace=1"});
  out.push_back({"random-120", random_case(1234, 120, 400, true, 10.0, {}),
                 2000.0, "cg", ""});
  {
    Prng rng(5);
    out.push_back({"montage-4",
                   pattern_case(medcc::workflow::montage_like(4, rng), 5),
                   150.0, "cg", ""});
  }
  {
    Prng rng(6);
    out.push_back({"montage-9",
                   pattern_case(medcc::workflow::montage_like(9, rng), 6),
                   500.0, "gain3", ""});
  }
  {
    Prng rng(8);
    out.push_back({"cybershake-3",
                   pattern_case(medcc::workflow::cybershake_like(3, rng), 8),
                   90.0, "cg", ""});
  }
  {
    Prng rng(9);
    out.push_back({"cybershake-8",
                   pattern_case(medcc::workflow::cybershake_like(8, rng), 9),
                   800.0, "gain3", "x"});
  }
  out.push_back({"example6-fixed",
                 std::make_shared<const Instance>(Instance::from_model(
                     medcc::workflow::example6(),
                     medcc::cloud::example_catalog())),
                 57.0, "cg", ""});
  out.push_back({"symmetric", symmetric_case(), 20.0, "cg", ""});
  out.push_back({"matrix-network", matrix_case(), 75.5, "gain3", ""});
  return out;
}

// -- fingerprints ---------------------------------------------------------

struct FingerprintPin {
  const char* name;
  std::uint64_t hi;
  std::uint64_t lo;
  std::uint64_t exact;
  std::uint64_t module_digest;  ///< fnv1a_words(module_hash)
  std::uint64_t type_digest;    ///< fnv1a_words(type_hash)
  std::size_t modules;
  std::size_t types;
  bool modules_distinct;
  bool types_distinct;
};

const FingerprintPin kFingerprintPins[] = {
    {"random-10", 0xf6083b3ae3d8e9a0, 0xb9f834b36aa38b5c,
     0xf84bb071fcb7486a, 0x279caf5f42235650, 0x4bdbaf90cfa85e62, 10, 4,
     true, true},
    {"random-30-data", 0xdab88036ee37c05e, 0xa13c056034141dc5,
     0x74168e605543df83, 0x51d10afe160a14e0, 0x207da544b50d40c0, 30, 4,
     true, true},
    {"random-fixed-ends", 0x1bab2ceacd17ba4a, 0x2eb85b0505f102e5,
     0x66693d84ce7b4688, 0x5dc81c10139cc112, 0xb0fbf3a1c58397cc, 24, 4,
     true, true},
    {"random-120", 0xa5545429b7729a9e, 0xe3b9a6acad19bbd6,
     0xabb6895af2eb32e7, 0x167ca0b5f98769b2, 0xaa7bd5eb3816938d, 120, 4,
     true, true},
    {"montage-4", 0xe52e1706c38bf777, 0xb11fcb21311326e4,
     0x18e359404f6ddabf, 0x585f2cd23bd2807a, 0xf90a7e61d310c3a2, 18, 5,
     true, true},
    {"montage-9", 0x520ab4bf58acde39, 0xac9dc7313b8f42da,
     0x4fab5602b1743a27, 0x18d39061f44c87dd, 0x9afd49a65ea2900d, 33, 5,
     true, true},
    {"cybershake-3", 0xe1232ca1103e2a7e, 0xe83ccfd538026d6c,
     0x90d1b102d57f774e, 0x592b4a84917fb7e1, 0x340cc2a0c40b7052, 13, 5,
     true, true},
    {"cybershake-8", 0x8639a9f2bb368a15, 0xda2e94e127663bc7,
     0x0b6cef4ce47ffd64, 0xbe819ed633edfb27, 0x0ef582132291cf4d, 23, 5,
     true, true},
    {"example6-fixed", 0x4e723991623d8bc9, 0x4fb6721aa5fbc8e2,
     0x7b5e776cf22a270b, 0xfcd6956f972881ba, 0x20040c00c6a5aa46, 8, 3,
     true, true},
    {"symmetric", 0xe3e1751278896472, 0x40d54d630ab30952,
     0x93918a869ff0f40f, 0x676e89df1a1aa1db, 0x20040c00c6a5aa46, 4, 3,
     false, true},
    {"matrix-network", 0xd349a00b70aa120f, 0x9941e4f3e2057a3a,
     0xfd8d5aa3b37c924f, 0xd6f939f7b1c72f46, 0x20040c00c6a5aa46, 8, 3,
     true, true},
};

TEST(GoldenBits, FingerprintsArePinned) {
  const auto all = cases();
  ASSERT_EQ(std::size(kFingerprintPins), all.size());
  for (std::size_t k = 0; k < all.size(); ++k) {
    const Case& c = all[k];
    const FingerprintPin& pin = kFingerprintPins[k];
    const auto fp = medcc::service::fingerprint_instance(
        *c.instance, c.budget, c.solver, c.config);
    const FingerprintPin actual{
        c.name,
        fp.canonical.hi,
        fp.canonical.lo,
        fp.exact,
        fnv1a_words(fp.module_hash),
        fnv1a_words(fp.type_hash),
        fp.module_hash.size(),
        fp.type_hash.size(),
        fp.modules_distinct,
        fp.types_distinct};
    SCOPED_TRACE(c.name);
    EXPECT_STREQ(pin.name, actual.name);
    EXPECT_EQ(pin.hi, actual.hi);
    EXPECT_EQ(pin.lo, actual.lo);
    EXPECT_EQ(pin.exact, actual.exact);
    EXPECT_EQ(pin.module_digest, actual.module_digest);
    EXPECT_EQ(pin.type_digest, actual.type_digest);
    EXPECT_EQ(pin.modules, actual.modules);
    EXPECT_EQ(pin.types, actual.types);
    EXPECT_EQ(pin.modules_distinct, actual.modules_distinct);
    EXPECT_EQ(pin.types_distinct, actual.types_distinct);
    EXPECT_EQ(fp.solver, c.solver);
    EXPECT_EQ(fp.module_hash.size(), c.instance->module_count());
    if (HasFailure())
      ADD_FAILURE() << "actual: {\"" << actual.name << "\", "
                    << hex(actual.hi) << ", " << hex(actual.lo) << ", "
                    << hex(actual.exact) << ", " << hex(actual.module_digest)
                    << ", " << hex(actual.type_digest) << ", "
                    << actual.modules << ", " << actual.types << ", "
                    << (actual.modules_distinct ? "true" : "false") << ", "
                    << (actual.types_distinct ? "true" : "false") << "},";
  }
}

TEST(GoldenBits, SymmetricInstanceIsNotRemappable) {
  const auto all = cases();
  for (const Case& c : all) {
    if (std::string_view(c.name) != "symmetric") continue;
    const auto fp = medcc::service::fingerprint_instance(
        *c.instance, c.budget, c.solver, c.config);
    EXPECT_FALSE(fp.modules_distinct);
    EXPECT_EQ(fp.module_hash[1], fp.module_hash[2]);
  }
}

// -- encoded bytes --------------------------------------------------------

struct BytesPin {
  const char* name;
  std::size_t size;
  std::uint64_t digest;  ///< fnv1a of the whole encoding
};

void expect_bytes_pinned(const BytesPin& pin, std::string_view name,
                         std::string_view bytes) {
  SCOPED_TRACE(std::string(name));
  EXPECT_EQ(std::string_view(pin.name), name);
  EXPECT_EQ(pin.size, bytes.size());
  EXPECT_EQ(pin.digest, fnv1a(bytes));
  if (pin.size != bytes.size() || pin.digest != fnv1a(bytes))
    ADD_FAILURE() << "actual: {\"" << name << "\", " << bytes.size() << ", "
                  << hex(fnv1a(bytes)) << "},";
}

SchedulingRequest request_of(const Case& c, std::uint64_t k) {
  SchedulingRequest request;
  request.instance = c.instance;
  request.budget = c.budget;
  request.solver = c.solver;
  request.config = c.config;
  request.tenant = k % 2 == 0 ? "" : "tenant-" + std::to_string(k);
  request.deadline_ms = k % 3 == 0 ? 0.0 : 12.5 * static_cast<double>(k);
  return request;
}

const BytesPin kSolveRequestPins[] = {
    {"random-10", 936, 0x24f9c7a4fa940ae2},
    {"random-30-data", 2915, 0x5c16c8b088765a67},
    {"random-fixed-ends", 2239, 0xc10e43af822b1c4f},
    {"random-120", 12372, 0xc3003819a4d237c0},
    {"montage-4", 1709, 0xf530b76ab7114ec8},
    {"montage-9", 3225, 0x7d19b1007e7195ad},
    {"cybershake-3", 1232, 0x90108632ce466399},
    {"cybershake-8", 2244, 0x2860ff8f0bca5ead},
    {"example6-fixed", 579, 0xaa8d3237056bcaa7},
    {"symmetric", 348, 0x284679ef94a932df},
    {"matrix-network", 582, 0x846201ddd81cd5aa},
};

TEST(GoldenBits, SolveRequestBytesArePinned) {
  const auto all = cases();
  ASSERT_EQ(std::size(kSolveRequestPins), all.size());
  for (std::size_t k = 0; k < all.size(); ++k)
    expect_bytes_pinned(kSolveRequestPins[k], all[k].name,
                        medcc::net::encode_solve_request(
                            request_of(all[k], k), 0x1000 + k));
}

medcc::service::SchedulingResponse response_of(std::uint64_t seed,
                                               std::size_t modules) {
  Prng rng(seed);
  medcc::service::SchedulingResponse response;
  response.status = seed % 3 == 2 ? medcc::service::ResponseStatus::failed
                                  : medcc::service::ResponseStatus::ok;
  response.reject_reason = medcc::service::RejectReason::none;
  response.cache = static_cast<medcc::service::CacheOutcome>(seed % 4);
  response.solver = seed % 2 == 0 ? "cg" : "gain3";
  response.error = response.ok() ? "" : "budget below the least cost";
  response.result.iterations =
      static_cast<std::size_t>(rng.uniform_int(0, 500));
  response.result.eval.med = rng.uniform_real(1.0, 100.0);
  response.result.eval.cost = rng.uniform_real(1.0, 100.0);
  response.queue_delay_ms = rng.uniform_real(0.0, 3.0);
  response.solve_ms = rng.uniform_real(0.0, 9.0);
  response.result.schedule.type_of.resize(modules);
  for (std::size_t& t : response.result.schedule.type_of)
    t = static_cast<std::size_t>(rng.uniform_int(0, 6));
  return response;
}

const BytesPin kSolveResponsePins[] = {
    {"response-0", 81, 0xea5bbac052fe08ca},
    {"response-1", 109, 0xbc130027df90dd5c},
    {"response-2", 113, 0x8367099b42cbaab1},
    {"response-3", 210, 0xf02e87b266c555f2},
    {"response-4", 1108, 0x52de762a1ecdd2fb},
};

TEST(GoldenBits, SolveResponseBytesArePinned) {
  const std::size_t sizes[] = {0, 1, 8, 33, 250};
  ASSERT_EQ(std::size(kSolveResponsePins), std::size(sizes));
  for (std::size_t k = 0; k < std::size(sizes); ++k)
    expect_bytes_pinned(
        kSolveResponsePins[k], "response-" + std::to_string(k),
        medcc::net::encode_solve_response(response_of(k + 1, sizes[k]),
                                          0xABCDEF00 + k));
}

medcc::service::CacheEntry entry_of(std::uint64_t seed, std::size_t modules) {
  Prng rng(seed);
  medcc::service::CacheEntry entry;
  entry.key.hi = rng();
  entry.key.lo = rng();
  entry.exact = rng();
  entry.solver = seed % 2 == 0 ? "cg" : "gain3";
  entry.remappable = seed % 3 != 0;
  entry.hits = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
  entry.iterations = static_cast<std::size_t>(rng.uniform_int(0, 300));
  entry.med = rng.uniform_real(0.0, 50.0);
  entry.cost = rng.uniform_real(0.0, 50.0);
  entry.schedule.type_of.resize(modules);
  for (std::size_t& t : entry.schedule.type_of)
    t = static_cast<std::size_t>(rng.uniform_int(0, 4));
  // The draws that filled version 1's CPM timing block (est, eft, lst,
  // lft, buffer, the critical flags, the makespan), kept so every other
  // field still matches the v1 fixtures below.
  for (std::size_t i = 0; i < 5 * modules; ++i)
    (void)rng.uniform_real(-1.0, 40.0);
  for (std::size_t i = 0; i < modules; ++i) (void)rng();
  (void)rng.uniform_real(0.0, 50.0);
  for (std::size_t i = 0; i < modules; ++i)
    entry.assignment.emplace_back(rng(), rng());
  return entry;
}

// Cache-record version 3. The version-1 and version-2 bytes these pins
// held are the cache_v1_record_* and cache_v2_record_* fixtures below.
const BytesPin kCacheRecordPins[] = {
    {"record-0", 76, 0x3ea5b336d187330b},
    {"record-1", 97, 0x32dd6a7e518cefa0},
    {"record-2", 244, 0x3e2777783b4ca886},
    {"record-3", 1609, 0xfd75e276e291a4a2},
    {"record-4", 7276, 0x550c71c675eddd25},
};

TEST(GoldenBits, CacheRecordBytesArePinned) {
  const std::size_t sizes[] = {0, 1, 7, 64, 300};
  ASSERT_EQ(std::size(kCacheRecordPins), std::size(sizes));
  for (std::size_t k = 0; k < std::size(sizes); ++k) {
    const auto entry = entry_of(k + 11, sizes[k]);
    const std::string payload = medcc::service::encode_cache_record(entry);
    expect_bytes_pinned(kCacheRecordPins[k], "record-" + std::to_string(k),
                        payload);
    EXPECT_EQ(medcc::service::cache_record_version(payload),
              medcc::service::kCacheRecordVersion);
    EXPECT_EQ(medcc::service::encode_cache_record(
                  medcc::service::decode_cache_record(payload)),
              payload);
  }
}

// The remaining encoders and the record-file framing, one digest each.
const BytesPin kOtherFramePins[] = {
    {"traced_solve_request", 2932, 0xc8faadee2fe28545},
    {"stats_request", 21, 0x2afbe43991d90cc1},
    {"stats_response", 43, 0xf740ae9d4e98b4dd},
    {"error", 40, 0x1888837e43712142},
    {"hello_request", 36, 0x7bf6ccacc255c03d},
    {"hello_response", 36, 0x430a9d6338b91635},
    {"repl_insert", 316, 0xed47ef8514268c30},
    {"repl_insert_traced", 333, 0x2a1a8e61b7fe9233},
    {"repl_ack", 30, 0x11e788136b7657c3},
    {"cluster_status_request", 20, 0x5f511f27744da0c1},
    {"cluster_status_response", 191, 0x73625cb9e50fe0bb},
    {"trace_dump_request", 24, 0x8b1f6eaf5d7380dc},
    {"trace_dump_response", 328, 0x66139a84e76bb65b},
    {"frame", 34, 0x6796acbe2ee104f1},
    {"record_file", 327, 0xf482edba3837203b},
};

TEST(GoldenBits, OtherEncodingsArePinned) {
  const auto all = cases();
  medcc::obs::TraceContext trace;
  trace.id.hi = 0x0123456789abcdefULL;
  trace.id.lo = 0xfedcba9876543210ULL;
  trace.sampled = true;

  medcc::net::Hello hello;
  hello.features = medcc::net::kFeatureReplication |
                   medcc::net::kFeatureTracing;
  hello.node_id = "node-a";

  medcc::net::ClusterStatus status;
  status.node_id = "node-b";
  status.repl_applied = 17;
  status.repl_apply_errors = 2;
  status.peers.push_back({"10.0.0.1:7000", "connected", 2, 3, 4, 5, 6, 7});
  status.peers.push_back({"10.0.0.2:7000", "down", 0, 0, 9, 9, 1, 0});

  medcc::net::TraceDump dump;
  dump.node_id = "node-c";
  dump.enabled = true;
  dump.started = 10;
  dump.sampled = 4;
  dump.completed = 3;
  dump.dropped = 1;
  for (std::size_t s = 0; s < dump.stages.size(); ++s)
    dump.stages[s] = medcc::obs::StageStat{s + 1, 1000 * (s + 1)};
  medcc::obs::TraceRecord record;
  record.id = trace.id;
  record.origin = "client";
  record.started_ns = 123456789;
  record.total_ns = 4242;
  record.slow = true;
  record.spans.push_back({medcc::obs::Stage::decode, 10, 20});
  record.spans.push_back({medcc::obs::Stage::solve, 20, 4000});
  dump.traces.push_back(record);

  const std::string payload =
      medcc::service::encode_cache_record(entry_of(5, 9));

  const std::pair<const char*, std::string> encodings[] = {
      {"traced_solve_request",
       medcc::net::encode_traced_solve_request(request_of(all[1], 1), trace,
                                               77)},
      {"stats_request",
       medcc::net::encode_stats_request(medcc::net::StatsFormat::csv, 3)},
      {"stats_response",
       medcc::net::encode_stats_response("requests 12\nhits 7\n", 4)},
      {"error", medcc::net::encode_error(medcc::net::WireError::bad_body,
                                         "no such solver", 5)},
      {"hello_request", medcc::net::encode_hello_request(hello, 6)},
      {"hello_response", medcc::net::encode_hello_response(hello, 7)},
      {"repl_insert", medcc::net::encode_repl_insert(payload, 8)},
      {"repl_insert_traced", medcc::net::encode_repl_insert(payload, 9, trace)},
      {"repl_ack", medcc::net::encode_repl_ack({false, "stale"}, 10)},
      {"cluster_status_request",
       medcc::net::encode_cluster_status_request(11)},
      {"cluster_status_response",
       medcc::net::encode_cluster_status_response(status, 12)},
      {"trace_dump_request", medcc::net::encode_trace_dump_request(64, 13)},
      {"trace_dump_response",
       medcc::net::encode_trace_dump_response(dump, 14)},
      {"frame", medcc::net::encode_frame(medcc::net::FrameType::repl_ack, 15,
                                         "raw body bytes")},
      {"record_file",
       medcc::persist::encode_record_file(medcc::persist::kJournalMagic,
                                          {payload, "", "xyz"})},
  };
  ASSERT_EQ(std::size(kOtherFramePins), std::size(encodings));
  for (std::size_t k = 0; k < std::size(encodings); ++k)
    expect_bytes_pinned(kOtherFramePins[k], encodings[k].first,
                        encodings[k].second);
}

// -- frozen older cache records ------------------------------------------
//
// tests/golden/cache_v1_* and cache_v2_* are bytes written by the
// version-1 and version-2 cache-record encoders: the five records, the
// repl_insert payload and the record_file journal behind the pins above
// in each version (version 1 still carried the CPM timing detail), and
// a journal of four real solves (the paper's example workflow on its
// example catalog: cg, gain3 and genetic at B = 57, cg at B = 48). Their
// keys are fingerprints from before version 3, which no lookup can
// match any more, so every build since rejects them: decode throws,
// warm start and replication count and skip them, medcc_cachectl
// compact drops them (tools/cachectl_smoke.sh). The bytes never change.

std::string golden_bytes(std::string_view name) {
  const auto path =
      std::filesystem::path(__FILE__).parent_path() / "golden" / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

const BytesPin kOlderFixtures[] = {
    {"cache_v1_record_0.bin", 112, 0x01c8106d3155ba29},
    {"cache_v1_record_1.bin", 182, 0x5b5fa2c904027d26},
    {"cache_v1_record_2.bin", 599, 0x04075cd67f89036c},
    {"cache_v1_record_3.bin", 4525, 0xd05b8170d3aca751},
    {"cache_v1_record_4.bin", 20812, 0x50d85e989723c16b},
    {"cache_v1_repl_payload.bin", 737, 0x7dc27195a1248671},
    {"cache_v1_record_file.mdjl", 772, 0xf28d24351ccdd7f8},
    {"cache_v1_solves.mdjl", 2724, 0xb9db56b29abc4c81},
    {"cache_v2_record_0.bin", 76, 0xb91f1e7fcb7b150a},
    {"cache_v2_record_1.bin", 97, 0x09a6348ed4ba2987},
    {"cache_v2_record_2.bin", 244, 0xcd5fc497a3dbd557},
    {"cache_v2_record_3.bin", 1609, 0xb31ddc83a0907225},
    {"cache_v2_record_4.bin", 7276, 0xdeb6269fa053528c},
    {"cache_v2_repl_payload.bin", 292, 0xd14ce11853fcb3c8},
    {"cache_v2_record_file.mdjl", 327, 0xfd0f5f380bd26889},
    {"cache_v2_solves.mdjl", 1108, 0x4d7ac2db1bfb5b87},
};

/// Decoding `payload` throws a PersistError that names `version`.
void expect_rejected(std::string_view payload, int version) {
  try {
    (void)medcc::service::decode_cache_record(payload);
    ADD_FAILURE() << "version " << version << " record decoded";
  } catch (const medcc::persist::PersistError& e) {
    EXPECT_NE(std::string_view(e.what()).find(
                  "unsupported payload version " + std::to_string(version)),
              std::string_view::npos)
        << e.what();
  }
}

TEST(GoldenBits, OlderCacheRecordFixturesArePinnedAndRejected) {
  for (const BytesPin& pin : kOlderFixtures)
    expect_bytes_pinned(pin, pin.name, golden_bytes(pin.name));

  for (const int version : {1, 2}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string prefix = "cache_v" + std::to_string(version) + "_";
    for (std::size_t k = 0; k < 5; ++k) {
      SCOPED_TRACE("record " + std::to_string(k));
      const std::string record =
          golden_bytes(prefix + "record_" + std::to_string(k) + ".bin");
      EXPECT_EQ(medcc::service::cache_record_version(record), version);
      expect_rejected(record, version);
    }

    // The payload behind that version's repl_insert pin ...
    const std::string payload = golden_bytes(prefix + "repl_payload.bin");
    expect_rejected(payload, version);

    // ... and the journal behind its record_file pin: the payload, then
    // two records no version decodes.
    const auto read = medcc::persist::read_record_file(
        std::filesystem::path(__FILE__).parent_path() / "golden" /
            (prefix + "record_file.mdjl"),
        medcc::persist::kJournalMagic);
    ASSERT_EQ(read.payloads.size(), 3u);
    EXPECT_FALSE(read.truncated);
    EXPECT_EQ(read.payloads[0], payload);
    EXPECT_THROW((void)medcc::service::decode_cache_record(read.payloads[1]),
                 medcc::persist::PersistError);
    EXPECT_THROW((void)medcc::service::decode_cache_record(read.payloads[2]),
                 medcc::persist::PersistError);

    // The four real solves.
    const auto solves = medcc::persist::read_record_file(
        std::filesystem::path(__FILE__).parent_path() / "golden" /
            (prefix + "solves.mdjl"),
        medcc::persist::kJournalMagic);
    ASSERT_EQ(solves.payloads.size(), 4u);
    for (const std::string& record : solves.payloads)
      expect_rejected(record, version);
  }
  // The repl_insert framing of the version-1 payload, as pinned then.
  expect_bytes_pinned({"repl_insert", 761, 0x0084a48b07453086}, "repl_insert",
                      medcc::net::encode_repl_insert(
                          golden_bytes("cache_v1_repl_payload.bin"), 8));
}

// -- CRC-32 ---------------------------------------------------------------

TEST(GoldenBits, Crc32CheckValue) {
  EXPECT_EQ(medcc::util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(medcc::util::crc32(""), 0u);
}

// Lengths 0..17 from a nonzero seed cross every 8-byte boundary twice.
const std::uint32_t kCrcBySeededLength[18] = {
    0xdeadbeef, 0x8e6f2837, 0x2958ccc0, 0x7497e026, 0x3b15dd58, 0x908b623c,
    0xdd929ddb, 0xf7b0afb0, 0xcd2fdc4c, 0x77c5753a, 0x2f17d382, 0x72271a26,
    0xbe765d7a, 0xbf617d3b, 0xadd7834b, 0x99abec49, 0xe6f59d9d, 0xf88b3184,
};

TEST(GoldenBits, Crc32SeededLengthsArePinned) {
  const std::string text = "The quick brown fox jumps over the lazy dog";
  for (std::size_t len = 0; len < std::size(kCrcBySeededLength); ++len) {
    const std::uint32_t crc =
        medcc::util::crc32(std::string_view(text).substr(0, len), 0xDEADBEEFu);
    EXPECT_EQ(crc, kCrcBySeededLength[len]) << "len " << len;
  }
}

TEST(GoldenBits, Crc32LongAndUnalignedBuffers) {
  std::string bytes(4099, '\0');
  Prng rng(0xC3C);
  for (char& c : bytes) c = static_cast<char>(rng.uniform_int(0, 255));
  const std::string_view all(bytes);
  EXPECT_EQ(medcc::util::crc32(all), 0x5fe14918u);
  EXPECT_EQ(medcc::util::crc32(all.substr(3, 1001)), 0x57733dbeu);
  // Incremental use threads the previous value back in as the seed.
  for (const std::size_t cut : {0u, 1u, 7u, 8u, 9u, 1000u, 4099u})
    EXPECT_EQ(medcc::util::crc32(all.substr(cut),
                                 medcc::util::crc32(all.substr(0, cut))),
              medcc::util::crc32(all))
        << "cut " << cut;
}

}  // namespace
