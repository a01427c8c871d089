// Durable-cache warm start through the SchedulingService: restart the
// service on the same directory and the warmed cache must answer
// byte-identically to the live solves that produced it, tolerate a
// journal torn by SIGKILL, and skip (not misread) records from an older
// or a newer build.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/vm_type.hpp"
#include "dag/critical_path.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "persist/record_file.hpp"
#include "persist/wire.hpp"
#include "sched/instance.hpp"
#include "sched/solver_registry.hpp"
#include "service/cache.hpp"
#include "service/fingerprint.hpp"
#include "service/persistence.hpp"
#include "util/atomic_file.hpp"
#include "workflow/patterns.hpp"
#include "workflow/workflow.hpp"

namespace {

namespace fs = std::filesystem;

using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::sched::Instance;
using medcc::service::CacheEntry;
using medcc::service::CacheOutcome;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;
using medcc::service::SchedulingService;
using medcc::service::ServiceConfig;
using medcc::workflow::Workflow;

VmCatalog catalog() {
  return VmCatalog({VmType{"small", 3.0, 1.0}, VmType{"medium", 15.0, 4.0},
                    VmType{"large", 30.0, 8.0}});
}

// The paper's Fig. 2 example (entry, w1..w6, exit).
std::shared_ptr<const Instance> example_instance() {
  return std::make_shared<const Instance>(
      Instance::from_model(medcc::workflow::example6(), catalog()));
}

// An asymmetric diamond and its module/catalog-permuted twin.
std::shared_ptr<const Instance> diamond(bool permuted) {
  Workflow wf;
  if (permuted) {
    const auto c = wf.add_module("c", 75.0);
    const auto exit = wf.add_fixed_module("exit", 1.0);
    const auto a = wf.add_module("a", 30.0);
    const auto entry = wf.add_fixed_module("entry", 1.0);
    const auto b = wf.add_module("b", 45.0);
    wf.add_dependency(c, exit, 6.0);
    wf.add_dependency(b, exit, 5.0);
    wf.add_dependency(entry, a, 2.0);
    wf.add_dependency(a, c, 4.0);
    wf.add_dependency(a, b, 3.0);
    return std::make_shared<const Instance>(Instance::from_model(
        std::move(wf), VmCatalog({VmType{"large", 30.0, 8.0},
                                  VmType{"small", 3.0, 1.0},
                                  VmType{"medium", 15.0, 4.0}})));
  }
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto a = wf.add_module("a", 30.0);
  const auto b = wf.add_module("b", 45.0);
  const auto c = wf.add_module("c", 75.0);
  const auto exit = wf.add_fixed_module("exit", 1.0);
  wf.add_dependency(entry, a, 2.0);
  wf.add_dependency(a, b, 3.0);
  wf.add_dependency(a, c, 4.0);
  wf.add_dependency(b, exit, 5.0);
  wf.add_dependency(c, exit, 6.0);
  return std::make_shared<const Instance>(
      Instance::from_model(std::move(wf), catalog()));
}

SchedulingRequest request_for(std::shared_ptr<const Instance> inst,
                              double budget, std::string solver = "cg") {
  SchedulingRequest req;
  req.instance = std::move(inst);
  req.budget = budget;
  req.solver = std::move(solver);
  return req;
}

/// Serializes the full result: the decision (schedule, iterations, MED
/// and cost) through the persistence codec, then every CPM timing field,
/// so equal strings mean bit-for-bit identical responses.
std::string result_bytes(const SchedulingResponse& response) {
  const medcc::dag::CpmResult& cpm = response.result.eval.cpm;
  medcc::persist::Writer w;
  for (const auto* times : {&cpm.est, &cpm.eft, &cpm.lst, &cpm.lft,
                            &cpm.buffer}) {
    w.u32(static_cast<std::uint32_t>(times->size()));
    for (const double t : *times) w.f64(t);
  }
  w.u32(static_cast<std::uint32_t>(cpm.critical.size()));
  for (const bool c : cpm.critical) w.u8(c ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(cpm.critical_path.size()));
  for (const std::size_t m : cpm.critical_path) w.u64(m);
  w.f64(cpm.makespan);
  return medcc::service::encode_cache_record(
             medcc::service::ResultCache::make_entry({}, response.result)) +
         w.take();
}

// The persistence twin of NetCodec.EveryTruncationOfAValidBodyThrows-
// CodecError: every proper prefix of a real cache record is rejected.
TEST(CacheRecordCodec, EveryTruncationOfAValidRecordThrowsPersistError) {
  const auto instance = example_instance();
  const auto* cg = medcc::sched::SolverRegistry::built_in().find("cg");
  ASSERT_NE(cg, nullptr);
  const auto fp =
      medcc::service::fingerprint_instance(*instance, 57.0, "cg", "");
  const std::string record = medcc::service::encode_cache_record(
      medcc::service::ResultCache::make_entry(fp, (*cg)(*instance, 57.0)));
  ASSERT_NO_THROW((void)medcc::service::decode_cache_record(record));
  for (std::size_t len = 0; len < record.size(); ++len) {
    EXPECT_THROW((void)medcc::service::decode_cache_record(
                     std::string_view(record).substr(0, len)),
                 medcc::persist::PersistError)
        << "prefix length " << len;
  }
}

/// A journal of four solves written by the version-`version` cache-record
/// encoder (see golden_bits_test): the requests fixture_requests() builds.
fs::path solves_journal(int version) {
  return fs::path(__FILE__).parent_path() / "golden" /
         ("cache_v" + std::to_string(version) + "_solves.mdjl");
}

std::vector<SchedulingRequest> fixture_requests() {
  const auto inst = std::make_shared<const Instance>(Instance::from_model(
      medcc::workflow::example6(), medcc::cloud::example_catalog()));
  return {request_for(inst, 57.0, "cg"), request_for(inst, 57.0, "gain3"),
          request_for(inst, 57.0, "genetic"), request_for(inst, 48.0, "cg")};
}

class ServicePersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("medcc_service_persist_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServiceConfig config() const {
    ServiceConfig c;
    c.threads = 1;
    c.cache_dir = dir_.string();
    c.snapshot_interval_s = 0.0;  // flushes only on demand / shutdown
    c.persist_fsync = false;      // keep the unit tests fast
    return c;
  }

  fs::path dir_;
};

TEST_F(ServicePersistTest, WarmStartServesByteIdenticalExactHits) {
  SchedulingResponse live_a;
  SchedulingResponse live_b;
  {
    SchedulingService service(config());
    ASSERT_TRUE(service.persistence_enabled());
    live_a = service.submit(request_for(example_instance(), 57.0)).get();
    live_b = service.submit(request_for(diamond(false), 50.0)).get();
    ASSERT_TRUE(live_a.ok()) << live_a.error;
    ASSERT_TRUE(live_b.ok()) << live_b.error;
    EXPECT_EQ(service.persist_stats().appends, 2u);
  }  // destructor shuts down and folds the journal into the snapshot

  SchedulingService warmed(config());
  const auto snap = warmed.metrics().snapshot();
  EXPECT_EQ(snap.persist_loaded_entries, 2u);
  EXPECT_EQ(snap.persist_load_errors, 0u);
  EXPECT_EQ(snap.persist_replay_truncations, 0u);

  const auto warm_a = warmed.submit(request_for(example_instance(), 57.0)).get();
  const auto warm_b = warmed.submit(request_for(diamond(false), 50.0)).get();
  ASSERT_TRUE(warm_a.ok());
  ASSERT_TRUE(warm_b.ok());
  EXPECT_EQ(warm_a.cache, CacheOutcome::hit_exact);
  EXPECT_EQ(warm_b.cache, CacheOutcome::hit_exact);
  // The CPM detail is rebuilt on the hit, not read back: it must be there.
  EXPECT_EQ(warm_a.result.eval.cpm.est.size(),
            example_instance()->module_count());
  EXPECT_EQ(warm_b.result.eval.cpm.est.size(),
            diamond(false)->module_count());
  EXPECT_EQ(result_bytes(warm_a), result_bytes(live_a));
  EXPECT_EQ(result_bytes(warm_b), result_bytes(live_b));
  EXPECT_EQ(warmed.metrics().snapshot().cache_misses, 0u);

  const auto text = warmed.metrics().dump_text();
  EXPECT_NE(text.find("persist_loaded_entries 2"), std::string::npos);
  EXPECT_NE(text.find("persist_load_seconds"), std::string::npos);
}

// Journals written before cache record version 3 hold keys no lookup can
// match: warm start skips every record, counts it as a load error, and
// the service answers each request with a cold solve's bytes.
TEST_F(ServicePersistTest, WarmStartSkipsOlderJournalsAndServesColdSolveBytes) {
  for (const int version : {1, 2}) {
    SCOPED_TRACE("version " + std::to_string(version));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fs::copy_file(solves_journal(version),
                  dir_ / medcc::persist::kJournalFileName);
    SchedulingService warmed(config());
    const auto boot = warmed.metrics().snapshot();
    EXPECT_EQ(boot.persist_loaded_entries, 0u);
    EXPECT_EQ(boot.persist_load_errors, 4u);
    SchedulingService cold({.threads = 1});
    medcc::net::Server warm_server(warmed);
    medcc::net::Server cold_server(cold);
    medcc::net::ClientConfig warm_config;
    warm_config.port = warm_server.port();
    medcc::net::ClientConfig cold_config;
    cold_config.port = cold_server.port();
    medcc::net::Client warm_client(warm_config);
    medcc::net::Client cold_client(cold_config);

    for (const SchedulingRequest& request : fixture_requests()) {
      SCOPED_TRACE(request.solver + " B=" + std::to_string(request.budget));
      SchedulingResponse warm = warm_client.solve(request);
      SchedulingResponse fresh = cold_client.solve(request);
      ASSERT_TRUE(warm.ok()) << warm.error;
      ASSERT_TRUE(fresh.ok()) << fresh.error;
      EXPECT_EQ(warm.cache, CacheOutcome::miss);
      EXPECT_EQ(fresh.cache, CacheOutcome::miss);
      // Wall-clock telemetry aside, the frames match.
      for (SchedulingResponse* r : {&warm, &fresh}) {
        r->queue_delay_ms = 0.0;
        r->solve_ms = 0.0;
      }
      EXPECT_EQ(medcc::net::encode_solve_response(warm, 1),
                medcc::net::encode_solve_response(fresh, 1));
    }
    EXPECT_EQ(warmed.metrics().snapshot().cache_misses, 4u);
  }
}

TEST_F(ServicePersistTest, IsomorphicHitSurvivesRestart) {
  SchedulingResponse solved;
  {
    SchedulingService service(config());
    solved = service.submit(request_for(diamond(false), 50.0)).get();
    ASSERT_TRUE(solved.ok());
  }
  SchedulingService warmed(config());
  const auto twin = warmed.submit(request_for(diamond(true), 50.0)).get();
  ASSERT_TRUE(twin.ok());
  // The persisted assignment + remappable flag drive the re-mapping.
  EXPECT_EQ(twin.cache, CacheOutcome::hit_isomorphic);
  EXPECT_DOUBLE_EQ(twin.result.eval.med, solved.result.eval.med);
  EXPECT_DOUBLE_EQ(twin.result.eval.cost, solved.result.eval.cost);
}

TEST_F(ServicePersistTest, ShutdownFoldsJournalIntoSnapshot) {
  {
    SchedulingService service(config());
    const auto miss = service.submit(request_for(example_instance(), 57.0)).get();
    const auto hit = service.submit(request_for(example_instance(), 57.0)).get();
    ASSERT_EQ(miss.cache, CacheOutcome::miss);
    ASSERT_EQ(hit.cache, CacheOutcome::hit_exact);
    service.shutdown();
  }
  const auto snapshot = medcc::persist::read_record_file(
      dir_ / medcc::persist::kSnapshotFileName, medcc::persist::kSnapshotMagic);
  const auto journal = medcc::persist::read_record_file(
      dir_ / medcc::persist::kJournalFileName, medcc::persist::kJournalMagic);
  ASSERT_EQ(snapshot.payloads.size(), 1u);
  EXPECT_FALSE(snapshot.truncated);
  EXPECT_TRUE(journal.payloads.empty());  // rotated into the snapshot
  EXPECT_FALSE(journal.truncated);

  const CacheEntry entry =
      medcc::service::decode_cache_record(snapshot.payloads.front());
  EXPECT_EQ(entry.solver, "cg");
  EXPECT_EQ(entry.hits, 1u);  // the exact hit above is in the metadata
}

TEST_F(ServicePersistTest, TornJournalTailToleratedAndCounted) {
  {
    SchedulingService service(config());
    ASSERT_TRUE(
        service.submit(request_for(example_instance(), 57.0)).get().ok());
  }
  // SIGKILL mid-append: a partial record (too short for even its own
  // header) sits at the journal tail.
  {
    medcc::util::File journal =
        medcc::util::File::append(dir_ / medcc::persist::kJournalFileName);
    journal.write_all(medcc::persist::frame_record("torn").substr(0, 5));
  }

  SchedulingService warmed(config());
  const auto snap = warmed.metrics().snapshot();
  EXPECT_EQ(snap.persist_replay_truncations, 1u);
  EXPECT_EQ(snap.persist_loaded_entries, 1u);
  EXPECT_NE(
      warmed.metrics().dump_text().find("persist_replay_truncations 1"),
      std::string::npos);

  // The snapshot survived the torn journal: still an exact hit.
  const auto warm = warmed.submit(request_for(example_instance(), 57.0)).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache, CacheOutcome::hit_exact);
}

TEST_F(ServicePersistTest, FutureVersionedRecordSkippedAsLoadError) {
  {
    SchedulingService service(config());
    ASSERT_TRUE(
        service.submit(request_for(example_instance(), 57.0)).get().ok());
  }
  // Simulate a rollback: a record written by a newer build (version 99)
  // sits in the snapshot next to one this build understands.
  auto snapshot = medcc::persist::read_record_file(
      dir_ / medcc::persist::kSnapshotFileName, medcc::persist::kSnapshotMagic);
  ASSERT_EQ(snapshot.payloads.size(), 1u);
  medcc::persist::Writer future;
  future.u16(99);
  snapshot.payloads.push_back(future.take());
  medcc::persist::write_record_file(dir_ / medcc::persist::kSnapshotFileName,
                                    medcc::persist::kSnapshotMagic,
                                    snapshot.payloads);

  SchedulingService warmed(config());
  const auto snap = warmed.metrics().snapshot();
  EXPECT_EQ(snap.persist_loaded_entries, 1u);
  EXPECT_EQ(snap.persist_load_errors, 1u);
  const auto warm = warmed.submit(request_for(example_instance(), 57.0)).get();
  EXPECT_EQ(warm.cache, CacheOutcome::hit_exact);
}

TEST_F(ServicePersistTest, FlushPersistenceSnapshotsOnDemand) {
  SchedulingService service(config());
  ASSERT_TRUE(
      service.submit(request_for(example_instance(), 57.0)).get().ok());
  EXPECT_EQ(service.persist_stats().appends, 1u);
  service.flush_persistence();
  const auto stats = service.persist_stats();
  EXPECT_GE(stats.flushes, 1u);
  EXPECT_EQ(stats.snapshot_records, 1u);
  EXPECT_EQ(stats.journal_bytes, medcc::persist::kFileHeaderSize);
  EXPECT_GE(service.metrics().snapshot().persist_flushes, 1u);
}

TEST_F(ServicePersistTest, PersistenceDisabledWithoutDir) {
  ServiceConfig c;
  c.threads = 1;
  SchedulingService service(std::move(c));
  EXPECT_FALSE(service.persistence_enabled());
  EXPECT_EQ(service.persist_stats().appends, 0u);
  ASSERT_TRUE(
      service.submit(request_for(example_instance(), 57.0)).get().ok());
  EXPECT_EQ(service.metrics().snapshot().persist_journal_appends, 0u);
}

}  // namespace
