#include "workflow/workflow.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/prng.hpp"

namespace {

using medcc::workflow::Workflow;

Workflow small_valid() {
  Workflow wf;
  const auto a = wf.add_module("a", 10.0);
  const auto b = wf.add_module("b", 20.0);
  const auto c = wf.add_module("c", 30.0);
  wf.add_dependency(a, b, 1.0);
  wf.add_dependency(a, c, 2.0);
  wf.add_dependency(b, c, 3.0);
  return wf;
}

TEST(Workflow, BasicAccessors) {
  const auto wf = small_valid();
  EXPECT_EQ(wf.module_count(), 3u);
  EXPECT_EQ(wf.dependency_count(), 3u);
  EXPECT_EQ(wf.module(0).name, "a");
  EXPECT_DOUBLE_EQ(wf.module(1).workload, 20.0);
  EXPECT_DOUBLE_EQ(wf.data_size(2), 3.0);
  EXPECT_DOUBLE_EQ(wf.total_workload(), 60.0);
}

TEST(Workflow, EntryAndExit) {
  const auto wf = small_valid();
  EXPECT_EQ(wf.entry(), 0u);
  EXPECT_EQ(wf.exit(), 2u);
}

TEST(Workflow, ValidWorkflowPassesValidation) {
  EXPECT_TRUE(small_valid().validate().ok());
  EXPECT_NO_THROW(small_valid().ensure_valid());
}

TEST(Workflow, EmptyWorkflowInvalid) {
  Workflow wf;
  const auto report = wf.validate();
  EXPECT_FALSE(report.ok());
  EXPECT_THROW(wf.ensure_valid(), medcc::InvalidArgument);
}

TEST(Workflow, MultipleSourcesDetected) {
  Workflow wf;
  const auto a = wf.add_module("a", 1.0);
  const auto b = wf.add_module("b", 1.0);
  const auto c = wf.add_module("c", 1.0);
  wf.add_dependency(a, c);
  wf.add_dependency(b, c);
  const auto report = wf.validate();
  EXPECT_FALSE(report.ok());
}

TEST(Workflow, MultipleSinksDetected) {
  Workflow wf;
  const auto a = wf.add_module("a", 1.0);
  const auto b = wf.add_module("b", 1.0);
  const auto c = wf.add_module("c", 1.0);
  wf.add_dependency(a, b);
  wf.add_dependency(a, c);
  EXPECT_FALSE(wf.validate().ok());
}

TEST(Workflow, FixedModulesAreNotComputing) {
  Workflow wf;
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto mid = wf.add_module("mid", 5.0);
  const auto exit = wf.add_fixed_module("exit", 1.0);
  wf.add_dependency(entry, mid);
  wf.add_dependency(mid, exit);
  EXPECT_TRUE(wf.validate().ok());
  EXPECT_EQ(wf.computing_module_count(), 1u);
  EXPECT_EQ(wf.computing_modules(), std::vector<medcc::workflow::NodeId>{mid});
  EXPECT_TRUE(wf.module(entry).is_fixed());
  EXPECT_FALSE(wf.module(mid).is_fixed());
  EXPECT_DOUBLE_EQ(wf.total_workload(), 5.0);
}

TEST(Workflow, NegativeWorkloadRejected) {
  Workflow wf;
  EXPECT_THROW((void)wf.add_module("bad", -1.0), medcc::InvalidArgument);
  EXPECT_THROW((void)wf.add_fixed_module("bad", -1.0),
               medcc::InvalidArgument);
}

TEST(Workflow, NegativeDataSizeRejected) {
  Workflow wf;
  const auto a = wf.add_module("a", 1.0);
  const auto b = wf.add_module("b", 1.0);
  EXPECT_THROW((void)wf.add_dependency(a, b, -0.5), medcc::InvalidArgument);
}

TEST(Workflow, ModuleNamesListed) {
  const auto wf = small_valid();
  EXPECT_EQ(wf.module_names(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Workflow, ValidationReportNamesProblems) {
  Workflow wf;
  const auto a = wf.add_module("a", 1.0);
  const auto b = wf.add_module("island", 1.0);
  (void)a;
  (void)b;
  const auto report = wf.validate();  // two sources, two sinks
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.problems.size(), 2u);
}

// validate() reports problems in a fixed order (cycle, entry count, exit
// count); tools and error messages print them verbatim.
using Problems = std::vector<std::string>;

TEST(WorkflowValidate, ModuleUnreachableFromEntryIsASecondEntry) {
  Workflow wf;
  const auto entry = wf.add_module("entry", 1.0);
  const auto a = wf.add_module("a", 1.0);
  const auto orphan = wf.add_module("orphan", 1.0);
  const auto exit = wf.add_module("exit", 1.0);
  wf.add_dependency(entry, a);
  wf.add_dependency(a, exit);
  wf.add_dependency(orphan, exit);
  EXPECT_EQ(wf.validate().problems,
            (Problems{"expected exactly one entry module, found 2"}));
}

TEST(WorkflowValidate, ModuleThatCannotReachExitIsASecondExit) {
  Workflow wf;
  const auto entry = wf.add_module("entry", 1.0);
  const auto a = wf.add_module("a", 1.0);
  const auto dead_end = wf.add_module("dead-end", 1.0);
  const auto exit = wf.add_module("exit", 1.0);
  wf.add_dependency(entry, a);
  wf.add_dependency(a, exit);
  wf.add_dependency(a, dead_end);
  EXPECT_EQ(wf.validate().problems,
            (Problems{"expected exactly one exit module, found 2"}));
}

TEST(WorkflowValidate, TwoDisconnectedChainsReportEntriesThenExits) {
  Workflow wf;
  const auto a1 = wf.add_module("a1", 1.0);
  const auto a2 = wf.add_module("a2", 1.0);
  const auto b1 = wf.add_module("b1", 1.0);
  const auto b2 = wf.add_module("b2", 1.0);
  wf.add_dependency(a1, a2);
  wf.add_dependency(b1, b2);
  EXPECT_EQ(wf.validate().problems,
            (Problems{"expected exactly one entry module, found 2",
                      "expected exactly one exit module, found 2"}));
}

TEST(WorkflowValidate, CycleIsReportedFirst) {
  Workflow wf;
  const auto a = wf.add_module("a", 1.0);
  const auto b = wf.add_module("b", 1.0);
  const auto c = wf.add_module("c", 1.0);
  wf.add_dependency(a, b);
  wf.add_dependency(b, c);
  wf.add_dependency(c, a);
  EXPECT_EQ(wf.validate().problems,
            (Problems{"dependency graph contains a cycle",
                      "expected exactly one entry module, found 0",
                      "expected exactly one exit module, found 0"}));

  // A cycle hanging off an otherwise well-formed workflow.
  Workflow tail;
  const auto entry = tail.add_module("entry", 1.0);
  const auto p = tail.add_module("p", 1.0);
  const auto q = tail.add_module("q", 1.0);
  const auto exit = tail.add_module("exit", 1.0);
  tail.add_dependency(entry, p);
  tail.add_dependency(p, q);
  tail.add_dependency(q, p);
  tail.add_dependency(q, exit);
  EXPECT_EQ(tail.validate().problems,
            (Problems{"dependency graph contains a cycle"}));
}

TEST(WorkflowValidate, ValidWorkflowsPutEveryModuleOnAnEntryExitPath) {
  // validate() checks acyclicity and the entry/exit counts only; this
  // is what makes a separate reachability pass unnecessary.
  medcc::util::Prng rng(2024);
  int valid = 0;
  for (int round = 0; round < 400; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 9));
    Workflow wf;
    for (std::size_t i = 0; i < n; ++i)
      (void)wf.add_module("m" + std::to_string(i), 1.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (rng.uniform_int(0, 2) == 0) (void)wf.add_dependency(i, j);
    if (!wf.validate().ok()) continue;
    ++valid;
    const auto& g = wf.graph();
    for (medcc::workflow::NodeId v = 0; v < n; ++v) {
      EXPECT_TRUE(g.reachable(wf.entry(), v)) << "round " << round;
      EXPECT_TRUE(g.reachable(v, wf.exit())) << "round " << round;
    }
  }
  EXPECT_GT(valid, 20);
}

TEST(WorkflowValidate, TenThousandModuleLayeredWorkflowValidates) {
  // 100 ranks of 100 modules between an entry and an exit; every module
  // feeds two modules of the next rank.
  constexpr std::size_t kRanks = 100;
  constexpr std::size_t kWidth = 100;
  Workflow wf;
  const auto entry = wf.add_fixed_module("entry", 0.0);
  std::vector<medcc::workflow::NodeId> prev, rank;
  for (std::size_t r = 0; r < kRanks; ++r) {
    rank.clear();
    for (std::size_t i = 0; i < kWidth; ++i)
      rank.push_back(wf.add_module(
          "w" + std::to_string(r) + "_" + std::to_string(i), 1.0 + i));
    for (std::size_t i = 0; i < kWidth; ++i) {
      if (r == 0) {
        wf.add_dependency(entry, rank[i]);
      } else {
        wf.add_dependency(prev[i], rank[i]);
        wf.add_dependency(prev[i], rank[(i + 1) % kWidth]);
      }
    }
    prev.swap(rank);
  }
  const auto exit = wf.add_fixed_module("exit", 0.0);
  for (const auto v : prev) wf.add_dependency(v, exit);
  ASSERT_EQ(wf.module_count(), kRanks * kWidth + 2);
  EXPECT_TRUE(wf.validate().ok());
  EXPECT_EQ(wf.entry(), entry);
  EXPECT_EQ(wf.exit(), exit);
}

}  // namespace
