// Memory-exhaustion-path consistency: a run stopped by its MemoryBudget —
// whether by a genuine over-limit charge, an external MarkExhausted, or an
// injected allocation/donation fault — must report ok / resource_exhausted /
// !Complete() with valid partial counts, and must never claim the
// certified-negative shortcut. Mirrors cancel_test.cc for the budget cause.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "daf/candidate_space.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "daf/query_dag.h"
#include "obs/json.h"
#include "tests/test_util.h"
#include "util/fault_inject.h"
#include "util/memory_budget.h"
#include "util/stop.h"

namespace daf {
namespace {

using daf::testing::MakeClique;

// Same intractable space as cancel_test.cc: the run cannot finish within a
// test's lifetime unless the budget stops it.
Graph HardData() { return MakeClique(std::vector<Label>(32, 0)); }
Graph HardQuery() { return MakeClique(std::vector<Label>(7, 0)); }

class BudgetExhaustionTest : public ::testing::Test {
 protected:
  ~BudgetExhaustionTest() override { FaultInjector::Disarm(); }
};

TEST_F(BudgetExhaustionTest, TinyBudgetStopsRunInPreprocessing) {
  // 4 KiB cannot even hold the arena's first block: the CS build charges
  // over the limit immediately and the run unwinds from preprocessing.
  MemoryBudget budget(4 * 1024);
  MatchOptions options;
  options.memory_budget = &budget;
  MatchResult result = DafMatch(HardQuery(), HardData(), options);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.resource_exhausted);
  EXPECT_FALSE(result.Complete());
  EXPECT_FALSE(result.cs_certified_negative);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_GT(budget.rejections(), 0u);
  // The engine detached the arena on exit: nothing stays charged.
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_GT(budget.peak_bytes(), budget.limit());
}

TEST_F(BudgetExhaustionTest, MidSearchExhaustionReportsPartialCounts) {
  // Unlimited ledger; the flag is latched externally after 100 embeddings,
  // exercising the backtracker's StopCondition poll path.
  MemoryBudget budget;
  MatchOptions options;
  options.memory_budget = &budget;
  uint64_t seen = 0;
  options.callback = [&](std::span<const VertexId>) {
    if (++seen == 100) budget.MarkExhausted();
    return true;
  };
  MatchResult result = DafMatch(HardQuery(), HardData(), options);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.resource_exhausted);
  EXPECT_FALSE(result.cancelled);
  EXPECT_FALSE(result.timed_out);
  EXPECT_FALSE(result.limit_reached);
  EXPECT_FALSE(result.Complete());
  EXPECT_GE(result.embeddings, 100u);
  EXPECT_GT(result.recursive_calls, 0u);
}

TEST_F(BudgetExhaustionTest, ExhaustionIsConsistentAcrossOptionMatrix) {
  // Every engine configuration must honor the budget and keep the
  // exhausted => !Complete && !cs_certified_negative invariant.
  struct Config {
    const char* name;
    bool failing_sets;
    bool leaf_decomposition;
    bool injective;
    uint32_t threads;  // 1 = DafMatch, >1 = ParallelDafMatch
  };
  const Config configs[] = {
      {"daf", true, true, true, 1},
      {"da_no_failing_sets", false, true, true, 1},
      {"no_leaf_decomposition", true, false, true, 1},
      {"homomorphism", true, true, false, 1},
      {"parallel", true, true, true, 4},
  };
  for (const Config& c : configs) {
    SCOPED_TRACE(c.name);
    MemoryBudget budget(4 * 1024);
    MatchOptions options;
    options.memory_budget = &budget;
    options.use_failing_sets = c.failing_sets;
    options.leaf_decomposition = c.leaf_decomposition;
    options.injective = c.injective;
    MatchResult result;
    if (c.threads > 1) {
      result = ParallelDafMatch(HardQuery(), HardData(), options, c.threads);
    } else {
      result = DafMatch(HardQuery(), HardData(), options);
    }
    EXPECT_TRUE(result.ok);
    EXPECT_TRUE(result.resource_exhausted);
    EXPECT_FALSE(result.Complete());
    EXPECT_FALSE(result.cs_certified_negative);
    EXPECT_EQ(budget.used(), 0u) << "charged bytes leaked";
  }
}

TEST_F(BudgetExhaustionTest, InjectedArenaAllocationFaultExhaustsRun) {
  // Force the first arena block acquisition to fail: the engine must treat
  // it exactly like a genuine over-limit charge.
  MemoryBudget budget;  // unlimited — only the fault can exhaust it
  FaultInjector::FireNth("arena_block_acquire", 1);
  MatchOptions options;
  options.memory_budget = &budget;
  MatchResult result = DafMatch(HardQuery(), HardData(), options);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.resource_exhausted);
  EXPECT_FALSE(result.Complete());
  EXPECT_FALSE(result.cs_certified_negative);
  EXPECT_EQ(FaultInjector::total_fires(), 1u);
}

TEST_F(BudgetExhaustionTest, InjectedDonationFaultExhaustsParallelRun) {
  // Every work-stealing donation attempt fails mid-steal: workers must
  // surface kResourceExhausted with a valid partial state instead of
  // wedging or losing subtrees.
  FaultInjector::ArmPoint("steal_donate", 99, 1.0);
  MatchOptions options;
  options.limit = 0;
  uint64_t count_limit_guard = 0;
  options.callback = [&](std::span<const VertexId>) {
    // Safety valve: the donation fault stops the run on the first steal
    // attempt, but cap the enumeration in case stealing never triggers.
    return ++count_limit_guard < 2000000;
  };
  MatchResult result = ParallelDafMatch(HardQuery(), HardData(), options, 4);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.resource_exhausted);
  EXPECT_FALSE(result.Complete());
  EXPECT_FALSE(result.cs_certified_negative);
}

TEST_F(BudgetExhaustionTest, GenerousBudgetCompletesAndReleasesEverything) {
  MemoryBudget budget(uint64_t{1} << 30);
  Graph data = MakeClique({0, 0, 0, 0});
  Graph query = MakeClique({0, 0, 0});
  MatchOptions options;
  options.memory_budget = &budget;
  MatchResult result = DafMatch(query, data, options);
  EXPECT_TRUE(result.Complete());
  EXPECT_FALSE(result.resource_exhausted);
  EXPECT_EQ(result.embeddings, 24u);
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.rejections(), 0u);
  EXPECT_EQ(budget.used(), 0u);   // arena detached, staging released
  EXPECT_GT(budget.peak_bytes(), 0u);  // ...but the run was really metered
}

TEST_F(BudgetExhaustionTest, InterruptedCsBuildReportsMemoryCause) {
  Graph data = HardData();
  Graph query = HardQuery();
  QueryDag dag = QueryDag::Build(query, data);
  MemoryBudget budget(1);  // any staging growth exceeds this
  budget.MarkExhausted();
  StopCondition stop(nullptr, nullptr, &budget);
  CandidateSpace::Options options;
  options.stop = &stop;
  options.budget = &budget;
  CandidateSpace cs = CandidateSpace::Build(query, dag, data, options);
  EXPECT_TRUE(cs.interrupted());
  EXPECT_EQ(cs.interrupt_cause(), StopCause::kMemoryExhausted);
  for (VertexId u = 0; u < query.NumVertices(); ++u) {
    EXPECT_EQ(cs.NumCandidates(u), 0u);
  }
  // The transient staging charge was released on return.
  EXPECT_EQ(budget.used(), 0u);
}

TEST_F(BudgetExhaustionTest, CompletedRunIgnoresLateExhaustion) {
  // Exhaustion latched after the search finished must not un-complete it.
  MemoryBudget budget;
  Graph data = MakeClique({0, 0, 0, 0});
  Graph query = MakeClique({0, 0, 0});
  MatchOptions options;
  options.memory_budget = &budget;
  MatchResult result = DafMatch(query, data, options);
  budget.MarkExhausted();
  EXPECT_TRUE(result.Complete());
  EXPECT_FALSE(result.resource_exhausted);
  EXPECT_EQ(result.embeddings, 24u);
}

TEST_F(BudgetExhaustionTest, JsonExportCarriesResourceExhaustedFlag) {
  MemoryBudget budget(4 * 1024);
  MatchOptions options;
  options.memory_budget = &budget;
  obs::SearchProfile profile;
  options.profile = &profile;
  MatchResult result = DafMatch(HardQuery(), HardData(), options);
  ASSERT_TRUE(result.resource_exhausted);
  std::string json = obs::MatchResultToJson(result, &profile);
  EXPECT_NE(json.find("\"resource_exhausted\": true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"budget_exhausted\": true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"budget_rejections\""), std::string::npos) << json;
}

}  // namespace
}  // namespace daf
