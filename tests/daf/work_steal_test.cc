// Differential tests of the work-stealing parallel engine: for every search
// option combination, the stolen-subtree decomposition must produce exactly
// the single-threaded engine's results — same embedding counts, and (without
// a limit) the same embedding *set*. The forced-split configuration
// (split_threshold = 1) donates maximally eagerly, so frame splitting, task
// replay, and the failing-set conservativeness rule at task boundaries are
// all exercised constantly; these tests also run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daf/boost.h"
#include "daf/parallel.h"
#include "daf/steal.h"
#include "graph/query_extract.h"
#include "obs/json.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeClique;
using daf::testing::MakeCycle;

MatchResult RunStealing(const Graph& query, const Graph& data,
                        MatchOptions opts, uint32_t threads,
                        uint32_t split_threshold) {
  opts.parallel_strategy = ParallelStrategy::kWorkStealing;
  opts.split_threshold = split_threshold;
  return ParallelDafMatch(query, data, opts, threads);
}

TEST(WorkStealTest, FullOptionMatrixMatchesSequential) {
  Rng rng(2024);
  Graph data = daf::testing::RandomDataGraph(40, 140, 2, rng);
  auto extracted = ExtractRandomWalkQuery(data, 6, -1.0, rng);
  ASSERT_TRUE(extracted.has_value());
  const Graph& query = extracted->query;
  for (MatchOrder order : {MatchOrder::kPathSize, MatchOrder::kCandidateSize}) {
    for (bool failing_sets : {true, false}) {
      for (bool leaf_decomposition : {true, false}) {
        for (bool injective : {true, false}) {
          MatchOptions opts;
          opts.order = order;
          opts.use_failing_sets = failing_sets;
          opts.leaf_decomposition = leaf_decomposition;
          opts.injective = injective;
          MatchResult sequential = DafMatch(query, data, opts);
          ASSERT_TRUE(sequential.ok);
          for (uint32_t threads : {2u, 4u}) {
            for (uint32_t threshold : {1u, 8u}) {
              MatchResult r =
                  RunStealing(query, data, opts, threads, threshold);
              ASSERT_TRUE(r.ok);
              EXPECT_EQ(r.embeddings, sequential.embeddings)
                  << "order=" << static_cast<int>(order)
                  << " fs=" << failing_sets << " leaf=" << leaf_decomposition
                  << " inj=" << injective << " threads=" << threads
                  << " threshold=" << threshold;
            }
          }
        }
      }
    }
  }
}

TEST(WorkStealTest, ExactEmbeddingSetUnderForcedSplitting) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0});
  EmbeddingSet expected;
  MatchOptions seq;
  seq.callback = Collector(&expected);
  MatchResult sequential = DafMatch(query, data, seq);
  ASSERT_TRUE(sequential.ok);
  ASSERT_FALSE(expected.empty());

  EmbeddingSet found;
  MatchOptions par;
  par.callback = Collector(&found);  // engine serializes the callback
  MatchResult r = RunStealing(query, data, par, 4, /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(found, expected);
  EXPECT_EQ(r.embeddings, expected.size());
}

TEST(WorkStealTest, BoostEquivalenceMatchesSequential) {
  // Every data vertex of a uniform clique is equivalent, so DAF-Boost's
  // failed-class skipping fires constantly; stolen tasks must start a fresh
  // failed-class record instead of inheriting the donor's.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0, 0});
  VertexEquivalence eq = VertexEquivalence::Compute(data);
  MatchOptions opts;
  opts.equivalence = &eq;
  MatchResult sequential = DafMatch(query, data, opts);
  ASSERT_TRUE(sequential.ok);
  for (uint32_t threshold : {1u, 8u}) {
    MatchResult r = RunStealing(query, data, opts, 4, threshold);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.embeddings, sequential.embeddings)
        << "threshold=" << threshold;
  }
}

TEST(WorkStealTest, ForcedStealStress) {
  // A search large enough (~10^5 nodes) that donated tasks are actually
  // stolen by other workers even on a single-core host, not just popped
  // back by the donor. Counts must stay exact regardless of who ran what.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0, 0, 0});
  MatchOptions opts;
  MatchResult sequential = DafMatch(query, data, opts);
  ASSERT_TRUE(sequential.ok);
  MatchResult r = RunStealing(query, data, opts, 4, /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.embeddings, sequential.embeddings);
  // Stealing never prunes more than the sequential search (donated frames
  // report conservative failing sets), so it can only examine extra nodes
  // when a donated range would later have been certificate-pruned.
  EXPECT_GE(r.recursive_calls, sequential.recursive_calls);
  EXPECT_GT(r.donations, 0u);
  EXPECT_GT(r.tasks_executed, 1u);  // the seed plus donated subtrees
}

TEST(WorkStealTest, WorkConservation) {
  // With failing-set pruning off the search is exhaustive, so stealing
  // redistributes the tree without duplicating or dropping a single node:
  // summed recursive calls equal the single-threaded engine's exactly (the
  // root-cursor strategy pays one extra root scan per worker instead).
  // With pruning on, exact equality can break: a donated range may be one
  // the donor would later have pruned via a child's certificate.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0});
  MatchOptions opts;
  opts.use_failing_sets = false;
  MatchResult sequential = DafMatch(query, data, opts);
  ASSERT_TRUE(sequential.ok);
  for (uint32_t threads : {2u, 4u, 8u}) {
    MatchResult r = RunStealing(query, data, opts, threads,
                                /*split_threshold=*/1);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.recursive_calls, sequential.recursive_calls)
        << "threads=" << threads;
    EXPECT_EQ(r.embeddings, sequential.embeddings);
  }
}

TEST(WorkStealTest, ExactLimit) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});  // 8*7*6 = 336 embeddings
  for (uint32_t threads : {2u, 4u, 8u}) {
    for (uint32_t threshold : {1u, 8u}) {
      MatchOptions opts;
      opts.limit = 100;
      MatchResult r = RunStealing(query, data, opts, threads, threshold);
      ASSERT_TRUE(r.ok);
      EXPECT_TRUE(r.limit_reached);
      EXPECT_EQ(r.embeddings, 100u)
          << "threads=" << threads << " threshold=" << threshold;
    }
  }
}

TEST(WorkStealTest, ExactLimitWithDeadlineArmed) {
  // An armed (never firing) deadline routes every worker through the full
  // StopCondition path; the claim-before-count limit must stay exact.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  MatchOptions opts;
  opts.limit = 100;
  opts.time_limit_ms = 600000;
  MatchResult r = RunStealing(query, data, opts, 4, /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.limit_reached);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.embeddings, 100u);
}

TEST(WorkStealTest, LimitAboveTotalFindsEverything) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});  // 6*5*4 = 120 embeddings
  MatchOptions opts;
  opts.limit = 100000;
  MatchResult r = RunStealing(query, data, opts, 4, /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.limit_reached);
  EXPECT_EQ(r.embeddings, 120u);
}

TEST(WorkStealTest, CancelMidRun) {
  // The callback cancels after 100 embeddings, strictly before the ~6.6e5
  // total, so the cancel always lands mid-search; every worker must then
  // stop within its next StopCondition poll window and report cancelled.
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0, 0, 0});
  CancelToken cancel;
  std::atomic<uint64_t> delivered{0};
  MatchOptions opts;
  opts.cancel = &cancel;
  opts.callback = [&](std::span<const VertexId>) {
    if (delivered.fetch_add(1) + 1 == 100) cancel.Cancel();
    return true;
  };
  MatchResult r = RunStealing(query, data, opts, 4, /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.cancelled);
  EXPECT_GE(r.embeddings, 100u);
  EXPECT_LT(r.embeddings, 665280u);
}

TEST(WorkStealTest, CancelBeforeRun) {
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  CancelToken cancel;
  cancel.Cancel();
  MatchOptions opts;
  opts.cancel = &cancel;
  MatchResult r = RunStealing(query, data, opts, 4, /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.cancelled);
}

TEST(WorkStealTest, SingleThreadFallsBackToSequentialEngine) {
  // num_threads == 1 short-circuits to the plain Run path even under
  // kWorkStealing; results and the steal counters must reflect that.
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  MatchResult r = RunStealing(query, data, MatchOptions{}, 1,
                              /*split_threshold=*/1);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.embeddings, 60u);
  EXPECT_EQ(r.tasks_executed, 0u);
  EXPECT_EQ(r.steals, 0u);
  EXPECT_EQ(r.donations, 0u);
}

TEST(WorkStealTest, StrategiesAgreeOnRandomGraphs) {
  Rng rng(515);
  for (int trial = 0; trial < 5; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(50, 130 + rng.UniformInt(80), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 5 + rng.UniformInt(3), -1.0, rng);
    if (!extracted) continue;
    MatchOptions steal_opts;
    steal_opts.parallel_strategy = ParallelStrategy::kWorkStealing;
    steal_opts.split_threshold = 1;
    MatchOptions cursor_opts;
    cursor_opts.parallel_strategy = ParallelStrategy::kRootCursor;
    MatchResult steal = ParallelDafMatch(extracted->query, data, steal_opts, 4);
    MatchResult cursor =
        ParallelDafMatch(extracted->query, data, cursor_opts, 4);
    ASSERT_TRUE(steal.ok && cursor.ok);
    EXPECT_EQ(steal.embeddings, cursor.embeddings) << "trial=" << trial;
  }
}

// Every embedding the callback delivers, duplicates kept (the engine
// serializes the callback).
EmbeddingCallback Recorder(std::vector<std::vector<VertexId>>* out) {
  return [out](std::span<const VertexId> embedding) {
    out->emplace_back(embedding.begin(), embedding.end());
    return true;
  };
}

TEST(RootCursorTest, SeededRootTasksFindEachEmbeddingOnce) {
  // kRootCursor runs one unsplittable task per root candidate through the
  // shared scheduler. Each embedding must come out exactly once, complete
  // or under an exact limit, whatever the thread count.
  Rng rng(4242);
  Graph data = daf::testing::RandomDataGraph(30, 90, 2, rng);
  auto walk = ExtractRandomWalkQuery(data, 5, -1.0, rng);
  ASSERT_TRUE(walk.has_value());
  const std::vector<std::pair<const char*, Graph>> queries = {
      {"connected", walk->query},
      // An edge plus an isolated vertex: two DAG roots.
      {"disconnected", Graph::FromEdges({0, 1, 0}, {{0, 1}})},
  };
  for (const auto& [name, query] : queries) {
    for (bool injective : {true, false}) {
      SCOPED_TRACE(std::string(name) + (injective ? " injective" : " hom"));
      MatchOptions opts;
      opts.injective = injective;
      opts.parallel_strategy = ParallelStrategy::kRootCursor;
      EmbeddingSet expected;
      MatchOptions one = opts;
      one.callback = Collector(&expected);
      const MatchResult sequential = ParallelDafMatch(query, data, one, 1);
      ASSERT_TRUE(sequential.ok);
      ASSERT_GE(expected.size(), 2u);
      ASSERT_EQ(sequential.embeddings, expected.size());

      for (uint32_t threads : {2u, 3u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::vector<std::vector<VertexId>> found;
        MatchOptions all = opts;
        all.callback = Recorder(&found);
        const MatchResult r = ParallelDafMatch(query, data, all, threads);
        ASSERT_TRUE(r.ok);
        EXPECT_TRUE(r.Complete());
        EXPECT_EQ(r.embeddings, expected.size());
        EXPECT_EQ(found.size(), expected.size());
        EXPECT_EQ(EmbeddingSet(found.begin(), found.end()), expected);
        EXPECT_EQ(r.threads_used, threads);
        EXPECT_GT(r.tasks_executed, 0u);
        EXPECT_EQ(r.donations, 0u);  // splitting is off
        ASSERT_EQ(r.per_thread_calls.size(), threads);
        uint64_t calls = 0;
        for (uint64_t c : r.per_thread_calls) calls += c;
        EXPECT_EQ(calls, r.recursive_calls);

        std::vector<std::vector<VertexId>> limited;
        MatchOptions capped = opts;
        capped.limit = expected.size() / 2;
        capped.callback = Recorder(&limited);
        const MatchResult l = ParallelDafMatch(query, data, capped, threads);
        ASSERT_TRUE(l.ok);
        EXPECT_TRUE(l.limit_reached);
        EXPECT_EQ(l.embeddings, capped.limit);
        EXPECT_EQ(limited.size(), capped.limit);
        const EmbeddingSet distinct(limited.begin(), limited.end());
        EXPECT_EQ(distinct.size(), limited.size());
        for (const std::vector<VertexId>& e : distinct) {
          EXPECT_EQ(expected.count(e), 1u);
        }
      }
    }
  }
}

TEST(WorkStealTest, ProfileReportsSchedulerCounters) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0, 0});
  obs::SearchProfile profile;
  MatchOptions opts;
  opts.profile = &profile;
  opts.parallel_strategy = ParallelStrategy::kWorkStealing;
  opts.split_threshold = 1;
  MatchResult r = ParallelDafMatch(query, data, opts, 4);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.per_thread_calls.size(), 4u);
  EXPECT_GT(r.tasks_executed, 0u);

  // The scheduler counters are serialized from the result, once: the
  // profile JSON carries only the per-worker backtrack profiles.
  const std::string json = obs::MatchResultToJson(r, &profile, /*indent=*/0);
  std::string calls;
  for (uint64_t c : r.per_thread_calls) {
    calls += (calls.empty() ? "" : ",") + std::to_string(c);
  }
  obs::JsonWriter idle(0), imbalance(0);
  idle.Double(r.idle_ms);
  imbalance.Double(r.call_imbalance);
  const std::string block =
      "\"threads_used\":4,\"parallel\":{\"tasks_executed\":" +
      std::to_string(r.tasks_executed) +
      ",\"steals\":" + std::to_string(r.steals) +
      ",\"donations\":" + std::to_string(r.donations) +
      ",\"idle_ms\":" + idle.str() +
      ",\"call_imbalance\":" + imbalance.str() +
      ",\"per_thread_calls\":[" + calls + "]}";
  EXPECT_NE(json.find(block), std::string::npos) << json;
  EXPECT_EQ(json.find("\"parallel\""), json.rfind("\"parallel\""));
  EXPECT_EQ(json.find("per_thread_steals"), std::string::npos);
  EXPECT_NE(json.find("\"thread_profiles\""), std::string::npos);
}

TEST(StealOrderTest, FlatTopologyPreservesPlainRing) {
  // The steal sweep is the ring: thief t visits t+1, t+2, ... modulo n.
  StealScheduler plain(4, /*split_threshold=*/8);
  for (uint32_t t = 0; t < 4; ++t) {
    std::vector<uint32_t> ring;
    for (uint32_t i = 1; i < 4; ++i) ring.push_back((t + i) % 4);
    EXPECT_EQ(plain.steal_order(t), ring) << "thief " << t;
  }
}

}  // namespace
}  // namespace daf
