// Concurrent-safety suite: many threads running the DAF engine against one
// shared immutable data Graph with pooled MatchContexts, plus a mixed-load
// stress of the MatchService. Every concurrent result must equal the
// single-threaded ground truth — the shared graph and the CS build must be
// free of hidden mutable state. Run these under -DDAF_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "daf/cursor.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "service/context_pool.h"
#include "service/match_service.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace daf {
namespace {

using daf::testing::MakeClique;
using daf::testing::MakeCycle;
using daf::testing::MakePath;
using daf::testing::MakeStar;
using daf::testing::RandomDataGraph;

std::vector<Graph> TestQueries() {
  std::vector<Graph> queries;
  queries.push_back(MakePath({0, 1, 0}));
  queries.push_back(MakeCycle({0, 1, 2}));
  queries.push_back(MakeClique({0, 0, 0}));
  queries.push_back(MakeStar({1, 0, 0, 2}));
  queries.push_back(MakePath({2, 1, 0, 1}));
  return queries;
}

TEST(ConcurrencyTest, ThreadsSharingOneGraphMatchSingleThreadedCounts) {
  Rng rng(7);
  const Graph data = RandomDataGraph(300, 1200, 3, rng);
  const std::vector<Graph> queries = TestQueries();

  std::vector<uint64_t> expected;
  for (const Graph& q : queries) {
    MatchResult r = DafMatch(q, data);
    ASSERT_TRUE(r.Complete());
    expected.push_back(r.embeddings);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  service::ContextPool pool(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          service::ContextPool::Lease lease = pool.Acquire();
          MatchResult r = DafMatch(queries[i], data, {}, lease.get());
          if (!r.Complete() || r.embeddings != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ConcurrentCursorsOverOneGraph) {
  const Graph data = MakeClique(std::vector<Label>(9, 0));
  const Graph query = MakeClique(std::vector<Label>(3, 0));
  MatchResult direct = DafMatch(query, data);
  ASSERT_TRUE(direct.Complete());

  constexpr int kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      EmbeddingCursor cursor(query, data);
      uint64_t n = 0;
      while (cursor.Next().has_value()) ++n;
      if (n != direct.embeddings) mismatches.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ParallelEngineInsideConcurrentCallers) {
  // Two layers of parallelism: several caller threads, each running the
  // multi-threaded engine on the same data graph.
  const Graph data = MakeClique(std::vector<Label>(10, 0));
  const Graph query = MakeCycle({0, 0, 0, 0});
  MatchResult direct = DafMatch(query, data);
  ASSERT_TRUE(direct.Complete());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      MatchResult r = ParallelDafMatch(query, data, {}, 3);
      if (!r.Complete() || r.embeddings != direct.embeddings) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ServiceUnderMixedLoadMatchesGroundTruth) {
  Rng rng(11);
  const Graph data = RandomDataGraph(200, 700, 3, rng);
  const std::vector<Graph> queries = TestQueries();
  std::vector<uint64_t> expected;
  for (const Graph& q : queries) {
    expected.push_back(DafMatch(q, data).embeddings);
  }

  service::MatchService service(data, {.num_workers = 4});
  struct Submitted {
    service::JobHandle handle;
    size_t query = 0;
    bool cancelled_by_us = false;
  };
  std::vector<Submitted> jobs;
  for (int i = 0; i < 60; ++i) {
    service::QueryJob job;
    const size_t qi = static_cast<size_t>(i) % queries.size();
    job.query = queries[qi];
    job.priority = static_cast<service::Priority>(i % service::kNumPriorities);
    Submitted s;
    s.query = qi;
    s.cancelled_by_us = (i % 7 == 0);
    s.handle = service.Submit(std::move(job));
    if (s.cancelled_by_us) s.handle.Cancel();
    jobs.push_back(std::move(s));
  }
  service.Drain();
  for (Submitted& s : jobs) {
    ASSERT_TRUE(s.handle.Done());
    const service::JobStatus status = s.handle.Status();
    if (status == service::JobStatus::kDone) {
      // Finished jobs — including ones whose cancel arrived too late —
      // must report the exact single-threaded count.
      EXPECT_EQ(s.handle.Result().embeddings, expected[s.query]);
    } else {
      EXPECT_EQ(status, service::JobStatus::kCancelled);
      EXPECT_TRUE(s.cancelled_by_us);
    }
  }
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.counters.submitted, 60u);
  EXPECT_EQ(m.counters.completed + m.counters.cancelled, 60u);
}

}  // namespace
}  // namespace daf
