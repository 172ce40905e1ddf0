// Chaos harness: a MatchService under seeded mixed load with every fault
// point armed. The faults (simulated allocation failures, dropped context
// leases, admission pushes, worker dispatches, mid-steal donations) may
// fail individual jobs, but the robustness contract must hold regardless:
// no crash, every admitted job lands in exactly one terminal status with a
// self-consistent result, the terminal counters account for every
// submission, the global memory ledger returns to zero, and the service
// keeps serving after the faults stop. Runs under ASan in CI, so "no
// leaks" is enforced mechanically. See docs/ROBUSTNESS.md.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "daf/engine.h"
#include "graph/canonical.h"
#include "service/match_service.h"
#include "tests/test_util.h"
#include "util/fault_inject.h"
#include "util/rng.h"

namespace daf::service {
namespace {

using daf::testing::MakeClique;

Graph SmallData() { return MakeClique(std::vector<Label>(16, 0)); }
Graph EasyQuery() { return MakeClique(std::vector<Label>(3, 0)); }
Graph HardQuery() { return MakeClique(std::vector<Label>(6, 0)); }

class ChaosTest : public ::testing::Test {
 protected:
  ~ChaosTest() override { FaultInjector::Disarm(); }
};

// One full chaos round under a given fault schedule; asserts every
// robustness invariant. Used with several seeds below — the schedules
// differ, the contract does not.
void RunChaosRound(uint64_t chaos_seed, double fault_rate) {
  SCOPED_TRACE("chaos_seed=" + std::to_string(chaos_seed));
  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 256;
  options.watchdog_interval_ms = 10;
  options.watchdog_grace_ms = 200;
  options.context_retained_bytes = 1 << 18;
  options.service_memory_limit_bytes = uint64_t{1} << 30;
  MatchService service(SmallData(), options);

  constexpr int kJobs = 60;
  std::vector<JobHandle> handles;
  handles.reserve(kJobs);
  {
    ScopedFaultInjection faults(chaos_seed, fault_rate);
    for (int i = 0; i < kJobs; ++i) {
      QueryJob job;
      job.priority = static_cast<Priority>(i % kNumPriorities);
      job.limit = 50000;
      switch (i % 4) {
        case 0:
          job.query = EasyQuery();
          break;
        case 1:
          job.query = HardQuery();
          job.deadline_ms = 30;  // deadline-bound by design
          break;
        case 2:
          job.query = EasyQuery();
          job.max_memory_bytes = 16 * 1024;  // exhaustion-bound by design
          break;
        default:
          job.query = HardQuery();
          job.limit = 2000;
          break;
      }
      handles.push_back(service.Submit(std::move(job)));
    }
    service.Drain();
  }

  // Invariant 1: every job is terminal with a self-consistent result.
  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    JobHandle& h = handles[i];
    const JobStatus status = h.Status();
    ASSERT_TRUE(IsTerminal(status)) << ToString(status);
    const MatchResult& r = h.Result();
    switch (status) {
      case JobStatus::kDone:
        EXPECT_TRUE(r.ok);
        break;
      case JobStatus::kResourceExhausted:
        EXPECT_TRUE(r.resource_exhausted);
        EXPECT_FALSE(r.Complete());
        EXPECT_FALSE(r.cs_certified_negative);
        break;
      case JobStatus::kFailed:
        EXPECT_FALSE(r.ok);
        EXPECT_FALSE(r.error.empty());
        break;
      default:
        break;  // cancelled / timed out / rejected carry partial counts
    }
  }

  // Invariant 2: the terminal counters account for every submission.
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.counters.submitted, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(m.counters.submitted,
            m.counters.rejected + m.counters.completed +
                m.counters.cancelled + m.counters.timed_out +
                m.counters.failed + m.counters.resource_exhausted);

  // Invariant 3: with no job running, the global ledger holds exactly the
  // query cache's resident bytes — every per-job charge was returned (no
  // charge leaks), and the cache's own accounting agrees with the ledger.
  EXPECT_EQ(m.global_memory_used, m.cache_resident_bytes);
  EXPECT_EQ(m.global_memory_limit, uint64_t{1} << 30);

  // Invariant 4: liveness — with faults disarmed the service still serves.
  QueryJob probe;
  probe.query = EasyQuery();
  JobHandle h = service.Submit(std::move(probe));
  EXPECT_EQ(h.Wait(), JobStatus::kDone);
  EXPECT_TRUE(h.Result().Complete());
}

TEST_F(ChaosTest, Seed1LowFaultRate) { RunChaosRound(1, 0.01); }

TEST_F(ChaosTest, Seed2ModerateFaultRate) { RunChaosRound(2, 0.05); }

TEST_F(ChaosTest, Seed3HighFaultRate) { RunChaosRound(3, 0.25); }

// Cache-churn round: a tiny resident-bytes cap forces constant LRU
// eviction while repeated and permuted patterns race hits, coalesced
// builds, and the armed cache_insert/cache_evict fault points. On top of
// the standard invariants, the cache's classification must stay exact:
// every lookup is exactly one of hit / miss / coalesced.
void RunCacheChurnRound(uint64_t chaos_seed, double fault_rate) {
  SCOPED_TRACE("chaos_seed=" + std::to_string(chaos_seed));
  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 256;
  options.watchdog_interval_ms = 10;
  options.watchdog_grace_ms = 200;
  options.service_memory_limit_bytes = uint64_t{1} << 30;
  options.cache_max_resident_bytes = 24 * 1024;  // a handful of entries
  options.cache_shards = 2;
  MatchService service(SmallData(), options);

  // A pool of patterns sized so the pool never fits resident at once,
  // submitted both verbatim and relabeled (permuted isomorphs must land on
  // the same entries even while those entries are being evicted).
  Rng rng(chaos_seed);
  std::vector<Graph> pool;
  for (uint32_t n = 3; n <= 6; ++n) {
    pool.push_back(MakeClique(std::vector<Label>(n, 0)));
  }
  constexpr int kJobs = 80;
  std::vector<JobHandle> handles;
  handles.reserve(kJobs);
  {
    ScopedFaultInjection faults(chaos_seed, fault_rate);
    for (int i = 0; i < kJobs; ++i) {
      const Graph& base = pool[static_cast<size_t>(i) % pool.size()];
      std::vector<VertexId> perm(base.NumVertices());
      for (VertexId v = 0; v < perm.size(); ++v) perm[v] = v;
      rng.Shuffle(perm);
      QueryJob job;
      job.query = i % 2 == 0 ? base : PermuteVertices(base, perm);
      job.priority = static_cast<Priority>(i % kNumPriorities);
      job.limit = 20000;
      handles.push_back(service.Submit(std::move(job)));
    }
    service.Drain();
  }

  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    ASSERT_TRUE(IsTerminal(handles[i].Status()))
        << ToString(handles[i].Status());
  }
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.counters.submitted, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(m.counters.submitted,
            m.counters.rejected + m.counters.completed +
                m.counters.cancelled + m.counters.timed_out +
                m.counters.failed + m.counters.resource_exhausted);
  // Exact lookup classification, under faults and eviction churn.
  EXPECT_EQ(m.cache_hits + m.cache_misses + m.cache_coalesced,
            m.cache_lookups);
  EXPECT_LE(m.cache_lookups, m.counters.submitted);
  EXPECT_EQ(m.cache_uncacheable, 0u);  // cliques canonicalize trivially
  // The cap held and the ledgers agree.
  EXPECT_LE(m.cache_resident_bytes, options.cache_max_resident_bytes);
  EXPECT_EQ(m.global_memory_used, m.cache_resident_bytes);

  // Liveness plus a correctness probe: a warm (or rebuilt) entry still
  // produces the right count after the churn.
  QueryJob probe;
  probe.query = EasyQuery();
  JobHandle h = service.Submit(std::move(probe));
  EXPECT_EQ(h.Wait(), JobStatus::kDone);
  EXPECT_EQ(h.Result().embeddings, 16u * 15u * 14u);
}

TEST_F(ChaosTest, CacheChurnSeed4) { RunCacheChurnRound(4, 0.05); }

TEST_F(ChaosTest, CacheChurnSeed5) { RunCacheChurnRound(5, 0.15); }

// Update-churn round: standing queries subscribe, update batches apply,
// and subscriptions cancel, all while every fault point (including
// delta_apply and subscriber_notify) is armed and ordinary query jobs run
// on the workers. Contract: no crash, the graph version counts exactly the
// successful applies (a failed apply is atomic), every delivered batch
// folds cleanly or is an honest resync marker, and once the faults stop
// the subsystem still streams exact deltas.
void RunUpdateChurnRound(uint64_t chaos_seed, double fault_rate) {
  SCOPED_TRACE("chaos_seed=" + std::to_string(chaos_seed));
  using daf::testing::MakePath;
  Rng rng(chaos_seed);
  ServiceOptions options;
  options.num_workers = 2;
  options.watchdog_interval_ms = 10;
  options.watchdog_grace_ms = 200;
  options.subscription_queue_batches = 4;  // overflow resyncs are in play
  MatchService service(daf::testing::RandomDataGraph(20, 40, 3, rng),
                       options);
  const uint32_t n = service.Snapshot()->NumVertices();

  auto standing_query = [&] {
    QueryJob job;
    job.query = MakePath({static_cast<Label>(rng.UniformInt(3)),
                          static_cast<Label>(rng.UniformInt(3)),
                          static_cast<Label>(rng.UniformInt(3))});
    return job;
  };
  auto random_batch = [&] {
    dyn::UpdateBatch batch;
    const int ops = 1 + static_cast<int>(rng.UniformInt(3));
    for (int i = 0; i < ops; ++i) {
      const VertexId u = static_cast<VertexId>(rng.UniformInt(n));
      const VertexId v = static_cast<VertexId>(rng.UniformInt(n));
      if (u == v) continue;
      if (rng.Bernoulli(0.5)) {
        batch.InsertEdge(u, v);
      } else {
        batch.RemoveEdge(u, v);
      }
    }
    return batch;
  };

  std::vector<SubscriptionHandle> subs;
  std::vector<JobHandle> handles;
  uint64_t applied = 0;
  {
    ScopedFaultInjection faults(chaos_seed, fault_rate);
    for (int round = 0; round < 60; ++round) {
      switch (rng.UniformInt(5)) {
        case 0: {
          SubscriptionHandle sub = service.Subscribe(standing_query());
          if (sub.ok()) subs.push_back(std::move(sub));
          break;
        }
        case 1:
        case 2: {
          UpdateOutcome out = service.ApplyUpdates(random_batch());
          if (out.ok) {
            ++applied;
          } else {
            EXPECT_FALSE(out.error.empty());
          }
          break;
        }
        case 3: {
          QueryJob job;
          job.query = MakePath({0, 1});
          job.limit = 1000;
          handles.push_back(service.Submit(std::move(job)));
          break;
        }
        default: {
          if (!subs.empty()) {
            const size_t i = rng.UniformInt(subs.size());
            if (rng.Bernoulli(0.5)) {
              subs[i].Unsubscribe();
            } else {
              subs[i].Drain();  // consumers racing delivery
            }
          }
          break;
        }
      }
    }
    service.Drain();
  }

  // Failed applies were atomic: the version counts successes exactly.
  EXPECT_EQ(service.GraphVersion(), applied);
  for (JobHandle& h : handles) {
    EXPECT_TRUE(IsTerminal(h.Status())) << ToString(h.Status());
  }

  // Post-fault correctness probe: a fresh subscription streams exact
  // deltas for one more batch (oracle-style fold against DafMatch).
  QueryJob probe_job = standing_query();
  const Graph probe_query = probe_job.query;
  SubscriptionHandle probe = service.Subscribe(std::move(probe_job));
  ASSERT_TRUE(probe.ok()) << probe.error();
  daf::testing::EmbeddingSet live;
  {
    MatchOptions mo;
    mo.callback = daf::testing::Collector(&live);
    ASSERT_TRUE(DafMatch(probe_query, *service.Snapshot(), mo).ok);
  }
  UpdateOutcome out = service.ApplyUpdates(random_batch());
  ASSERT_TRUE(out.ok) << out.error;
  for (DeltaBatch& db : probe.Drain()) {
    ASSERT_FALSE(db.resync);
    for (EmbeddingDelta& d : db.deltas) {
      if (d.created) {
        EXPECT_TRUE(live.insert(std::move(d.embedding)).second);
      } else {
        EXPECT_EQ(live.erase(d.embedding), 1u);
      }
    }
  }
  daf::testing::EmbeddingSet fresh;
  {
    MatchOptions mo;
    mo.callback = daf::testing::Collector(&fresh);
    ASSERT_TRUE(DafMatch(probe_query, *service.Snapshot(), mo).ok);
  }
  EXPECT_EQ(live, fresh);
}

TEST_F(ChaosTest, UpdateChurnSeed6) { RunUpdateChurnRound(6, 0.05); }

TEST_F(ChaosTest, UpdateChurnSeed7) { RunUpdateChurnRound(7, 0.2); }

TEST_F(ChaosTest, ServiceSurvivesShutdownUnderFaults) {
  // Shutdown mid-burst with faults armed: every admitted job must still
  // resolve to a terminal state before the destructor returns.
  std::vector<JobHandle> handles;
  {
    ScopedFaultInjection faults(11, 0.1);
    ServiceOptions options;
    options.num_workers = 2;
    options.watchdog_interval_ms = 10;
    options.watchdog_grace_ms = 100;
    MatchService service(SmallData(), options);
    for (int i = 0; i < 32; ++i) {
      QueryJob job;
      job.query = i % 2 == 0 ? EasyQuery() : HardQuery();
      job.limit = 100000;
      if (i % 3 == 0) job.max_memory_bytes = 16 * 1024;
      handles.push_back(service.Submit(std::move(job)));
    }
    // No Drain: the destructor shuts down with most jobs still queued.
  }
  for (JobHandle& h : handles) {
    EXPECT_TRUE(IsTerminal(h.Status())) << ToString(h.Status());
  }
}

TEST_F(ChaosTest, WatchdogForceCancelsStuckStreamingJob) {
  // A streaming job whose consumer never drains blocks on backpressure
  // forever; its deadline alone cannot fire while the worker is parked in
  // the stream buffer's cv wait. The watchdog must detect the overdue job,
  // force-cancel it, and free the worker.
  ServiceOptions options;
  options.num_workers = 1;
  options.watchdog_interval_ms = 10;
  options.watchdog_grace_ms = 50;
  MatchService service(MakeClique(std::vector<Label>(12, 0)), options);

  QueryJob stuck;
  stuck.query = EasyQuery();  // 1320 embeddings > the stream buffer
  stuck.stream_embeddings = true;
  stuck.deadline_ms = 30;
  JobHandle handle = service.Submit(std::move(stuck));

  const JobStatus status = handle.Wait();
  EXPECT_TRUE(status == JobStatus::kCancelled ||
              status == JobStatus::kTimedOut)
      << ToString(status);
  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_GE(m.watchdog_fires, 1u);

  // The freed worker serves the next job normally.
  QueryJob next;
  next.query = EasyQuery();
  JobHandle h = service.Submit(std::move(next));
  EXPECT_EQ(h.Wait(), JobStatus::kDone);
}

TEST_F(ChaosTest, WatchdogLeavesDeadlinelessJobsAlone) {
  ServiceOptions options;
  options.num_workers = 1;
  options.watchdog_interval_ms = 5;
  options.watchdog_grace_ms = 10;
  MatchService service(SmallData(), options);
  QueryJob job;
  job.query = HardQuery();
  job.limit = 200000;  // long-ish but bounded, no deadline
  JobHandle handle = service.Submit(std::move(job));
  EXPECT_EQ(handle.Wait(), JobStatus::kDone);
  EXPECT_EQ(service.Metrics().watchdog_fires, 0u);
}

TEST_F(ChaosTest, PerJobBudgetCapsOnlyItsJob) {
  ServiceOptions options;
  options.num_workers = 1;
  MatchService service(SmallData(), options);

  QueryJob capped;
  capped.query = EasyQuery();
  capped.max_memory_bytes = 8 * 1024;
  // The 8 KiB cap is sized to the *cold* path's arena charge; the prepared
  // (cache-hit) path stays under it, which would defeat the test's premise.
  capped.bypass_cache = true;
  JobHandle h1 = service.Submit(std::move(capped));
  EXPECT_EQ(h1.Wait(), JobStatus::kResourceExhausted);
  EXPECT_TRUE(h1.Result().resource_exhausted);

  QueryJob uncapped;  // max_memory_bytes = 0: no per-job limit
  uncapped.query = EasyQuery();
  uncapped.bypass_cache = true;
  JobHandle h2 = service.Submit(std::move(uncapped));
  EXPECT_EQ(h2.Wait(), JobStatus::kDone);
  EXPECT_EQ(h2.Result().embeddings,
            DafMatch(EasyQuery(), SmallData()).embeddings);

  obs::ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.counters.resource_exhausted, 1u);
  EXPECT_GT(m.budget_rejections, 0u);
  EXPECT_GT(m.peak_job_bytes, 0u);
}

}  // namespace
}  // namespace daf::service
