// hprd-zipf: the service, its cross-query cache and the CS build that a
// miss pays. MatchService over the HPRD stand-in (x1.0) with 3 workers
// serves Zipf-popular Q20S patterns, each submission freshly relabeled, so
// only canonical keying can match a resubmission. The pattern pool's
// prepared blobs are several times the cache cap, so hits and misses both
// stay common after warm-up. The gated latency and capacity come from a
// closed loop at a fixed concurrency of twice the workers; an open loop at a
// fixed rate below capacity follows, for the generator's lateness, the
// queue depth and the backlog check. (Open-loop latency on a shared 4-vCPU
// VM is dominated by how fast an idle worker wakes: its p50 ranged over a
// factor of two between identical runs.)
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "daf/candidate_space.h"
#include "daf/engine.h"
#include "daf/match_context.h"
#include "daf/prepared.h"
#include "daf/query_dag.h"
#include "daf/weights.h"
#include "graph/canonical.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "service/match_service.h"
#include "service/query_cache.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace perfbench {
namespace {

constexpr uint64_t kDatasetSeed = 11;  // data graph and pattern pool are fixed
constexpr uint32_t kPatternSize = 20;
constexpr uint32_t kPatterns = 400;
constexpr uint64_t kLimit = 1000;
constexpr uint32_t kWorkers = 3;
constexpr uint32_t kOutstanding = 2 * kWorkers;
constexpr uint64_t kCacheCapBytes = 6ull << 20;
constexpr uint32_t kWarmupRequests = 1500;
constexpr double kOpenLoopRate = 900;  // requests per second
constexpr double kCapacityShare = 0.6;  // of the measured seconds
constexpr int kSetupRepeats = 5;  // before and again after the timed phase
constexpr int kTracedSetups = 3;  // each paired with an untraced one
// Requests of the traced run's sequential replay.
constexpr size_t kSequentialRequests = 3000;

daf::service::ServiceOptions ServiceOptions() {
  daf::service::ServiceOptions options;
  options.num_workers = kWorkers;
  options.queue_capacity = 1u << 20;
  options.cache_max_resident_bytes = kCacheCapBytes;
  options.collect_profiles = false;
  // No job sets a deadline, so the watchdog has nothing to do; without it
  // the process runs the generator and the workers only.
  options.watchdog_interval_ms = 0;
  return options;
}

daf::service::QueryJob Job(daf::Graph query) {
  return LimitedJob(std::move(query), kLimit);
}

struct Served {
  daf::Graph data;
  std::vector<daf::Graph> pool;
  std::unique_ptr<daf::service::MatchService> service;
};

// Submits at `kOpenLoopRate` from `start` until `until`, never waiting for
// completions; then waits for every request.
std::vector<Sent> OpenLoop(daf::service::MatchService& service,
                           ZipfStream& stream, Clock::time_point start,
                           Clock::time_point until, uint64_t* depth_end) {
  std::vector<Sent> sent;
  size_t settled = 0;
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenLoopRate));
  for (Clock::time_point due = start; due < until; due += gap) {
    auto [p, q] = stream.Next();
    std::this_thread::sleep_until(due);
    Sent s;
    s.pattern = p;
    s.due = due;
    s.submitted = Clock::now();
    s.handle = service.Submit(Job(std::move(q)));
    sent.push_back(std::move(s));
    while (settled < sent.size() && sent[settled].handle.Done()) {
      sent[settled++].Settle();
    }
  }
  *depth_end = service.QueueDepth();
  for (; settled < sent.size(); ++settled) sent[settled].Settle();
  return sent;
}

bool Setup(const Args& args, Tracer* tracer, Served* out) {
  ScopedSpan root(tracer, "setup", 0);
  std::string error;
  {
    ScopedSpan span(tracer, "LoadGraph", 0);
    std::optional<daf::Graph> data =
        daf::LoadGraph(args.work_dir + "/data.txt", &error);
    if (!data) {
      std::fprintf(stderr, "load data: %s\n", error.c_str());
      return false;
    }
    out->data = std::move(*data);
  }
  {
    ScopedSpan span(tracer, "LoadQueries", 0);
    out->pool.clear();
    if (!LoadQueries(args.work_dir + "/patterns.txt", &out->pool)) {
      return false;
    }
  }
  {
    ScopedSpan span(tracer, "MatchService", 0);
    out->service.reset();
    out->service = std::make_unique<daf::service::MatchService>(
        out->data, ServiceOptions());
  }
  // Warm-up fills the cache with a fixed request sequence, so set-up cost
  // does not depend on the seed.
  ScopedSpan span(tracer, "warmup", 0);
  ZipfStream warmup(out->pool, kDatasetSeed);
  ClosedLoop(*out->service, warmup, kLimit, kWorkers,
             Clock::time_point::max(), kWarmupRequests, [](const Sent&) {});
  return true;
}

}  // namespace

int RunHprdZipf(const Args& args) {
  Report report(args);
  {
    daf::Graph data = daf::workload::MakeDataset(
        daf::workload::DatasetId::kHprd, 1.0, kDatasetSeed);
    daf::Rng rng(kDatasetSeed);
    daf::workload::QuerySet pool =
        daf::workload::MakeQuerySet(data, kPatternSize, true, kPatterns, rng);
    std::string error;
    if (!daf::SaveGraph(data, args.work_dir + "/data.txt", &error) ||
        !WriteQueries(pool.queries, args.work_dir + "/patterns.txt")) {
      std::fprintf(stderr, "hprd-zipf: cannot write inputs %s\n",
                   error.c_str());
      return 2;
    }
  }

  Served served;
  bool setup_ok = true;
  auto setup = [&] { setup_ok = setup_ok && Setup(args, nullptr, &served); };
  std::vector<double> setup_samples;
  TimeSetups(kSetupRepeats, setup, &setup_samples);
  if (!setup_ok) return 2;
  daf::service::MatchService& service = *served.service;
  const daf::Graph& data = served.data;
  ZipfStream stream(served.pool, args.seed);

  const double seconds = args.trace ? args.seconds * 0.5 : args.seconds;
  // Input synthesis and the repeated set-ups are not the service's memory.
  ResetPeakRss();
  // Per pattern, how many jobs reported each embedding count, checked
  // against DafMatch once timing is over.
  std::vector<std::map<uint64_t, uint64_t>> counts(served.pool.size());
  auto tally = [&](const Sent& s) {
    report.Attempted(1);
    if (s.status != daf::service::JobStatus::kDone) {
      report.Fail(std::string("job ended ") +
                  daf::service::ToString(s.status));
    } else {
      ++counts[s.pattern][s.embeddings];
    }
  };
  // Capacity and latency at a fixed concurrency of kOutstanding requests,
  // twice the workers, so no worker idles between jobs.
  Capacity closed;
  if (!args.trace) {
    closed = CapacityPhase(service, stream, kLimit, kOutstanding,
                           seconds * kCapacityShare, tally);
  }
  const daf::obs::ServiceMetricsSnapshot before = service.Metrics();
  const Clock::time_point open_start = Clock::now();
  const uint64_t depth_start = service.QueueDepth();
  uint64_t depth_end = 0;
  std::vector<Sent> open = OpenLoop(
      service, stream, open_start,
      open_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           seconds * (args.trace ? 1.0 : 1 - kCapacityShare))),
      &depth_end);
  const double peak_rss = PeakRssMb();
  const daf::obs::ServiceMetricsSnapshot after = service.Metrics();

  // Untimed checks: every job's count against DafMatch on its unpermuted
  // pattern, and the cache's accounting invariant.
  for (const Sent& s : open) tally(s);
  std::vector<std::optional<uint64_t>> expected(served.pool.size());
  daf::MatchContext check_context;
  for (uint32_t p = 0; p < counts.size(); ++p) {
    if (counts[p].empty()) continue;
    daf::MatchOptions options;
    options.limit = kLimit;
    expected[p] =
        daf::DafMatch(served.pool[p], data, options, &check_context)
            .embeddings;
    for (const auto& [embeddings, jobs] : counts[p]) {
      if (embeddings != *expected[p]) {
        report.Fail("pattern " + std::to_string(p) + ": " +
                        std::to_string(embeddings) +
                        " embeddings, expected " + std::to_string(*expected[p]),
                    jobs);
      }
    }
  }
  const double hit_rate =
      CheckServiceRun(before, after, kOpenLoopRate, depth_start, depth_end,
                      &report);

  // Open-loop latency per window by due time; the median window's quantile
  // is recorded.
  const std::vector<std::vector<double>> windows =
      LatencyWindows(open, open_start);
  std::vector<double> late, wait, run_hit, run_miss;
  for (const Sent& s : open) {
    late.push_back(MsBetween(s.due, s.submitted));
    wait.push_back(s.wait_ms);
    (s.outcome == daf::service::CacheOutcome::kMiss ? run_miss : run_hit)
        .push_back(s.run_ms);
  }
  report.RecordNumber("open_loop_rate", kOpenLoopRate);
  report.RecordNumber("open_loop_requests", static_cast<double>(open.size()));
  report.RecordNumber("queue_depth_start", static_cast<double>(depth_start));
  report.RecordNumber("queue_depth_end", static_cast<double>(depth_end));
  report.RecordNumber("cache_hit_rate", hit_rate);
  report.RecordNumber("loadgen_late_p99_ms", Quantile(late, 0.99));

  if (!args.trace) {
    // The second half of the set-ups; they replace the service.
    TimeSetups(kSetupRepeats, setup, &setup_samples);
    if (!setup_ok) return 2;
    report.EndToEnd("setup_s", Median(setup_samples), "s");
    report.RecordNumbers("setup_samples_s", setup_samples);
    report.EndToEnd("query_p50_ms", Median(closed.window_p50_ms), "ms");
    report.EndToEnd("query_p95_ms", Median(closed.window_p95_ms), "ms");
    report.EndToEnd("throughput_qps", Median(closed.window_qps), "1/s");
    report.RecordNumbers("closed_window_qps", closed.window_qps);
    report.RecordNumbers("closed_window_steal", closed.window_steal);
    report.EndToEnd("peak_rss_mb", peak_rss, "MiB");

    for (const auto& [name, q] : {std::pair{"open_loop_p50_ms", 0.50},
                                  std::pair{"open_loop_p95_ms", 0.95},
                                  std::pair{"open_loop_p99_ms", 0.99}}) {
      report.RecordNumber(name, Median(WindowQuantiles(windows, q)));
    }

    return report.Finish();
  }

  // Traced run. The open loop above gives the service-layer metrics; its
  // spans are reconstructed from the timings each JobHandle reports.
  Tracer tracer;
  for (size_t i = 0; i < open.size(); ++i) {
    const Sent& s = open[i];
    const auto ms = [](double v) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(v));
    };
    const Clock::time_point picked = s.submitted + ms(s.wait_ms);
    const Clock::time_point done = picked + ms(s.run_ms);
    const int32_t root = tracer.Add("service.request", s.due, done, -1, i + 1);
    tracer.Add("loadgen.late", s.due, s.submitted, root, i + 1);
    tracer.Add("admission.wait", s.submitted, picked, root, i + 1);
    tracer.Add("job.run", picked, done, root, i + 1);
  }
  report.Layer("admission.wait_p50_ms", Quantile(wait, 0.50), "ms");
  report.Layer("admission.wait_p99_ms", Quantile(wait, 0.99), "ms");
  report.Layer("job.run_hit_p50_ms", Quantile(run_hit, 0.50), "ms");
  report.Layer("job.run_miss_p50_ms", Quantile(run_miss, 0.50), "ms");
  report.Layer("loadgen.late_p99_ms", Quantile(late, 0.99), "ms");
  report.Layer("loadgen.queue_depth_start", static_cast<double>(depth_start),
               "count");
  report.Layer("loadgen.queue_depth_end", static_cast<double>(depth_end),
               "count");
  report.Layer("cache.hit_rate", hit_rate, "ratio");
  report.Layer("cache.evictions",
               static_cast<double>(after.cache_evictions -
                                   before.cache_evictions),
               "count");
  report.Layer("cache.coalesced",
               static_cast<double>(after.cache_coalesced -
                                   before.cache_coalesced),
               "count");
  report.Layer("cache.resident_mb",
               static_cast<double>(after.cache_resident_bytes) / (1 << 20),
               "MiB");

  // Sequential replay of the open loop's request sequence (the capacity
  // phase is skipped in traced runs): each request first through a freshly
  // set-up service, one at a time (the untraced reference), then through the
  // layers its job calls -- the cache, then the prepared search -- with a
  // span around each call. Both caches start from the same warm-up.
  // Traced set-ups alternate with untraced ones, since set-up time drifts
  // with the host over a run; the last traced one serves the replay.
  served.service.reset();
  Served traced;
  std::vector<double> paired_setups;
  for (int i = 0; i < kTracedSetups; ++i) {
    TimeSetups(1, setup, &paired_setups);
    served.service.reset();
    if (!setup_ok || !Setup(args, &tracer, &traced)) return 2;
  }
  daf::service::QueryCacheOptions cache_options;
  cache_options.max_resident_bytes = kCacheCapBytes;
  daf::service::QueryCache cache(cache_options);
  daf::MatchContext context;
  daf::MatchOptions options;
  options.limit = kLimit;
  {
    ZipfStream warmup(served.pool, kDatasetSeed);
    for (uint32_t i = 0; i < kWarmupRequests; ++i) {
      cache.Acquire(warmup.Next().second, data, options);
    }
  }
  ZipfStream replay(served.pool, args.seed);
  const size_t sequential = std::min(open.size(), kSequentialRequests);
  std::vector<daf::CanonicalQuery> missed;
  std::vector<daf::Graph> missed_query;
  daf::obs::SearchProfile profile;
  daf::obs::BacktrackProfile bt_total;
  uint64_t calls = 0, embeddings = 0;
  double traced_ms = 0, reference_ms = 0;
  for (size_t i = 0; i < sequential; ++i) {
    auto [p, q] = replay.Next();
    daf::service::JobHandle reference = traced.service->Submit(Job(q));
    reference.Wait();
    reference_ms += reference.run_ms();

    const uint64_t id = i + 1;
    const Clock::time_point t0 = Clock::now();
    const int32_t root = tracer.Begin("request", id);
    const daf::service::QueryCache::Lease lease =
        cache.Acquire(q, data, options);
    const bool miss = lease.outcome == daf::service::CacheOutcome::kMiss;
    // Named by outcome, so hit and miss costs separate.
    tracer.Add(miss ? "QueryCache::Acquire.miss" : "QueryCache::Acquire.hit",
               t0, Clock::now(), root, id);
    daf::MatchResult r;
    {
      ScopedSpan span(&tracer, "DafMatchPrepared", id);
      r = daf::DafMatchPrepared(*lease.prepared, data, options, &context);
    }
    tracer.End(root);
    traced_ms += MsBetween(t0, Clock::now());
    if (miss) {
      missed.push_back(lease.form);
      missed_query.push_back(q);
    }
    // The prune and kernel counters come from an untimed profiled rerun.
    daf::MatchOptions profiled = options;
    profiled.profile = &profile;
    daf::DafMatchPrepared(*lease.prepared, data, profiled, &context);
    bt_total.MergeFrom(profile.backtrack);
    calls += r.recursive_calls;
    embeddings += r.embeddings;
    report.Attempted(1);
    if (r.embeddings != reference.Result().embeddings ||
        (expected[p] && r.embeddings != *expected[p])) {
      report.Fail("staged replay count differs on request " +
                  std::to_string(i));
    }
  }
  traced.service.reset();

  // What a miss pays, stage by stage: canonical graph, DAG, CS, weights.
  uint64_t candidates = 0, initial = 0, cs_edges = 0;
  for (size_t i = 0; i < missed.size(); ++i) {
    ScopedSpan root(&tracer, "prepare", i + 1);
    {
      ScopedSpan span(&tracer, "CanonicalizeQuery", i + 1);
      daf::CanonicalizeQuery(missed_query[i]);
    }
    std::optional<daf::Graph> canonical;
    {
      ScopedSpan span(&tracer, "BuildCanonicalGraph", i + 1);
      canonical.emplace(daf::BuildCanonicalGraph(missed_query[i], missed[i]));
    }
    context.arena().Reset();
    std::optional<daf::QueryDag> dag;
    {
      ScopedSpan span(&tracer, "QueryDag::Build", i + 1);
      dag.emplace(daf::QueryDag::Build(*canonical, data));
    }
    std::optional<daf::CandidateSpace> cs;
    {
      ScopedSpan span(&tracer, "CandidateSpace::Build", i + 1);
      cs.emplace(daf::CandidateSpace::Build(*canonical, *dag, data, {},
                                            &context.arena(),
                                            &context.cs_scratch()));
    }
    {
      ScopedSpan span(&tracer, "WeightArray::Compute", i + 1);
      daf::WeightArray::Compute(*dag, *cs, &context.arena());
    }
    candidates += cs->TotalCandidates();
    cs_edges += cs->TotalEdges();
    for (daf::VertexId u = 0; u < canonical->NumVertices(); ++u) {
      initial += dag->InitialCandidateCount(u);
    }
  }

  const auto totals = tracer.Totals();
  const double n = static_cast<double>(std::max<size_t>(sequential, 1));
  const double misses = static_cast<double>(std::max<size_t>(missed.size(), 1));
  const double search_ms = SelfMs(totals, {"DafMatchPrepared"});
  report.Layer("graph.load_ms", MeanSelfMs(totals, "LoadGraph"), "ms");
  report.Layer("canon.ms", MeanSelfMs(totals, "CanonicalizeQuery"), "ms");
  report.Layer("cache.acquire_hit_ms",
               MeanSelfMs(totals, "QueryCache::Acquire.hit"), "ms");
  report.Layer("cache.acquire_miss_ms",
               MeanSelfMs(totals, "QueryCache::Acquire.miss"), "ms");
  report.Layer("dag.build_ms", MeanSelfMs(totals, "QueryDag::Build"), "ms");
  report.Layer("cs.build_ms", MeanSelfMs(totals, "CandidateSpace::Build"),
               "ms");
  report.Layer("cs.candidates", static_cast<double>(candidates) / misses,
               "count");
  report.Layer("cs.edges", static_cast<double>(cs_edges) / misses, "count");
  report.Layer("cs.filter_ratio",
               initial ? static_cast<double>(candidates) /
                             static_cast<double>(initial)
                       : 0,
               "ratio");
  report.Layer("weights.ms", MeanSelfMs(totals, "WeightArray::Compute"), "ms");
  report.Layer("search.ms", MeanSelfMs(totals, "DafMatchPrepared"), "ms");
  report.Layer("search.calls", static_cast<double>(calls) / n, "count");
  report.Layer("search.calls_per_s",
               search_ms > 0 ? static_cast<double>(calls) / (search_ms / 1e3)
                             : 0,
               "1/s");
  report.Layer("search.embeddings_per_call",
               calls ? static_cast<double>(embeddings) /
                           static_cast<double>(calls)
                     : 0,
               "ratio");
  report.Layer("search.failing_set_skips",
               static_cast<double>(bt_total.failing_set_skips) / n, "count");
  report.Layer("search.conflict_prunes",
               static_cast<double>(bt_total.conflict_prunes) / n, "count");
  report.Layer("search.intersect_merge",
               static_cast<double>(bt_total.intersect_merge) / n, "count");
  report.Layer("search.intersect_gallop",
               static_cast<double>(bt_total.intersect_gallop) / n, "count");
  report.Layer("search.intersect_simd",
               static_cast<double>(bt_total.intersect_simd) / n, "count");
  report.Layer("search.intersect_bitmap",
               static_cast<double>(bt_total.intersect_bitmap) / n, "count");
  const double layer_ms =
      SelfMs(totals, {"QueryCache::Acquire.hit", "QueryCache::Acquire.miss"}) +
      search_ms;
  report.Layer("trace.overhead_ms", (traced_ms - reference_ms) / n, "ms");
  const double accounted = layer_ms / reference_ms;
  const double setup_accounted =
      SelfMs(totals, {"LoadGraph", "LoadQueries", "MatchService", "warmup"}) /
      (std::accumulate(paired_setups.begin(), paired_setups.end(), 0.0) *
       1e3);
  report.Layer("trace.accounted_ratio", accounted, "ratio");
  report.Layer("trace.setup_accounted_ratio", setup_accounted, "ratio");
  CheckAccounting(accounted, setup_accounted, &report);
  RecordLayerShares(tracer, &report);
  report.RecordNumber("reference_run_ms", reference_ms);
  report.RecordNumber("traced_ms", traced_ms);
  tracer.Write(args.trace_path);
  return report.Finish();
}

}  // namespace perfbench
