// rmat-rw: writes that cost reads. A MatchService with a DurableStore (WAL
// fsync policy off) over a 2^15-vertex R-MAT graph carries standing
// subscriptions; one generator applies 500-op update batches at a fixed
// rate and interleaves Zipf-popular read queries, first as a closed loop
// (the gated read capacity and latency under the update stream), then at a
// fixed rate. Set-up is recovery: a snapshot plus a WAL of several hundred
// batches written in an untimed pre-phase. Every batch runs the dynamic CS,
// delta enumeration and WAL layers, bumps the graph version (invalidating
// cache keys), and makes the next read pay materialization.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "daf/dynamic_cs.h"
#include "daf/engine.h"
#include "daf/match_context.h"
#include "daf/prepared.h"
#include "dyn/delta_enumerate.h"
#include "dyn/delta_graph.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "persist/snapshot.h"
#include "persist/store.h"
#include "service/match_service.h"
#include "service/query_cache.h"
#include "util/rng.h"
#include "workload/querygen.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kDatasetSeed = 13;  // graph, WAL pre-phase and read pool
constexpr uint32_t kRmatScale = 15;
constexpr uint64_t kRmatEdges = 100000;
constexpr uint32_t kLabels = 24;
constexpr uint32_t kPrephaseBatches = 300;
constexpr uint64_t kBatchOps = 500;
constexpr double kUpdateRate = 5;   // batches per second
constexpr double kReadRate = 200;   // read queries per second
constexpr uint32_t kReadPatterns = 16;
constexpr uint32_t kReadPatternSize = 6;
constexpr uint64_t kReadLimit = 1000;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kOutstanding = 8 * kWorkers;  // closed-loop concurrency
constexpr double kCapacityShare = 0.5;  // of the measured seconds
constexpr uint32_t kWarmupReads = 64;
constexpr uint64_t kVerifyEvery = 25;  // versions between folded-count checks
constexpr int kSetupRepeats = 7;  // before and again after the timed phase

daf::dyn::DeltaGraph::Options DeltaOptions() { return {}; }

daf::persist::DurableStore::Options StoreOptions() {
  daf::persist::DurableStore::Options options;
  options.fsync_policy = daf::persist::FsyncPolicy::kOff;
  options.delta_options = DeltaOptions();
  return options;
}

// Standing queries over the most frequent labels, so batches regularly
// create and destroy embeddings.
std::vector<daf::Graph> StandingQueries() {
  return {daf::Graph::FromEdges({1, 0, 2}, {{0, 1}, {1, 2}}),
          daf::Graph::FromEdges({0, 1, 2}, {{0, 1}, {1, 2}, {2, 0}})};
}

// `kBatchOps` operations against the current graph: half removals of
// existing edges, half insertions of absent pairs.
daf::dyn::UpdateBatch MakeBatch(const daf::dyn::DeltaGraph& g, daf::Rng& rng) {
  const uint32_t n = g.NumVertices();
  daf::dyn::UpdateBatch batch;
  for (uint64_t i = 0; i < kBatchOps / 2; ++i) {
    const auto u = static_cast<daf::VertexId>(rng.UniformInt(n));
    if (!g.Alive(u) || g.Degree(u) == 0) continue;
    uint64_t pick = rng.UniformInt(g.Degree(u));
    g.ForEachNeighbor(u, [&](daf::VertexId w, daf::Label) {
      if (pick-- == 0) {
        batch.RemoveEdge(u, w);
        return false;
      }
      return true;
    });
  }
  for (uint64_t i = 0; i < kBatchOps - kBatchOps / 2; ++i) {
    const auto u = static_cast<daf::VertexId>(rng.UniformInt(n));
    const auto v = static_cast<daf::VertexId>(rng.UniformInt(n));
    if (u != v && g.Alive(u) && g.Alive(v) && !g.HasEdge(u, v)) {
      batch.InsertEdge(u, v);
    }
  }
  return batch;
}

daf::service::QueryJob ReadJob(daf::Graph query) {
  return LimitedJob(std::move(query), kReadLimit);
}

// The untimed pre-phase: a fresh store seeded with the base graph, then
// `kPrephaseBatches` batches appended to its WAL without a checkpoint.
// Returns the graph state the WAL ends at.
std::optional<daf::dyn::DeltaGraph> WritePrephase(const daf::Graph& base,
                                                  const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string error;
  auto store = daf::persist::DurableStore::Open(dir, StoreOptions(), &error);
  if (store == nullptr || !store->InitializeFresh(base, 0, &error)) {
    std::fprintf(stderr, "rmat-rw: pre-phase store: %s\n", error.c_str());
    return std::nullopt;
  }
  daf::dyn::DeltaGraph g(base, DeltaOptions());
  daf::Rng rng(kDatasetSeed + 1);
  for (uint32_t b = 1; b <= kPrephaseBatches; ++b) {
    daf::dyn::UpdateBatch batch = MakeBatch(g, rng);
    daf::dyn::NormalizedBatch net;
    if (!g.Normalize(batch, &net, &error) ||
        !store->AppendBatch(net, batch.add_vertices, b, &error) ||
        !g.ApplyNormalized(net, batch.add_vertices).ok) {
      std::fprintf(stderr, "rmat-rw: pre-phase batch %u: %s\n", b,
                   error.c_str());
      return std::nullopt;
    }
  }
  return g;
}

struct Served {
  std::vector<daf::Graph> pool;
  std::unique_ptr<daf::service::MatchService> service;
  std::vector<daf::service::SubscriptionHandle> subs;
  std::vector<int64_t> live;  // folded embedding count per subscription
  uint64_t recovered_version = 0;
  uint64_t recovered_edges = 0;
};

// Recovery, service, subscriptions with their initial result sets, and a
// fixed warm-up read sequence.
bool Setup(const Args& args, const std::string& store_dir, Tracer* tracer,
           Served* out) {
  ScopedSpan root(tracer, "setup", 0);
  out->subs.clear();
  out->service.reset();
  std::string error;
  {
    ScopedSpan span(tracer, "LoadQueries", 0);
    out->pool.clear();
    if (!LoadQueries(args.work_dir + "/reads.txt", &out->pool)) return false;
  }
  std::shared_ptr<daf::persist::DurableStore> store;
  {
    ScopedSpan span(tracer, "DurableStore::Open", 0);
    store = daf::persist::DurableStore::Open(store_dir, StoreOptions(),
                                             &error);
  }
  if (store == nullptr || !store->has_state()) {
    std::fprintf(stderr, "rmat-rw: recovery failed: %s\n", error.c_str());
    return false;
  }
  {
    ScopedSpan span(tracer, "MatchService", 0);
    daf::service::ServiceOptions options;
    options.num_workers = kWorkers;
    options.queue_capacity = 1u << 20;
    options.collect_profiles = false;
    options.watchdog_interval_ms = 0;  // no deadlines to enforce
    options.data_store = std::move(store);
    out->service = std::make_unique<daf::service::MatchService>(
        daf::Graph(), std::move(options));
  }
  std::shared_ptr<const daf::Graph> snapshot;
  {
    ScopedSpan span(tracer, "MatchService::Snapshot", 0);
    snapshot = out->service->Snapshot();
  }
  out->recovered_version = out->service->GraphVersion();
  out->recovered_edges = snapshot->NumEdges();
  out->live.clear();
  for (const daf::Graph& q : StandingQueries()) {
    {
      ScopedSpan span(tracer, "MatchService::Subscribe", 0);
      daf::service::QueryJob job;
      job.query = q;
      out->subs.push_back(out->service->Subscribe(std::move(job)));
    }
    if (!out->subs.back().ok()) {
      std::fprintf(stderr, "rmat-rw: subscribe: %s\n",
                   out->subs.back().error().c_str());
      return false;
    }
    ScopedSpan span(tracer, "DafMatch", 0);
    out->live.push_back(
        static_cast<int64_t>(daf::DafMatch(q, *snapshot, {}).embeddings));
  }
  ScopedSpan span(tracer, "warmup", 0);
  ZipfStream warmup(out->pool, kDatasetSeed);
  for (uint32_t i = 0; i < kWarmupReads; ++i) {
    out->service->Submit(ReadJob(warmup.Next().second));
  }
  out->service->Drain();
  return true;
}

// One operation of the generator's merged schedule.
struct Op {
  bool update = false;
  size_t index = 0;  // into the batch list or the read list
  Clock::time_point due;
};

// `batches` update batches at kUpdateRate from `start` and `reads` reads at
// kReadRate from `read_start`, merged in due order.
std::vector<Op> Schedule(Clock::time_point start, size_t batches,
                         Clock::time_point read_start, size_t reads) {
  std::vector<Op> ops;
  auto at = [](Clock::time_point from, double s) {
    return from + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
  };
  for (size_t i = 0; i < batches; ++i) {
    ops.push_back(
        {true, i, at(start, (static_cast<double>(i) + 0.5) / kUpdateRate)});
  }
  for (size_t i = 0; i < reads; ++i) {
    ops.push_back(
        {false, i, at(read_start, static_cast<double>(i) / kReadRate)});
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& a, const Op& b) { return a.due < b.due; });
  return ops;
}

struct LoopResult {
  std::vector<double> update_ms;  // due -> applied and drained
  std::vector<Sent> reads;        // open-loop reads
  std::vector<double> late_ms;
  uint64_t depth_start = 0;
  uint64_t depth_end = 0;
};

}  // namespace

int RunRmatRw(const Args& args) {
  Report report(args);
  const std::vector<daf::Graph> standing = StandingQueries();

  // Inputs: the graph, the read pattern pool and the recovered store.
  daf::Graph base;
  {
    daf::Rng rng(kDatasetSeed);
    const uint32_t n = 1u << kRmatScale;
    std::vector<daf::Edge> edges =
        daf::RmatEdges(kRmatScale, kRmatEdges, 0.57, 0.19, 0.19, rng);
    daf::ConnectComponents(n, &edges, rng);
    base = daf::Graph::FromEdges(daf::ZipfLabels(n, kLabels, 0.7, rng),
                                 edges);
    daf::workload::QuerySet pool = daf::workload::MakeQuerySet(
        base, kReadPatternSize, true, kReadPatterns, rng);
    if (!WriteQueries(pool.queries, args.work_dir + "/reads.txt")) return 2;
  }
  std::optional<daf::dyn::DeltaGraph> mirror =
      WritePrephase(base, args.work_dir + "/store");
  if (!mirror) return 2;
  const uint64_t prephase_version = mirror->version();
  const uint64_t prephase_edges = mirror->NumEdges();

  // This seed's update stream, pre-generated against a mirror of the
  // graph, with fresh DafMatch counts at sampled versions (untimed).
  // Untraced runs give the first kCapacityShare of the time to a closed
  // read loop and the rest to the open loop; traced runs replay an open
  // loop of half the measured time.
  const double seconds = args.trace ? args.seconds * 0.5 : args.seconds;
  const double closed_s = args.trace ? 0 : seconds * kCapacityShare;
  const auto batch_count = static_cast<size_t>(seconds * kUpdateRate);
  const auto read_count =
      static_cast<size_t>((seconds - closed_s) * kReadRate);
  std::vector<daf::dyn::UpdateBatch> batches;
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> expected;
  {
    daf::Rng rng(args.seed);
    for (size_t i = 0; i < batch_count; ++i) {
      batches.push_back(MakeBatch(*mirror, rng));
      std::string error;
      daf::dyn::NormalizedBatch net;
      if (!mirror->Normalize(batches.back(), &net, &error)) return 2;
      mirror->ApplyNormalized(net, batches.back().add_vertices);
      if ((i + 1) % kVerifyEvery == 0 || i + 1 == batch_count) {
        std::shared_ptr<const daf::Graph> g = mirror->Materialize();
        std::vector<uint64_t> counts;
        for (const daf::Graph& q : standing) {
          counts.push_back(daf::DafMatch(q, *g, {}).embeddings);
        }
        expected.emplace_back(mirror->version(), std::move(counts));
      }
    }
  }

  // The set-ups after the timed phase recover a second copy of the
  // pre-phase store, since the timed phase appends to the first.
  if (!args.trace && !WritePrephase(base, args.work_dir + "/store-late")) {
    return 2;
  }
  // Harness-only memory goes before the service starts.
  mirror.reset();
  if (!args.trace) base = daf::Graph();

  Served served;
  bool setup_ok = true;
  std::string store_dir = args.work_dir + "/store";
  auto setup = [&] {
    setup_ok = setup_ok && Setup(args, store_dir, nullptr, &served);
    if (served.recovered_version != prephase_version ||
        served.recovered_edges != prephase_edges) {
      report.Invalid("recovered v" + std::to_string(served.recovered_version) +
                     " with " + std::to_string(served.recovered_edges) +
                     " edges, pre-phase wrote v" +
                     std::to_string(prephase_version) + " with " +
                     std::to_string(prephase_edges));
    }
  };
  std::vector<double> setup_samples;
  TimeSetups(kSetupRepeats, setup, &setup_samples);
  if (!setup_ok) return 2;
  daf::service::MatchService& service = *served.service;
  LoopResult loop;

  // One generator drives everything. An update blocks it until the batch
  // is applied and every subscription has drained its delta; the folded
  // counts are compared with the fresh ones at the sampled versions.
  size_t checked = 0;
  auto apply = [&](size_t index, Clock::time_point due) {
    report.Attempted(1);
    const Clock::time_point t0 = Clock::now();
    const daf::service::UpdateOutcome out =
        service.ApplyUpdates(batches[index]);
    if (!out.ok) {
      report.Fail("batch " + std::to_string(index) + " rejected: " + out.error);
      return;
    }
    for (size_t s = 0; s < served.subs.size(); ++s) {
      for (const daf::service::DeltaBatch& db : served.subs[s].Drain()) {
        if (db.resync) report.Fail("unexpected resync");
        for (const daf::service::EmbeddingDelta& d : db.deltas) {
          served.live[s] += d.created ? 1 : -1;
        }
      }
    }
    const Clock::time_point t1 = Clock::now();
    loop.update_ms.push_back(MsBetween(due, t1));
    loop.late_ms.push_back(MsBetween(due, t0));
    while (checked < expected.size() &&
           expected[checked].first == out.version) {
      for (size_t s = 0; s < served.live.size(); ++s) {
        if (served.live[s] !=
            static_cast<int64_t>(expected[checked].second[s])) {
          report.Fail("subscription " + std::to_string(s) + " at v" +
                      std::to_string(out.version) + ": folded " +
                      std::to_string(served.live[s]) + " != fresh " +
                      std::to_string(expected[checked].second[s]));
        }
      }
      ++checked;
    }
  };

  // Updates stay on their fixed-rate schedule throughout. The closed loop
  // keeps kOutstanding reads in flight and applies each batch as it falls
  // due; the open loop then submits reads on the same schedule, never
  // waiting for completions.
  ZipfStream read_stream(served.pool, args.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<daf::Graph> reads;
  for (size_t i = 0; i < read_count; ++i) {
    reads.push_back(read_stream.Next().second);
  }
  // Input synthesis and the repeated set-ups are not the service's memory.
  ResetPeakRss();
  const Clock::time_point start = Clock::now();
  const Clock::time_point read_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(closed_s));
  const std::vector<Op> ops =
      Schedule(start, batches.size(), read_start, reads.size());
  size_t next = 0;
  auto settled_read = [&](const Sent& r) {
    report.Attempted(1);
    if (r.status != daf::service::JobStatus::kDone) {
      report.Fail(std::string("read ended ") +
                  daf::service::ToString(r.status));
    }
  };
  Capacity closed;
  if (closed_s > 0) {
    closed = CapacityPhase(
        service, read_stream, kReadLimit, kOutstanding, closed_s, settled_read,
        [&] {
          for (; next < ops.size() && ops[next].update &&
                 ops[next].due <= Clock::now();
               ++next) {
            apply(ops[next].index, ops[next].due);
          }
        });
  }
  const daf::obs::ServiceMetricsSnapshot open_before = service.Metrics();
  loop.depth_start = service.QueueDepth();
  size_t settled = 0;
  for (; next < ops.size(); ++next) {
    const Op& op = ops[next];
    std::this_thread::sleep_until(op.due);
    if (op.update) {
      apply(op.index, op.due);
      continue;
    }
    Sent sent;
    sent.due = op.due;
    sent.submitted = Clock::now();
    loop.late_ms.push_back(MsBetween(op.due, sent.submitted));
    sent.handle = service.Submit(ReadJob(reads[op.index]));
    loop.reads.push_back(std::move(sent));
    while (settled < loop.reads.size() && loop.reads[settled].handle.Done()) {
      loop.reads[settled++].Settle();
    }
  }
  loop.depth_end = service.QueueDepth();
  for (; settled < loop.reads.size(); ++settled) loop.reads[settled].Settle();
  const double peak_rss = PeakRssMb();
  const daf::obs::ServiceMetricsSnapshot after = service.Metrics();

  if (checked != expected.size()) {
    report.Fail("only " + std::to_string(checked) + " of " +
                std::to_string(expected.size()) +
                " sampled versions were checked");
  }
  std::vector<double> wait_ms;
  for (const Sent& r : loop.reads) {
    settled_read(r);
    wait_ms.push_back(r.wait_ms);
  }
  // The open loop's cache hit rate, backlog and accounting invariant.
  const double hit_rate = CheckServiceRun(open_before, after, kReadRate,
                                          loop.depth_start, loop.depth_end,
                                          &report);
  std::vector<double> update_sorted = loop.update_ms;
  report.RecordNumber("update_rate", kUpdateRate);
  report.RecordNumber("read_rate", kReadRate);
  report.RecordNumber("update_p50_ms", Quantile(update_sorted, 0.50));
  report.RecordNumber("update_p95_ms", Quantile(update_sorted, 0.95));
  report.RecordNumber("update_p99_ms", Quantile(update_sorted, 0.99));
  report.RecordNumber("cache_hit_rate", hit_rate);
  report.RecordNumber("queue_depth_start",
                      static_cast<double>(loop.depth_start));
  report.RecordNumber("queue_depth_end", static_cast<double>(loop.depth_end));
  report.RecordNumber("loadgen_late_p99_ms", Quantile(loop.late_ms, 0.99));

  if (!args.trace) {
    // The second half of the set-ups; they replace the service.
    store_dir = args.work_dir + "/store-late";
    TimeSetups(kSetupRepeats, setup, &setup_samples);
    if (!setup_ok) return 2;
    report.EndToEnd("setup_s", Median(setup_samples), "s");
    report.RecordNumbers("setup_samples_s", setup_samples);
    // Read latency and capacity under the update stream: each batch bumps
    // the version, so the next reads pay materialization and cache misses,
    // and reads stall while the generator applies a batch.
    report.EndToEnd("query_p50_ms", Median(closed.window_p50_ms), "ms");
    report.EndToEnd("query_p95_ms", Median(closed.window_p95_ms), "ms");
    report.EndToEnd("throughput_qps", Median(closed.window_qps), "1/s");
    report.RecordNumbers("closed_window_qps", closed.window_qps);
    report.RecordNumbers("closed_window_steal", closed.window_steal);
    report.EndToEnd("peak_rss_mb", peak_rss, "MiB");
    const std::vector<std::vector<double>> windows =
        LatencyWindows(loop.reads, read_start);
    report.RecordNumber("open_loop_p50_ms",
                        Median(WindowQuantiles(windows, 0.50)));
    report.RecordNumber("open_loop_p95_ms",
                        Median(WindowQuantiles(windows, 0.95)));

    return report.Finish();
  }

  // Traced run: the loop above gives the service-level metrics. Now the
  // same recovery and the same operations, single-threaded, through the
  // layers ApplyUpdates and a read job call, with a span around each call.
  served.subs.clear();
  served.service.reset();
  report.Layer("update.p50_ms", Quantile(update_sorted, 0.50), "ms");
  report.Layer("update.p99_ms", Quantile(update_sorted, 0.99), "ms");
  report.Layer("cache.hit_rate", hit_rate, "ratio");
  report.Layer("admission.wait_p50_ms", Quantile(wait_ms, 0.50), "ms");
  report.Layer("admission.wait_p99_ms", Quantile(wait_ms, 0.99), "ms");
  report.Layer("loadgen.late_p99_ms", Quantile(loop.late_ms, 0.99), "ms");
  report.Layer("loadgen.queue_depth_start",
               static_cast<double>(loop.depth_start), "count");
  report.Layer("loadgen.queue_depth_end", static_cast<double>(loop.depth_end),
               "count");

  // The untraced reference for the update path: a second recovered service
  // that applies each batch just before its staged replay, with no reads.
  const std::string dir = args.work_dir + "/store";
  const std::string reference_dir = args.work_dir + "/store-reference";
  if (!WritePrephase(base, dir) || !WritePrephase(base, reference_dir)) {
    return 2;
  }
  Tracer tracer;
  Served traced;
  if (!Setup(args, dir, &tracer, &traced)) return 2;
  traced.subs.clear();
  traced.service.reset();
  Served reference;
  if (!Setup(args, reference_dir, nullptr, &reference)) return 2;

  // Snapshot load on its own, to split recovery into load and WAL replay.
  std::string snapshot_file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0) snapshot_file = entry.path().string();
  }
  std::string error;
  {
    ScopedSpan span(&tracer, "persist::LoadSnapshot", 0);
    if (!daf::persist::LoadSnapshot(snapshot_file, nullptr, &error)) {
      report.Invalid("snapshot load: " + error);
    }
  }
  std::unique_ptr<daf::persist::DurableStore> store;
  {
    ScopedSpan span(&tracer, "recovery.DurableStore::Open", 0);
    store = daf::persist::DurableStore::Open(dir, StoreOptions(), &error);
  }
  if (store == nullptr || !store->has_state()) return 2;
  const uint64_t replayed = store->recovery().wal_records_replayed;
  daf::dyn::DeltaGraph g = store->TakeRecoveredGraph();

  std::vector<std::unique_ptr<daf::dyn::DynamicCandidateSpace>> css;
  std::vector<std::unique_ptr<daf::dyn::DeltaEnumerator>> enums;
  for (const daf::Graph& q : standing) {
    css.push_back(std::make_unique<daf::dyn::DynamicCandidateSpace>(
        q, g, daf::dyn::DynamicCandidateSpace::Options{}));
    enums.push_back(
        std::make_unique<daf::dyn::DeltaEnumerator>(q, *css.back()));
  }
  daf::service::QueryCache cache;
  daf::MatchContext context;
  daf::MatchOptions read_options;
  read_options.limit = kReadLimit;
  std::shared_ptr<const daf::Graph> snapshot;
  uint64_t snapshot_version = UINT64_MAX;
  uint64_t dirty = 0, rebuilds = 0, maintains = 0, delta_calls = 0,
           delta_runs = 0, delta_embeddings = 0, wal_bytes = 0,
           checkpoints = 0;
  double traced_update_ms = 0, untraced_apply_ms = 0;
  std::vector<double> traced_to_untraced;  // per batch
  size_t updates = 0;
  for (const Op& op : ops) {
    const uint64_t id = (op.update ? 1u << 30 : 0) + op.index + 1;
    if (!op.update) {
      const int32_t root = tracer.Begin("read", id);
      if (snapshot_version != g.version()) {
        ScopedSpan span(&tracer, "DeltaGraph::Materialize", id);
        snapshot = g.Materialize();
        snapshot_version = g.version();
      }
      const Clock::time_point t0 = Clock::now();
      const daf::service::QueryCache::Lease lease =
          cache.Acquire(reads[op.index], *snapshot, read_options, g.version());
      tracer.Add(lease.outcome == daf::service::CacheOutcome::kMiss
                     ? "QueryCache::Acquire.miss"
                     : "QueryCache::Acquire.hit",
                 t0, Clock::now(), root, id);
      {
        ScopedSpan span(&tracer, "DafMatchPrepared", id);
        daf::DafMatchPrepared(*lease.prepared, *snapshot, read_options,
                              &context);
      }
      tracer.End(root);
      continue;
    }
    const Clock::time_point r0 = Clock::now();
    if (!reference.service->ApplyUpdates(batches[op.index]).ok) return 2;
    for (auto& sub : reference.subs) sub.Drain();
    const double untraced_ms = MsBetween(r0, Clock::now());
    untraced_apply_ms += untraced_ms;
    const Clock::time_point u0 = Clock::now();
    {
      ScopedSpan root(&tracer, "update", id);
      daf::dyn::NormalizedBatch net;
      {
        ScopedSpan span(&tracer, "DeltaGraph::Normalize", id);
        g.Normalize(batches[op.index], &net, &error);
      }
      for (auto& e : enums) {
        ScopedSpan span(&tracer, "DeltaEnumerator::Enumerate", id);
        const daf::dyn::DeltaEnumResult r = e->Destroyed(g, net, {});
        delta_calls += r.recursive_calls;
        delta_embeddings += r.embeddings.size();
        ++delta_runs;
      }
      {
        const uint64_t bytes = store->Stats().wal_bytes;
        ScopedSpan span(&tracer, "DurableStore::AppendBatch", id);
        store->AppendBatch(net, batches[op.index].add_vertices,
                           g.version() + 1, &error);
        wal_bytes += store->Stats().wal_bytes - bytes;
      }
      // ApplyUpdates hands the raw batch to ApplyBatch, which normalizes it
      // again; the staged path calls the same function.
      daf::dyn::ApplyResult applied;
      {
        ScopedSpan span(&tracer, "DeltaGraph::ApplyBatch", id);
        applied = g.ApplyBatch(batches[op.index]);
      }
      for (size_t s = 0; s < css.size(); ++s) {
        {
          ScopedSpan span(&tracer, "DynamicCandidateSpace::Apply", id);
          const auto stats = css[s]->Apply(g, net);
          dirty += stats.dirty_pairs;
          rebuilds += stats.rebuilt ? 1 : 0;
          ++maintains;
        }
        ScopedSpan span(&tracer, "DeltaEnumerator::Enumerate", id);
        const daf::dyn::DeltaEnumResult r = enums[s]->Created(g, net, {});
        delta_calls += r.recursive_calls;
        delta_embeddings += r.embeddings.size();
        ++delta_runs;
      }
      if (applied.compacted) {
        std::shared_ptr<const daf::Graph> compacted;
        {
          ScopedSpan span(&tracer, "DeltaGraph::Materialize(checkpoint)", id);
          compacted = g.Materialize();
        }
        ScopedSpan span(&tracer, "DurableStore::Checkpoint", id);
        store->Checkpoint(*compacted, applied.version, &error);
        ++checkpoints;
      }
    }
    const double traced_ms = MsBetween(u0, Clock::now());
    traced_update_ms += traced_ms;
    traced_to_untraced.push_back(traced_ms / untraced_ms);
    ++updates;
  }

  const auto totals = tracer.Totals();
  const double u = static_cast<double>(std::max<size_t>(updates, 1));
  const double replay_ms =
      SelfMs(totals, {"recovery.DurableStore::Open"}) -
      SelfMs(totals, {"persist::LoadSnapshot"});
  report.Layer("snapshot.load_ms", SelfMs(totals, {"persist::LoadSnapshot"}),
               "ms");
  report.Layer("wal.replay_ms", replay_ms, "ms");
  report.Layer("wal.replay_records_per_s",
               replay_ms > 0 ? static_cast<double>(replayed) /
                                   (replay_ms / 1e3)
                             : 0,
               "1/s");
  report.Layer("update.normalize_ms",
               MeanSelfMs(totals, "DeltaGraph::Normalize"),
               "ms");
  report.Layer("update.apply_ms", MeanSelfMs(totals, "DeltaGraph::ApplyBatch"),
               "ms");
  report.Layer("update.materialize_ms",
               MeanSelfMs(totals, "DeltaGraph::Materialize"), "ms");
  report.Layer("dyncs.apply_ms",
               MeanSelfMs(totals, "DynamicCandidateSpace::Apply"), "ms");
  report.Layer("dyncs.dirty_pairs",
               maintains ? static_cast<double>(dirty) /
                               static_cast<double>(maintains)
                         : 0,
               "count");
  report.Layer("dyncs.rebuilds", static_cast<double>(rebuilds), "count");
  report.Layer("delta.enum_ms",
               MeanSelfMs(totals, "DeltaEnumerator::Enumerate"), "ms");
  report.Layer("delta.calls",
               delta_runs ? static_cast<double>(delta_calls) /
                                static_cast<double>(delta_runs)
                          : 0,
               "count");
  report.Layer("delta.embeddings", static_cast<double>(delta_embeddings) / u,
               "count");
  report.Layer("wal.append_ms",
               MeanSelfMs(totals, "DurableStore::AppendBatch"), "ms");
  report.Layer("wal.bytes_per_batch", static_cast<double>(wal_bytes) / u,
               "bytes");
  report.Layer("checkpoint.count", static_cast<double>(checkpoints), "count");
  report.Layer("checkpoint.ms", MeanSelfMs(totals, "DurableStore::Checkpoint"),
               "ms");
  report.Layer("cache.acquire_hit_ms",
               MeanSelfMs(totals, "QueryCache::Acquire.hit"), "ms");
  report.Layer("cache.acquire_miss_ms",
               MeanSelfMs(totals, "QueryCache::Acquire.miss"), "ms");
  const double update_layers =
      SelfMs(totals, {"DeltaGraph::Normalize", "DeltaEnumerator::Enumerate",
                      "DurableStore::AppendBatch", "DeltaGraph::ApplyBatch",
                      "DynamicCandidateSpace::Apply",
                      "DurableStore::Checkpoint",
                      "DeltaGraph::Materialize(checkpoint)"});
  report.Layer("trace.overhead_ms", (traced_update_ms - untraced_apply_ms) / u,
               "ms");
  // The layers' share of the traced update path, times the median batch's
  // traced-to-untraced ratio. With a few dozen batches a run, one batch that
  // a host stall slowed on one side moved a ratio of sums by a quarter.
  const double accounted = update_layers / totals.at("update").total_ms *
                           Median(traced_to_untraced);
  const double setup_accounted =
      SelfMs(totals, {"LoadQueries", "DurableStore::Open", "MatchService",
                      "MatchService::Snapshot", "MatchService::Subscribe",
                      "DafMatch", "warmup"}) /
      (Median(setup_samples) * 1e3);
  report.Layer("trace.accounted_ratio", accounted, "ratio");
  report.Layer("trace.setup_accounted_ratio", setup_accounted, "ratio");
  CheckAccounting(accounted, setup_accounted, &report);
  RecordLayerShares(tracer, &report);
  report.RecordNumber("untraced_apply_ms", untraced_apply_ms);
  report.RecordNumber("traced_update_ms", traced_update_ms);
  report.RecordNumber("wal_records_replayed", static_cast<double>(replayed));
  tracer.Write(args.trace_path);
  return report.Finish();
}

}  // namespace perfbench
