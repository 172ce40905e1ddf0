// yeast-search: the engine alone. A fixed Yeast stand-in (x0.5) and a fixed
// sample of Q50S + Q50N queries with k = 10^5 are matched sequentially on
// one warm MatchContext. Backtracking dominates these queries, so search,
// failing-set and intersection-kernel changes show here; cache, service and
// dynamic code is never called. The traced run also drives the same queries
// through the work-stealing parallel engine (3 threads) for the steal
// layer's counters: as a timed workload of its own that engine's latency
// swung by a third between runs on shared cores.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/cfl_match.h"
#include "common.h"
#include "daf/backtrack.h"
#include "daf/candidate_space.h"
#include "daf/engine.h"
#include "daf/match_context.h"
#include "daf/parallel.h"
#include "daf/query_dag.h"
#include "daf/weights.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace perfbench {
namespace {

constexpr uint64_t kDatasetSeed = 7;  // the data graph is fixed
constexpr double kScale = 0.5;
constexpr uint32_t kQuerySize = 50;
constexpr uint32_t kSparseQueries = 100;
constexpr uint32_t kDenseQueries = 100;
constexpr size_t kMinPasses = 3;
constexpr uint64_t kLimit = 100000;
constexpr uint32_t kStealThreads = 3;
constexpr uint32_t kWarmupQueries = 16;
constexpr int kSetupRepeats = 8;  // before the timed phase
// The baseline cross-check compares full embedding counts of DAF and
// CFL-Match on the kBaselineQueries queries with the fewest search calls
// (which finish under k), validating both matchers' first kValidated
// embeddings.
constexpr size_t kBaselineQueries = 20;
constexpr uint64_t kValidated = 1000;

daf::MatchOptions Options() {
  daf::MatchOptions options;
  options.limit = kLimit;
  return options;
}

struct Loaded {
  daf::Graph data;
  std::vector<daf::Graph> queries;
  std::unique_ptr<daf::MatchContext> context;
};

// Reads the on-disk inputs and warms the engine; spans when traced.
bool Setup(const Args& args, Tracer* tracer, Loaded* out) {
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
    out->queries.clear();
    if (!LoadQueries(args.work_dir + "/queries.txt", &out->queries)) {
      return false;
    }
  }
  std::vector<daf::Graph> warmup;
  {
    ScopedSpan span(tracer, "LoadQueries", 0);
    if (!LoadQueries(args.work_dir + "/warmup.txt", &warmup)) return false;
  }
  ScopedSpan span(tracer, "warmup", 0);
  out->context = std::make_unique<daf::MatchContext>();
  for (const daf::Graph& q : warmup) {
    daf::DafMatch(q, out->data, Options(), out->context.get());
  }
  return true;
}

// The query sample. Draw i of the sparse (dense) set is the one query
// MakeQuerySet draws with Rng(kSparseDrawSeed + i) (Rng(kDenseDrawSeed + i)).
// The listed draws are left out: when the sample was fixed, DAF did not
// finish them within 300,000 recursive calls, and one of them can run for
// minutes. The lists are part of the benchmark's definition and do not
// follow the engine, so every commit is timed on the same queries.
constexpr uint64_t kSparseDrawSeed = 100000;
constexpr uint64_t kDenseDrawSeed = 200000;
constexpr uint32_t kSparseExcluded[] = {0, 28};
constexpr uint32_t kDenseExcluded[] = {0,  1,  17, 18, 22,  43,  45,
                                       47, 48, 52, 93, 94, 102, 108};

void FixedQueries(const daf::Graph& data, bool sparse, uint32_t count,
                  std::vector<daf::Graph>* out) {
  const std::span<const uint32_t> excluded =
      sparse ? std::span<const uint32_t>(kSparseExcluded)
             : std::span<const uint32_t>(kDenseExcluded);
  for (uint32_t draw = 0, kept = 0; kept < count; ++draw) {
    if (std::find(excluded.begin(), excluded.end(), draw) != excluded.end()) {
      continue;
    }
    daf::Rng rng((sparse ? kSparseDrawSeed : kDenseDrawSeed) + draw);
    out->push_back(std::move(
        daf::workload::MakeQuerySet(data, kQuerySize, sparse, 1, rng)
            .queries[0]));
    ++kept;
  }
}

bool ValidEmbedding(const daf::Graph& q, const daf::Graph& g,
                    std::span<const daf::VertexId> m) {
  std::vector<daf::VertexId> seen(m.begin(), m.end());
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return false;
  }
  for (daf::VertexId u = 0; u < q.NumVertices(); ++u) {
    if (q.original_label(q.label(u)) != g.original_label(g.label(m[u]))) {
      return false;
    }
    for (daf::VertexId w : q.Neighbors(u)) {
      if (!g.HasEdge(m[u], m[w])) return false;
    }
  }
  return true;
}

// Counters one staged (stage-function) replay of a query collects.
struct StagedCounts {
  uint64_t embeddings = 0;
  uint64_t calls = 0;
  uint64_t candidates = 0;
  uint64_t initial_candidates = 0;
  uint64_t cs_edges = 0;
};

// DafMatch's pipeline called stage by stage through the layers' public
// functions, with a span around each call when `tracer` is set.
StagedCounts RunStaged(const daf::Graph& query, const daf::Graph& data,
                       daf::MatchContext* context, Tracer* tracer,
                       uint64_t request, daf::obs::BacktrackProfile* profile) {
  StagedCounts counts;
  ScopedSpan root(tracer, "query", request);
  context->arena().Reset();
  std::optional<daf::QueryDag> dag;
  {
    ScopedSpan span(tracer, "QueryDag::Build", request);
    dag.emplace(daf::QueryDag::Build(query, data));
  }
  for (daf::VertexId u = 0; u < query.NumVertices(); ++u) {
    counts.initial_candidates += dag->InitialCandidateCount(u);
  }
  std::optional<daf::CandidateSpace> cs;
  {
    ScopedSpan span(tracer, "CandidateSpace::Build", request);
    cs.emplace(daf::CandidateSpace::Build(query, *dag, data, {},
                                          &context->arena(),
                                          &context->cs_scratch()));
  }
  counts.candidates = cs->TotalCandidates();
  counts.cs_edges = cs->TotalEdges();
  for (daf::VertexId u = 0; u < query.NumVertices(); ++u) {
    if (cs->NumCandidates(u) == 0) return counts;  // certified negative
  }
  daf::WeightArray weights;
  {
    ScopedSpan span(tracer, "WeightArray::Compute", request);
    weights = daf::WeightArray::Compute(*dag, *cs, &context->arena());
  }
  ScopedSpan span(tracer, "Backtracker::Run", request);
  daf::Backtracker backtracker(query, *dag, *cs, &weights, data.NumVertices(),
                               &context->backtrack_scratch(0));
  daf::BacktrackOptions bt;
  bt.limit = kLimit;
  bt.profile = profile;
  const daf::BacktrackStats stats = backtracker.Run(bt);
  counts.embeddings = stats.embeddings;
  counts.calls = stats.recursive_calls;
  return counts;
}

}  // namespace

int RunYeast(const Args& args) {
  Report report(args);

  // Inputs: the fixed data graph and query sample, on disk.
  {
    daf::Graph data =
        daf::workload::MakeDataset(daf::workload::DatasetId::kYeast, kScale,
                                   kDatasetSeed);
    // The queries are one fixed sample, so runs with different seeds measure
    // the same work; the seed draws the order of the list. (A vertex
    // relabeling per seed moves DAF's tie-breaks and with them the cost of
    // the heaviest queries by tens of percent, which would swamp the run.)
    std::vector<daf::Graph> queries;
    FixedQueries(data, true, kSparseQueries, &queries);
    FixedQueries(data, false, kDenseQueries, &queries);
    daf::Rng order(args.seed);
    order.Shuffle(queries);
    // Warm-up queries are fixed, so set-up time does not vary by seed.
    daf::Rng warmup_rng(kDatasetSeed);
    daf::workload::QuerySet warmup = daf::workload::MakeQuerySet(
        data, kQuerySize, true, kWarmupQueries, warmup_rng);
    std::string error;
    if (!daf::SaveGraph(data, args.work_dir + "/data.txt", &error) ||
        !WriteQueries(queries, args.work_dir + "/queries.txt") ||
        !WriteQueries(warmup.queries, args.work_dir + "/warmup.txt")) {
      std::fprintf(stderr, "yeast-search: cannot write inputs %s\n",
                   error.c_str());
      return 2;
    }
  }

  Loaded loaded;
  bool setup_ok = true;
  auto setup = [&] { setup_ok = setup_ok && Setup(args, nullptr, &loaded); };
  std::vector<double> setup_samples;
  TimeSetups(kSetupRepeats, setup, &setup_samples);
  if (!setup_ok) return 2;
  const daf::Graph& data = loaded.data;
  const std::vector<daf::Graph>& queries = loaded.queries;
  const size_t n = queries.size();

  // Reference counts, single-threaded through DafMatch (untimed).
  std::vector<uint64_t> expected(n);
  for (size_t i = 0; i < n; ++i) {
    expected[i] =
        daf::DafMatch(queries[i], data, Options(), loaded.context.get())
            .embeddings;
  }
  auto check = [&](size_t i, const daf::MatchResult& r, const char* how) {
    report.Attempted(1);
    if (!r.ok || r.timed_out || r.cancelled || r.resource_exhausted) {
      report.Fail(std::string(how) + " query " + std::to_string(i) +
                  " did not complete");
    } else if (r.embeddings != expected[i]) {
      report.Fail(std::string(how) + " query " + std::to_string(i) + ": " +
                  std::to_string(r.embeddings) + " embeddings, expected " +
                  std::to_string(expected[i]));
    }
  };

  if (!args.trace) {
    // Input synthesis and the repeated set-ups are not the engine's memory.
    ResetPeakRss();
    // Timed phase: whole passes over the query list until the next pass
    // would overrun the measured seconds (at least kMinPasses). On shared
    // VMs, stretches of a second or more run 30-50% slower, so each query's
    // latency is the fastest of its timed executions. One more set-up is
    // timed after each pass, so that set-up samples span the whole run; it
    // replaces `loaded` with an identical fresh copy.
    std::vector<double> best(n, std::numeric_limits<double>::infinity());
    const Clock::time_point start = Clock::now();
    size_t passes = 0;
    double elapsed_ms = 0, longest_pass_ms = 0;
    while (passes < kMinPasses ||
           elapsed_ms + longest_pass_ms <= args.seconds * 1000.0) {
      const Clock::time_point pass_start = Clock::now();
      for (size_t i = 0; i < n; ++i) {
        const Clock::time_point t0 = Clock::now();
        const daf::MatchResult r =
            daf::DafMatch(queries[i], data, Options(), loaded.context.get());
        best[i] = std::min(best[i], MsBetween(t0, Clock::now()));
        check(i, r, "timed");
      }
      ++passes;
      longest_pass_ms =
          std::max(longest_pass_ms, MsBetween(pass_start, Clock::now()));
      TimeSetups(1, setup, &setup_samples);
      if (!setup_ok) return 2;
      elapsed_ms = MsBetween(start, Clock::now());
    }
    const double peak_rss = PeakRssMb();

    // Untimed: the staged pipeline must agree with the timed counts, and a
    // baseline matcher with validated embeddings on the cheapest queries.
    daf::MatchContext staged_context;
    std::vector<std::pair<uint64_t, size_t>> by_calls;
    for (size_t i = 0; i < n; ++i) {
      StagedCounts c =
          RunStaged(queries[i], data, &staged_context, nullptr, i, nullptr);
      report.Attempted(1);
      if (c.embeddings != expected[i]) {
        report.Fail("staged query " + std::to_string(i) + " count " +
                    std::to_string(c.embeddings) + " != " +
                    std::to_string(expected[i]));
      }
      by_calls.emplace_back(c.calls, i);
    }
    std::sort(by_calls.begin(), by_calls.end());
    for (size_t b = 0; b < kBaselineQueries && b < by_calls.size(); ++b) {
      const size_t i = by_calls[b].second;
      bool valid = true;
      uint64_t seen = 0;
      auto validate = [&](std::span<const daf::VertexId> m) {
        if (seen++ < kValidated) {
          valid = valid && ValidEmbedding(queries[i], data, m);
        }
        return true;
      };
      daf::MatchOptions daf_options = Options();
      daf_options.callback = validate;
      const uint64_t daf_count =
          daf::DafMatch(queries[i], data, daf_options).embeddings;
      seen = 0;
      daf::baselines::MatcherOptions options;
      options.limit = kLimit;
      options.callback = validate;
      const uint64_t cfl_count =
          daf::baselines::CflMatch(queries[i], data, options).embeddings;
      report.Attempted(1);
      if (!valid || daf_count != cfl_count) {
        report.Fail("query " + std::to_string(i) + ": DAF " +
                    std::to_string(daf_count) + " vs CFL-Match " +
                    std::to_string(cfl_count) + " embeddings" +
                    (valid ? "" : ", invalid embedding"));
      }
    }

    double best_total_ms = 0;
    for (double ms : best) best_total_ms += ms;
    report.EndToEnd("setup_s", Median(setup_samples), "s");
    report.RecordNumbers("setup_samples_s", setup_samples);
    report.EndToEnd("query_p50_ms", Quantile(best, 0.50), "ms");
    report.EndToEnd("query_p95_ms", Quantile(best, 0.95), "ms");
    report.EndToEnd("throughput_qps",
                    static_cast<double>(n) / (best_total_ms / 1000.0), "1/s");
    report.EndToEnd("peak_rss_mb", peak_rss, "MiB");
    report.RecordNumber("passes", static_cast<double>(passes));
    report.RecordNumber("measured_s", elapsed_ms / 1000.0);
    report.RecordNumber("query_p99_ms", Quantile(best, 0.99));
    report.RecordNumber("distinct_queries", static_cast<double>(n));
    return report.Finish();
  }

  // Traced run: per query, the untraced DafMatch (the reference) and then
  // its staged replay with a span around every layer call, back to back so
  // that drift in host speed hits both alike.
  Tracer tracer;
  Loaded traced_setup;
  if (!Setup(args, &tracer, &traced_setup)) return 2;
  daf::obs::BacktrackProfile bt_profile, bt_total;
  uint64_t calls = 0, embeddings = 0, candidates = 0, initial = 0,
           cs_edges = 0;
  double untraced_ms = 0;
  daf::MatchContext staged_context;
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    const daf::MatchResult r =
        daf::DafMatch(queries[i], data, Options(), loaded.context.get());
    untraced_ms += MsBetween(t0, Clock::now());
    check(i, r, "untraced");
    StagedCounts c = RunStaged(queries[i], data, &staged_context, &tracer,
                               i + 1, nullptr);
    report.Attempted(1);
    if (c.embeddings != expected[i]) {
      report.Fail("traced staged query " + std::to_string(i));
    }
    // The prune and kernel counters come from an untimed profiled rerun.
    RunStaged(queries[i], data, &staged_context, nullptr, i + 1, &bt_profile);
    bt_total.MergeFrom(bt_profile);
    calls += c.calls;
    embeddings += c.embeddings;
    candidates += c.candidates;
    initial += c.initial_candidates;
    cs_edges += c.cs_edges;
  }

  // The work-stealing engine on the same queries; its counts must equal
  // the single-threaded ones.
  double steals = 0, donations = 0, idle_ms = 0, imbalance = 0;
  daf::MatchContext parallel_context;
  for (size_t i = 0; i < n; ++i) {
    ScopedSpan span(&tracer, "ParallelDafMatch", i + 1);
    const daf::ParallelMatchResult r = daf::ParallelDafMatch(
        queries[i], data, Options(), kStealThreads, &parallel_context);
    check(i, r, "parallel");
    steals += static_cast<double>(r.steals);
    donations += static_cast<double>(r.donations);
    idle_ms += r.idle_ms;
    imbalance += r.call_imbalance;
  }

  const auto totals = tracer.Totals();
  const double q = static_cast<double>(n);
  const double traced_ms = totals.at("query").total_ms;
  const double layer_ms =
      SelfMs(totals, {"QueryDag::Build", "CandidateSpace::Build",
                      "WeightArray::Compute", "Backtracker::Run"});
  const double search_ms = SelfMs(totals, {"Backtracker::Run"});
  report.Layer("graph.load_ms", MeanSelfMs(totals, "LoadGraph"), "ms");
  report.Layer("dag.build_ms", MeanSelfMs(totals, "QueryDag::Build"), "ms");
  report.Layer("cs.build_ms", MeanSelfMs(totals, "CandidateSpace::Build"),
               "ms");
  report.Layer("cs.candidates", static_cast<double>(candidates) / q, "count");
  report.Layer("cs.edges", static_cast<double>(cs_edges) / q, "count");
  report.Layer("cs.filter_ratio",
               initial ? static_cast<double>(candidates) /
                             static_cast<double>(initial)
                       : 0,
               "ratio");
  report.Layer("weights.ms", MeanSelfMs(totals, "WeightArray::Compute"), "ms");
  report.Layer("search.ms", MeanSelfMs(totals, "Backtracker::Run"), "ms");
  report.Layer("search.calls", static_cast<double>(calls) / q, "count");
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
               static_cast<double>(bt_total.failing_set_skips) / q, "count");
  report.Layer("search.conflict_prunes",
               static_cast<double>(bt_total.conflict_prunes) / q, "count");
  report.Layer("search.intersect_merge",
               static_cast<double>(bt_total.intersect_merge) / q, "count");
  report.Layer("search.intersect_gallop",
               static_cast<double>(bt_total.intersect_gallop) / q, "count");
  report.Layer("search.intersect_simd",
               static_cast<double>(bt_total.intersect_simd) / q, "count");
  report.Layer("search.intersect_bitmap",
               static_cast<double>(bt_total.intersect_bitmap) / q, "count");
  report.Layer("steal.steals", steals / q, "count");
  report.Layer("steal.donations", donations / q, "count");
  report.Layer("steal.idle_ms", idle_ms / q, "ms");
  report.Layer("steal.call_imbalance", imbalance / q, "ratio");
  const double accounted = layer_ms / untraced_ms;
  const double setup_accounted =
      SelfMs(totals, {"LoadGraph", "LoadQueries", "warmup"}) /
      (Median(setup_samples) * 1e3);
  report.Layer("trace.overhead_ms", (traced_ms - untraced_ms) / q, "ms");
  report.Layer("trace.accounted_ratio", accounted, "ratio");
  report.Layer("trace.setup_accounted_ratio", setup_accounted, "ratio");
  CheckAccounting(accounted, setup_accounted, &report);
  RecordLayerShares(tracer, &report);
  report.RecordNumber("parallel_ms_per_query",
                      totals.at("ParallelDafMatch").total_ms / q);
  report.RecordNumber("untraced_ms", untraced_ms);
  report.RecordNumber("traced_ms", traced_ms);
  tracer.Write(args.trace_path);
  return report.Finish();
}

}  // namespace perfbench
