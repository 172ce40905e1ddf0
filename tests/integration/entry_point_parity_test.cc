// Entry-point parity: every public way to run a match — DafMatch,
// ParallelDafMatch (1 and 3 threads, and 3 threads under the root
// cursor), DafMatchPrepared,
// ParallelDafMatchPrepared, both EmbeddingCursor constructors, and a
// MatchService stream job cold and on a cache hit — must report the same
// outcome for the same (query, data, options): the ok flag, the embedding
// count, and the certificate / limit / cancel / exhaustion flags.
//
// One divergence is deliberate and recorded here rather than papered over:
// a PreparedQuery blob that carries the Appendix A.3 negativity certificate
// reports it before looking at the run's stop sources (the certificate came
// from an uninterrupted build and stays valid), while a cold run with a
// pre-cancelled token or a pre-exhausted budget stops inside the CS build
// and reports that cause instead.
//
// A blob searched under options whose CS fingerprint differs from the one
// it was built under is refused (ok = false) by every blob entry point.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "daf/cursor.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "daf/prepared.h"
#include "graph/query_extract.h"
#include "service/match_service.h"
#include "tests/test_util.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "util/stop.h"

namespace daf {
namespace {

// The part of a MatchResult every entry point must agree on.
struct Outcome {
  bool ok = true;
  uint64_t embeddings = 0;
  bool cs_certified_negative = false;
  bool limit_reached = false;
  bool cancelled = false;
  bool resource_exhausted = false;

  bool operator==(const Outcome&) const = default;
};

Outcome Of(const MatchResult& r) {
  return {r.ok,           r.embeddings, r.cs_certified_negative,
          r.limit_reached, r.cancelled, r.resource_exhausted};
}

void PrintTo(const Outcome& o, std::ostream* os) {
  *os << "{ok=" << o.ok << " embeddings=" << o.embeddings
      << " cert=" << o.cs_certified_negative << " limit=" << o.limit_reached
      << " cancelled=" << o.cancelled << " exhausted=" << o.resource_exhausted
      << "}";
}

enum class Row {
  kComplete,
  kLimit,
  kHomomorphism,
  kEdgeLabels,
  kCancelled,
  kBudgetExhausted,
};

const char* RowName(Row row) {
  switch (row) {
    case Row::kComplete:
      return "complete";
    case Row::kLimit:
      return "limit";
    case Row::kHomomorphism:
      return "homomorphism";
    case Row::kEdgeLabels:
      return "edge-labels";
    case Row::kCancelled:
      return "pre-cancelled";
    case Row::kBudgetExhausted:
      return "budget-exhausted";
  }
  return "?";
}

// Random connected data graph whose edges carry labels from {0, 1}.
Graph EdgeLabeledData(uint32_t n, uint64_t m, Rng& rng) {
  std::vector<Edge> edges = ErdosRenyiEdges(n, m, rng);
  ConnectComponents(n, &edges, rng);
  std::vector<Label> labels = ZipfLabels(n, 3, 0.5, rng);
  std::vector<Label> edge_labels;
  for (size_t i = 0; i < edges.size(); ++i) {
    edge_labels.push_back(static_cast<Label>(rng.UniformInt(2)));
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

// Rebuilds `extracted` with its own vertex labels (vertex 0 gets a label
// absent from `data` when `override_first` is set) and with the edge labels
// its witness realizes in `data`.
Graph Relabel(const ExtractedQuery& extracted, const Graph& data,
              bool override_first = false) {
  const Graph& q = extracted.query;
  std::vector<Label> labels;
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    labels.push_back(q.original_label(q.label(u)));
  }
  // A label no data vertex carries: C(0) is empty, so the CS certifies
  // the query negative.
  if (override_first) labels[0] = 99;
  std::vector<Edge> edges = q.EdgeList();
  std::vector<Label> edge_labels;
  for (const Edge& e : edges) {
    edge_labels.push_back(data.EdgeLabelBetween(extracted.witness[e.first],
                                                extracted.witness[e.second]));
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

struct Case {
  std::string name;
  Row row;
  Graph query;
  Graph data;
  bool negative = false;  // the CS certifies the query negative
};

// Options of one run of `c`; stop sources are fresh per run so no entry
// point sees another's leftovers.
struct RunOptions {
  MatchOptions options;
  CancelToken cancel;
  MemoryBudget budget;

  RunOptions(const Case& c, uint64_t limit) {
    options.limit = limit;
    if (c.row == Row::kHomomorphism) options.injective = false;
    if (c.row == Row::kCancelled) {
      cancel.Cancel();
      options.cancel = &cancel;
    }
    if (c.row == Row::kBudgetExhausted) {
      budget.MarkExhausted();
      options.memory_budget = &budget;
    }
  }
};

Outcome DrainCursor(EmbeddingCursor& cursor) {
  uint64_t pulled = 0;
  while (cursor.Next()) ++pulled;
  const MatchResult& r = cursor.Finish();
  EXPECT_EQ(pulled, r.embeddings);
  return Of(r);
}

Outcome StreamJob(service::MatchService& svc, const Case& c, uint64_t limit,
                  bool bypass_cache, service::CacheOutcome expected_cache) {
  service::QueryJob job;
  job.query = c.query;
  job.options.limit = limit;
  job.options.injective = c.row != Row::kHomomorphism;
  job.stream_embeddings = true;
  job.bypass_cache = bypass_cache;
  service::JobHandle handle = svc.Submit(std::move(job));
  uint64_t pulled = 0;
  for (;;) {
    std::vector<std::vector<VertexId>> batch = handle.NextBatch();
    if (batch.empty()) break;
    pulled += batch.size();
  }
  EXPECT_EQ(handle.Wait(), service::JobStatus::kDone);
  EXPECT_EQ(handle.cache_outcome(), expected_cache);
  const MatchResult& r = handle.Result();
  EXPECT_EQ(pulled, r.embeddings);
  return Of(r);
}

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    Graph data = daf::testing::RandomDataGraph(40, 160, 2, rng);
    std::optional<ExtractedQuery> extracted =
        ExtractRandomWalkQuery(data, 4, -1.0, rng);
    if (!extracted) continue;
    for (Row row : {Row::kComplete, Row::kLimit, Row::kHomomorphism,
                    Row::kCancelled, Row::kBudgetExhausted}) {
      cases.push_back({"seed" + std::to_string(seed), row, extracted->query,
                       data});
    }
    if (seed == 11) {
      Graph negative = Relabel(*extracted, data, /*override_first=*/true);
      for (Row row : {Row::kComplete, Row::kCancelled,
                      Row::kBudgetExhausted}) {
        cases.push_back({"negative", row, negative, data, true});
      }
    }
  }
  for (uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    Graph data = EdgeLabeledData(40, 110, rng);
    std::optional<ExtractedQuery> extracted =
        ExtractRandomWalkQuery(data, 5, -1.0, rng);
    if (!extracted) continue;
    cases.push_back({"edge-labeled" + std::to_string(seed), Row::kEdgeLabels,
                     Relabel(*extracted, data), data});
  }
  return cases;
}

TEST(EntryPointParityTest, AllEntryPointsAgreePerOptionRow) {
  const std::vector<Case> cases = MakeCases();
  ASSERT_EQ(cases.size(), 20u);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name + "/" + RowName(c.row));
    const bool stop_row =
        c.row == Row::kCancelled || c.row == Row::kBudgetExhausted;

    // The embedding limit of the kLimit row: half the complete count.
    uint64_t limit = 0;
    if (c.row == Row::kLimit) {
      const MatchResult all = DafMatch(c.query, c.data);
      ASSERT_GE(all.embeddings, 4u);
      limit = all.embeddings / 2;
    }

    const Outcome reference = Of(DafMatch(c.query, c.data,
                                          RunOptions(c, limit).options));
    // What each row must produce, so a shared regression cannot hide.
    EXPECT_TRUE(reference.ok);
    if (c.row == Row::kCancelled) {
      EXPECT_TRUE(reference.cancelled);
    } else if (c.row == Row::kBudgetExhausted) {
      EXPECT_TRUE(reference.resource_exhausted);
    } else if (c.negative) {
      EXPECT_TRUE(reference.cs_certified_negative);
    } else {
      EXPECT_GT(reference.embeddings, 0u);
      EXPECT_EQ(reference.limit_reached, c.row == Row::kLimit);
    }
    if (c.row == Row::kLimit) {
      EXPECT_EQ(reference.embeddings, limit);
    }

    // A blob with a certificate reports it whatever the run's stop sources.
    Outcome prepared_expected = reference;
    if (c.negative) {
      prepared_expected = Outcome{};
      prepared_expected.cs_certified_negative = true;
    }

    for (uint32_t threads : {1u, 3u}) {
      EXPECT_EQ(Of(ParallelDafMatch(c.query, c.data,
                                    RunOptions(c, limit).options, threads)),
                reference)
          << "ParallelDafMatch threads=" << threads;
    }
    {
      RunOptions run(c, limit);
      run.options.parallel_strategy = ParallelStrategy::kRootCursor;
      EXPECT_EQ(Of(ParallelDafMatch(c.query, c.data, run.options, 3)),
                reference)
          << "ParallelDafMatch threads=3 root cursor";
    }
    {
      // The producer thread polls the stop sources: keep them alive.
      const RunOptions run(c, limit);
      EmbeddingCursor cursor(c.query, c.data, run.options);
      EXPECT_EQ(DrainCursor(cursor), reference) << "EmbeddingCursor (cold)";
    }

    // The blob is built without the row's stop sources: it is the shared,
    // uninterrupted artifact a cache would hold.
    MatchOptions build;
    build.injective = c.row != Row::kHomomorphism;
    PrepareOutcome prepared = PrepareQuery(c.query, c.data, build);
    ASSERT_TRUE(prepared.ok);
    ASSERT_NE(prepared.prepared, nullptr);
    EXPECT_EQ(prepared.prepared->cs_certified_negative, c.negative);
    EXPECT_EQ(Of(DafMatchPrepared(*prepared.prepared, c.data,
                                  RunOptions(c, limit).options)),
              prepared_expected)
        << "DafMatchPrepared";
    EXPECT_EQ(Of(ParallelDafMatchPrepared(*prepared.prepared, c.data,
                                          RunOptions(c, limit).options, 3)),
              prepared_expected)
        << "ParallelDafMatchPrepared";
    {
      const RunOptions run(c, limit);
      EmbeddingCursor cursor(prepared.prepared, c.data, run.options);
      EXPECT_EQ(DrainCursor(cursor), prepared_expected)
          << "EmbeddingCursor (prepared)";
    }

    // The service owns the cancel token and the memory budget of its jobs,
    // so the two stop rows cannot be expressed as a job.
    if (stop_row) continue;
    service::ServiceOptions svc_options;
    svc_options.num_workers = 1;
    service::MatchService svc(c.data, svc_options);
    EXPECT_EQ(StreamJob(svc, c, limit, /*bypass_cache=*/true,
                        service::CacheOutcome::kNone),
              reference)
        << "service stream, cold";
    StreamJob(svc, c, limit, /*bypass_cache=*/false,
              service::CacheOutcome::kMiss);
    EXPECT_EQ(StreamJob(svc, c, limit, /*bypass_cache=*/false,
                        service::CacheOutcome::kHit),
              reference)
        << "service stream, cache hit";
  }
}

TEST(EntryPointParityTest, BlobUnderOtherCsOptionsIsRefused) {
  // Star 0-{1, 1} over the single edge 0-1: one homomorphism (both leaves
  // on data vertex 1), no embedding. An injective blob's CS certifies the
  // query negative, which is wrong for a homomorphism search.
  const Graph query = Graph::FromEdges({0, 1, 1}, {{0, 1}, {0, 2}});
  const Graph data = Graph::FromEdges({0, 1}, {{0, 1}});
  MatchOptions homomorphism;
  homomorphism.injective = false;
  ASSERT_EQ(DafMatch(query, data, homomorphism).embeddings, 1u);

  MatchOptions injective;
  PrepareOutcome built = PrepareQuery(query, data, injective);
  ASSERT_TRUE(built.ok);
  ASSERT_NE(built.prepared, nullptr);
  EXPECT_EQ(built.prepared->cs_fingerprint, CsFingerprint(injective));
  EXPECT_TRUE(DafMatchPrepared(*built.prepared, data, injective)
                  .cs_certified_negative);

  MatchOptions fewer_passes;
  fewer_passes.refinement_steps = 1;
  MatchOptions no_nlf;
  no_nlf.use_nlf_filter = false;
  for (const MatchOptions& other : {homomorphism, fewer_passes, no_nlf}) {
    ASSERT_NE(CsFingerprint(other), built.prepared->cs_fingerprint);
    const MatchResult one = DafMatchPrepared(*built.prepared, data, other);
    EXPECT_FALSE(one.ok);
    EXPECT_FALSE(one.error.empty());
    EXPECT_FALSE(one.cs_certified_negative);
    EXPECT_EQ(one.embeddings, 0u);
    const MatchResult three =
        ParallelDafMatchPrepared(*built.prepared, data, other, 3);
    EXPECT_FALSE(three.ok);
    EXPECT_FALSE(three.cs_certified_negative);
    EmbeddingCursor cursor(built.prepared, data, other);
    EXPECT_FALSE(cursor.Next().has_value());
    EXPECT_FALSE(cursor.Finish().ok);
    EXPECT_FALSE(cursor.Finish().cs_certified_negative);
  }
}

}  // namespace
}  // namespace daf
