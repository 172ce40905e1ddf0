#ifndef DAF_DAF_PREPARED_H_
#define DAF_DAF_PREPARED_H_

#include <cstdint>
#include <memory>

#include "daf/candidate_space.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "daf/query_dag.h"
#include "daf/weights.h"
#include "graph/graph.h"

namespace daf {

/// The output of the pipeline's prepare stage for one (query, data graph)
/// pair: the rooted query DAG, the CandidateSpace, and the path-size weight
/// array. Built by PrepareQuery it is self-owned (no arena to outlive) and
/// immutable, so one blob may serve any number of concurrent read-only
/// searches through DafMatchPrepared / ParallelDafMatchPrepared — this is
/// the artifact the service-level query cache stores and leases. A cold
/// DafMatch run prepares into a PreparedQuery of its own whose arrays live
/// in the MatchContext arena (and whose `query` stays empty).
struct PreparedQuery {
  /// The query graph the structures below were built for. Searches run
  /// against *this* graph; callers matching a relabeled isomorph must remap
  /// embeddings through their permutation.
  Graph query;
  QueryDag dag;
  CandidateSpace cs;
  /// Path-size order weights over `cs` (valid while `cs` lives; unused by
  /// kCandidateSize runs).
  WeightArray weights;
  /// True when some candidate set came out empty: the CS certifies the
  /// query negative and every search returns immediately (Appendix A.3).
  bool cs_certified_negative = false;
  /// Approximate heap footprint of the blob (CS arrays + weights + graph
  /// + DAG), for cache residency accounting.
  uint64_t resident_bytes = 0;
  /// CsFingerprint of the options this blob was built under; a search
  /// whose options fingerprint differently is refused.
  uint64_t cs_fingerprint = 0;
};

/// Packs the CS-shaping options (refinement steps, NLF/MND filters,
/// injectivity) — the only MatchOptions that change a PreparedQuery — into
/// one word. Search-time options (order, failing sets, limits, equivalence,
/// parallelism) do not enter it: one blob serves all of them.
uint64_t CsFingerprint(const MatchOptions& options);

/// Outcome of PrepareQuery: either a prepared blob, or the stop cause that
/// interrupted the build (deadline / cancel / memory exhaustion — the
/// `prepared` pointer is then null and nothing was retained).
struct PrepareOutcome {
  std::shared_ptr<const PreparedQuery> prepared;
  StopCause interrupted = StopCause::kNone;
  bool ok = true;  // false => `error` (empty query, ...)
  std::string error;
};

/// Builds the shareable prefix once: BuildDAG + standalone CS construction
/// + weight array. Honors `options.cancel`, `options.time_limit_ms`, and
/// `options.memory_budget` through the engine's usual StopCondition, so a
/// cache-filling build is exactly as cancellable as a cold match; an
/// interrupted build returns no blob (never a half-built one). Only the
/// CS-shaping options (refinement_steps, nlf/mnd filters, injective) affect
/// the result; search-time options are applied per run.
PrepareOutcome PrepareQuery(const Graph& query, const Graph& data,
                            const MatchOptions& options);

/// The search stage alone, over a prebuilt PreparedQuery: semantically
/// identical to DafMatch(prepared.query, data, options, context), with
/// preprocess_ms = 0. A blob's certificate is reported whatever the run's
/// stop sources say (it came from an uninterrupted build). The blob is only
/// read; each concurrent call needs its own `context` (or nullptr for a
/// private one). `options` must agree with the blob's CS fingerprint (the
/// service's cache keys on it); otherwise the result is ok = false with an
/// error, since the blob's candidate sets, and any certificate it holds,
/// belong to other CS options.
MatchResult DafMatchPrepared(const PreparedQuery& prepared, const Graph& data,
                             const MatchOptions& options,
                             MatchContext* context = nullptr);

/// Parallel counterpart of DafMatchPrepared (see ParallelDafMatch).
MatchResult ParallelDafMatchPrepared(const PreparedQuery& prepared,
                                     const Graph& data,
                                     const MatchOptions& options,
                                     uint32_t num_threads,
                                     MatchContext* context = nullptr);

}  // namespace daf

#endif  // DAF_DAF_PREPARED_H_
