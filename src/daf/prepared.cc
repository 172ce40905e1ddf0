#include "daf/prepared.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "daf/pipeline.h"

namespace daf {

namespace {

// Approximate heap footprint of a finished blob, from the sizes the public
// surface exposes: the flat CS arrays dominate (Figure 9), with the weight
// array, the ancestor bitsets, and the graph itself as the other terms.
uint64_t EstimateResidentBytes(const PreparedQuery& pq) {
  const uint64_t n = pq.query.NumVertices();
  const uint64_t cands = pq.cs.TotalCandidates();
  const uint64_t cs_edges = pq.cs.TotalEdges();
  uint64_t bytes = 0;
  bytes += 32 * n + 16 * pq.query.NumEdges();        // graph CSR + labels
  bytes += n * ((n + 63) / 64) * 8 + 64 * n;         // DAG ancestors + lists
  bytes += 12 * cands;                               // cand_data + offsets
  bytes += 8 * cands;                                // weight array
  bytes += 4 * cs_edges + 8 * (cands + 2 * pq.dag.NumEdges());  // CS edges
  return bytes;
}

}  // namespace

uint64_t CsFingerprint(const MatchOptions& options) {
  uint64_t fp = static_cast<uint64_t>(
      std::clamp(options.refinement_steps, 0, 255));
  if (options.use_nlf_filter) fp |= 1u << 8;
  if (options.use_mnd_filter) fp |= 1u << 9;
  if (options.injective) fp |= 1u << 10;
  return fp;
}

PrepareOutcome PrepareQuery(const Graph& query, const Graph& data,
                            const MatchOptions& options) {
  PrepareOutcome outcome;
  if (query.NumVertices() == 0) {
    outcome.ok = false;
    outcome.error = "empty query graph";
    return outcome;
  }
  const internal::RunStop stop(options);
  // A shared blob's build reports into no caller's profile (searches reset
  // theirs), so it runs uninstrumented.
  MatchOptions build = options;
  build.profile = nullptr;
  auto pq = std::make_shared<PreparedQuery>();
  pq->query = query;
  pq->cs_fingerprint = CsFingerprint(options);
  // Standalone build (no context): the blob owns its flat arrays, so no
  // arena has to outlive the cache entry. An interrupted build never yields
  // a blob, even one that already holds a certificate.
  outcome.interrupted = internal::Prepare(pq->query, data, build,
                                          stop.condition, nullptr, pq.get());
  if (outcome.interrupted != StopCause::kNone) return outcome;
  pq->resident_bytes = EstimateResidentBytes(*pq);
  outcome.prepared = std::move(pq);
  return outcome;
}

MatchResult DafMatchPrepared(const PreparedQuery& prepared, const Graph& data,
                             const MatchOptions& options,
                             MatchContext* context) {
  return internal::RunMatch(prepared.query, &prepared, data, options, 1,
                            context);
}

MatchResult ParallelDafMatchPrepared(const PreparedQuery& prepared,
                                     const Graph& data,
                                     const MatchOptions& options,
                                     uint32_t num_threads,
                                     MatchContext* context) {
  return internal::RunMatch(prepared.query, &prepared, data, options,
                            num_threads, context);
}

}  // namespace daf
