#include "daf/engine.h"

#include "daf/parallel.h"
#include "daf/pipeline.h"

namespace daf {

MatchResult DafMatch(const Graph& query, const Graph& data,
                     const MatchOptions& options) {
  return internal::RunMatch(query, nullptr, data, options, 1, nullptr);
}

MatchResult DafMatch(const Graph& query, const Graph& data,
                     const MatchOptions& options, MatchContext* context) {
  return internal::RunMatch(query, nullptr, data, options, 1, context);
}

MatchResult ParallelDafMatch(const Graph& query, const Graph& data,
                             const MatchOptions& options, uint32_t num_threads,
                             MatchContext* context) {
  return internal::RunMatch(query, nullptr, data, options, num_threads,
                            context);
}

uint64_t CountAutomorphisms(const Graph& g) {
  MatchOptions options;
  options.limit = 0;
  MatchResult result = DafMatch(g, g, options);
  return result.ok ? result.embeddings : 0;
}

}  // namespace daf
