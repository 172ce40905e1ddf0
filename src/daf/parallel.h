#ifndef DAF_DAF_PARALLEL_H_
#define DAF_DAF_PARALLEL_H_

#include <cstdint>

#include "daf/engine.h"
#include "graph/graph.h"

namespace daf {

/// Former name of the parallel result; every entry point now returns
/// MatchResult, which carries the per-thread counters. Kept for code that
/// still spells the old name.
using ParallelMatchResult = MatchResult;

/// Multi-threaded DAF: the same prepare-then-search pipeline as DafMatch,
/// with the search distributed over `num_threads` workers (one thread runs
/// inline on the caller, exactly like DafMatch). Every multi-threaded run
/// executes subtree tasks (a partial embedding prefix plus an unexplored
/// candidate range) from per-worker deques. Under the default
/// ParallelStrategy::kWorkStealing one seed task covers the whole search and
/// busy workers split their shallowest splittable range for idle ones.
/// Under kRootCursor only the root's candidates (line 4 of Algorithm 2) are
/// distributed, one unsplittable task per candidate, as in the paper's
/// Appendix A.4. A shared counter enforces the embedding limit with
/// claim-before-count semantics, so the reported count equals exactly
/// min(limit, total embeddings); the *set* found under a limit may differ
/// across runs.
///
/// `options.callback` is invoked under a mutex.
/// With `options.profile` set, each worker fills its own BacktrackProfile;
/// the merge lands in `profile->backtrack` and the per-worker breakdowns in
/// `profile->thread_profiles`.
///
/// `context` (optional) carries the arena for the shared CS/weight arrays
/// and one BacktrackScratch per worker; reusing it keeps warm runs
/// allocation-free, as with DafMatch. Null runs in a private context.
MatchResult ParallelDafMatch(const Graph& query, const Graph& data,
                             const MatchOptions& options, uint32_t num_threads,
                             MatchContext* context = nullptr);

}  // namespace daf

#endif  // DAF_DAF_PARALLEL_H_
