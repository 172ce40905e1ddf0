#ifndef DAF_DAF_PARALLEL_H_
#define DAF_DAF_PARALLEL_H_

#include <cstdint>

#include "daf/engine.h"
#include "graph/graph.h"

namespace daf {

/// Extra counters reported by the parallel engine.
struct ParallelMatchResult : MatchResult {
  uint32_t threads_used = 0;
  /// Recursive calls performed by each thread (load-balance diagnostics).
  std::vector<uint64_t> per_thread_calls;
  // Work-stealing scheduler counters (all zero under kRootCursor).
  uint64_t tasks_executed = 0;  // subtree tasks run (seed + stolen)
  uint64_t steals = 0;          // tasks taken from another worker
  uint64_t donations = 0;       // candidate ranges split off for thieves
  double idle_ms = 0;           // summed time workers spent out of work
  /// Workers were pinned to cpus (MatchOptions::pin_workers on a
  /// multi-cpu host).
  bool pinned = false;
  /// max/mean per-thread recursive calls: 1.0 = perfect balance,
  /// `threads_used` = one worker did everything.
  double call_imbalance = 0;
};

/// Multi-threaded DAF: the same prepare-then-search pipeline as DafMatch,
/// with the search distributed over `num_threads` workers (one thread runs
/// inline on the caller, exactly like DafMatch). Under the default
/// ParallelStrategy::kWorkStealing each worker runs subtree tasks (a partial
/// embedding prefix plus an unexplored candidate range) from per-worker
/// deques, and busy workers split their shallowest splittable range for
/// idle ones. Under kRootCursor only the root's candidates (line 4 of
/// Algorithm 2) are distributed through an atomic cursor, as in the paper's
/// Appendix A.4. A shared counter enforces the embedding limit with
/// claim-before-count semantics, so the reported count equals exactly
/// min(limit, total embeddings); the *set* found under a limit may differ
/// across runs.
///
/// `options.callback` and `options.progress` are invoked under a mutex.
/// With `options.profile` set, each worker fills its own BacktrackProfile;
/// the merge lands in `profile->backtrack` and the per-worker breakdowns in
/// `profile->thread_profiles`.
///
/// `context` (optional) carries the arena for the shared CS/weight arrays
/// and one BacktrackScratch per worker; reusing it keeps warm runs
/// allocation-free, as with DafMatch. Null runs in a private context.
ParallelMatchResult ParallelDafMatch(const Graph& query, const Graph& data,
                                     const MatchOptions& options,
                                     uint32_t num_threads,
                                     MatchContext* context = nullptr);

}  // namespace daf

#endif  // DAF_DAF_PARALLEL_H_
