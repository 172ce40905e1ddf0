#ifndef DAF_DAF_BACKTRACK_H_
#define DAF_DAF_BACKTRACK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "daf/boost.h"
#include "daf/candidate_space.h"
#include "daf/match_context.h"
#include "daf/query_dag.h"
#include "daf/weights.h"
#include "graph/embedding.h"
#include "obs/metrics.h"
#include "util/bitset.h"
#include "util/stop.h"
#include "util/timer.h"

namespace daf {

class StealScheduler;  // daf/steal.h
struct SubtreeTask;    // daf/steal.h

/// Which adaptive matching order drives extendable-vertex selection
/// (Section 5.2). The paper's final algorithm DAF uses kPathSize.
enum class MatchOrder {
  kPathSize,       // min w_M(u) over extendable u (weight array estimate)
  kCandidateSize,  // min |C_M(u)| over extendable u
};

/// How ParallelDafMatch distributes the search across workers.
enum class ParallelStrategy {
  /// Splittable subtree tasks on per-worker deques with stealing: idle
  /// workers take the shallowest pending candidate range of a busy victim,
  /// so one skewed root subtree no longer serializes the run.
  kWorkStealing,
  /// The paper's Appendix A.4 scheme: only the root's candidates are
  /// distributed, one unsplittable task each (kept as an ablation baseline).
  kRootCursor,
};

/// Options controlling one backtracking run.
struct BacktrackOptions {
  MatchOrder order = MatchOrder::kPathSize;
  /// Enables failing-set pruning (Section 6). Off = the paper's "DA".
  bool use_failing_sets = true;
  /// When false, enumerates *homomorphisms* instead of embeddings: the
  /// injectivity requirement (condition (1) of Section 2) is dropped, so
  /// distinct query vertices may map to one data vertex and conflict-class
  /// failures disappear. Label and edge conditions still apply.
  bool injective = true;
  /// Defers degree-one query vertices to the end of the matching order
  /// (the leaf decomposition strategy adopted from CFL-Match, Section 3).
  bool leaf_decomposition = true;
  /// Stop after this many embeddings; 0 = enumerate all.
  uint64_t limit = 0;
  /// Optional wall-clock cutoff (not owned).
  const Deadline* deadline = nullptr;
  /// Optional cooperative cancellation (not owned). All stop sources are
  /// folded into one StopCondition polled every 4096 recursive calls, so a
  /// cancel request stops a running search within a few thousand node
  /// expansions (well under the 50 ms serving budget; see util/stop.h).
  const CancelToken* cancel = nullptr;
  /// Optional memory budget (not owned): polled through the same
  /// StopCondition; a latched `exhausted()` stops the search with
  /// `BacktrackStats::resource_exhausted` and valid partial counts.
  const MemoryBudget* budget = nullptr;
  /// Shared embedding counter for multi-threaded runs (not owned). When
  /// set, `limit` applies to the shared total, as in Appendix A.4.
  std::atomic<uint64_t>* shared_count = nullptr;
  /// Task scheduler for multi-threaded runs (not owned). When set, drive
  /// the search through RunWorker instead of Run: the backtracker executes
  /// SubtreeTasks from the scheduler and, when the scheduler allows
  /// splitting and another worker is hungry, donates the shallowest
  /// splittable candidate range of its own open frames.
  StealScheduler* scheduler = nullptr;
  /// Data-vertex equivalence classes; when set, enables the DAF-Boost
  /// failure-skipping rule (Appendix A.5). Not owned.
  const VertexEquivalence* equivalence = nullptr;
  /// Optional per-embedding callback.
  EmbeddingCallback callback;
  /// Optional per-cause prune counters and depth histogram (not owned).
  /// Reset by Run; null disables all profile instrumentation.
  obs::BacktrackProfile* profile = nullptr;
  /// This worker's index in `scheduler` (multi-threaded runs only).
  uint32_t thread_id = 0;
};

/// Outcome counters of one backtracking run.
struct BacktrackStats {
  uint64_t embeddings = 0;       // embeddings found by this backtracker
  uint64_t recursive_calls = 0;  // examined search-tree nodes
  bool limit_reached = false;
  bool timed_out = false;
  bool cancelled = false;
  /// The memory budget latched exhausted (or a simulated donation-allocation
  /// fault fired) mid-search; counts above are valid partial counts.
  bool resource_exhausted = false;
  bool callback_stopped = false;
};

/// The backtracking engine of Algorithm 2: finds all embeddings of q in the
/// CS structure (never touching the data graph, by Theorem 4.1), following a
/// DAG ordering with an adaptive matching order, and pruning redundant
/// siblings via failing sets (Lemma 6.1).
///
/// A Backtracker holds per-run scratch state sized to (query, data); it is
/// single-threaded, but independent instances may run concurrently over a
/// shared CandidateSpace (see parallel.h). The scratch may be external
/// (BacktrackScratch, usually handed out by a MatchContext) so that
/// repeated searches reuse its buffers instead of reallocating.
class Backtracker {
 public:
  /// `weights` may be null iff the run uses MatchOrder::kCandidateSize.
  /// `data_num_vertices` sizes the visited table. `scratch` (optional, not
  /// owned) provides the per-run buffers; one scratch serves one
  /// Backtracker at a time. All referenced objects must outlive the
  /// Backtracker.
  Backtracker(const Graph& query, const QueryDag& dag,
              const CandidateSpace& cs, const WeightArray* weights,
              uint32_t data_num_vertices,
              BacktrackScratch* scratch = nullptr);

  Backtracker(const Backtracker&) = delete;
  Backtracker& operator=(const Backtracker&) = delete;

  /// Runs the search; reentrant (each call resets all scratch state).
  BacktrackStats Run(const BacktrackOptions& options);

  /// Runs one worker of a work-stealing parallel search
  /// (`options.scheduler` must be set): executes SubtreeTasks from the
  /// scheduler — replaying each task's prefix into this worker's scratch,
  /// then enumerating its candidate range, donating sub-ranges on demand —
  /// until the run completes or stops. Reentrant like Run.
  BacktrackStats RunWorker(const BacktrackOptions& options);

 private:
  void InitRun(const BacktrackOptions& options);
  void SeedRoots();
  void Recurse(uint32_t depth);
  /// The sibling loop of Algorithm 2 over candidates [begin, end) of
  /// extendable vertex u at `depth`: conflict/boost/failing-set handling,
  /// plus (when splitting) frame tracking and range donation.
  void EnumerateCandidates(VertexId u, uint32_t depth, uint32_t begin,
                           uint32_t end);
  /// Installs a task's prefix, enumerates its range, and unwinds.
  void ExecuteTask(const SubtreeTask& task);
  /// Splits the shallowest splittable open frame and publishes the upper
  /// half of its unclaimed range to this worker's deque.
  void TryDonate();
  VertexId SelectExtendable() const;
  void ComputeExtendableCandidates(VertexId u);
  void Map(VertexId u, uint32_t cand_idx);
  void Unmap(VertexId u);
  bool ShouldStop();
  void ReportEmbedding();
  /// Adds this run's kernel-selection counters to profile_ (when set).
  void FlushIntersectStats();
  /// Records one examined search-tree node at `depth` (profiling only).
  void CountNode(uint32_t depth) {
    ++profile_->depth_histogram[depth];
    if (depth > profile_->peak_depth) profile_->peak_depth = depth;
  }

  static constexpr uint32_t kNotMapped = static_cast<uint32_t>(-1);

  const Graph& query_;
  const QueryDag& dag_;
  const CandidateSpace& cs_;
  const WeightArray* weights_;
  const uint32_t n_;

  BacktrackOptions options_;
  BacktrackStats stats_;
  bool stop_ = false;

  // Per-run buffers live in *s_ (external when provided, else the inline
  // fallback); the references below alias its fields so the search code
  // reads like the algorithm.
  BacktrackScratch inline_scratch_;
  BacktrackScratch* const s_;
  // Per query vertex.
  std::vector<uint32_t>& mapped_cand_idx_;
  std::vector<VertexId>& mapped_vertex_;
  std::vector<uint32_t>& num_mapped_parents_;
  std::vector<std::vector<uint32_t>>& extendable_cands_;
  std::vector<uint64_t>& extendable_weight_;
  std::vector<bool>& is_leaf_;
  // Per data vertex: query vertex currently mapped to it, or kInvalidVertex.
  std::vector<VertexId>& mapped_by_;
  // LIFO list of vertices that are (or were, while mapped) extendable.
  std::vector<VertexId>& extendable_list_;
  // Failing-set machinery, one slot per recursion depth.
  std::vector<Bitset>& fs_stack_;
  std::vector<bool>& fs_empty_;
  std::vector<Bitset>& fs_union_;
  // DAF-Boost: per-depth record of candidate classes that failed.
  std::vector<std::vector<FailedClass>>& failed_classes_;
  // Scratch of the k-way candidate-set intersection (input views + kernel
  // buffers; see util/intersect.h).
  std::vector<KWayList>& intersect_inputs_;
  KWayScratch& intersect_scratch_;
  std::vector<VertexId>& embedding_buffer_;
  // Kernel-selection counters of this run; flushed into profile_ when set.
  IntersectStats intersect_stats_;
  // Work-stealing bookkeeping (only touched when splitting_).
  std::vector<VertexId>& map_stack_;
  std::vector<SearchFrame>& frames_;
  StealScheduler* scheduler_ = nullptr;
  // The scheduler splits open frames for hungry workers (a split threshold
  // of 0 runs its seeded tasks whole).
  bool splitting_ = false;
  // Deadline + cancellation folded into one sampled predicate (util/stop.h);
  // stop_armed_ caches whether the countdown needs to run at all.
  StopCondition stop_condition_;
  bool stop_armed_ = false;
  uint64_t deadline_check_countdown_ = 0;
  // Observability (inert when options_.profile is unset).
  obs::BacktrackProfile* profile_ = nullptr;
};

}  // namespace daf

#endif  // DAF_DAF_BACKTRACK_H_
