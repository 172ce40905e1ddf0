#include "daf/pipeline.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "daf/backtrack.h"
#include "daf/candidate_space.h"
#include "daf/query_dag.h"
#include "daf/steal.h"
#include "daf/weights.h"

namespace daf::internal {

namespace {

// Copies the run's memory counters into the profile: the context arena's
// (only when the run prepared into it — a search over a blob never touches
// the arena) and the budget ledger's, when one is attached.
void FillMemoryProfile(obs::SearchProfile* profile, const MatchContext* context,
                       const MemoryBudget* budget) {
  if (profile == nullptr) return;
  if (context != nullptr) {
    const ArenaStats& stats = context->arena_stats();
    profile->memory.arena_bytes = stats.bytes_used;
    profile->memory.arena_peak_bytes = stats.peak_bytes;
    profile->memory.arena_blocks_acquired = stats.blocks_acquired;
    profile->memory.arena_capacity_bytes = stats.capacity_bytes;
  }
  if (budget != nullptr) {
    profile->memory.budget_limit_bytes = budget->limit();
    profile->memory.budget_used_bytes = budget->used();
    profile->memory.budget_peak_bytes = budget->peak_bytes();
    profile->memory.budget_rejections = budget->rejections();
    profile->memory.budget_exhausted = budget->exhausted();
  }
}

// Attaches the context arena to the run's budget for the scope of one match
// and detaches on every exit path — the budget usually lives on the
// caller's stack (ProcessJob, match_cli) and must not outlive-dangle inside
// a pooled context. A null budget makes the scope a no-op.
class ArenaBudgetScope {
 public:
  ArenaBudgetScope(MatchContext* context, MemoryBudget* budget)
      : context_(context), attached_(budget != nullptr) {
    if (attached_) context_->arena().SetBudget(budget);
  }
  ArenaBudgetScope(const ArenaBudgetScope&) = delete;
  ArenaBudgetScope& operator=(const ArenaBudgetScope&) = delete;
  ~ArenaBudgetScope() {
    if (attached_) context_->arena().SetBudget(nullptr);
  }

 private:
  MatchContext* context_;
  bool attached_;
};

// Reports which stop source ended a run before its search.
void RecordStopCause(StopCause cause, MatchResult* result) {
  result->timed_out = cause == StopCause::kDeadline;
  result->cancelled = cause == StopCause::kCancel;
  result->resource_exhausted = cause == StopCause::kMemoryExhausted;
}

// The search-time MatchOptions, as one worker's BacktrackOptions.
BacktrackOptions ToBacktrackOptions(const MatchOptions& options,
                                    const RunStop& stop) {
  BacktrackOptions bt;
  bt.order = options.order;
  bt.use_failing_sets = options.use_failing_sets;
  bt.leaf_decomposition = options.leaf_decomposition;
  bt.limit = options.limit;
  bt.injective = options.injective;
  bt.deadline = options.time_limit_ms > 0 ? &stop.deadline : nullptr;
  bt.cancel = options.cancel;
  bt.budget = options.memory_budget;
  bt.equivalence = options.equivalence;
  bt.callback = options.callback;
  return bt;
}

// Folds one worker's outcome into the run's result.
void AddStats(const BacktrackStats& stats, MatchResult* result) {
  result->embeddings += stats.embeddings;
  result->recursive_calls += stats.recursive_calls;
  result->limit_reached |= stats.limit_reached || stats.callback_stopped;
  result->timed_out |= stats.timed_out;
  result->cancelled |= stats.cancelled;
  result->resource_exhausted |= stats.resource_exhausted;
}

// The search stage over `prepared` with `num_threads` workers. One thread
// runs the Backtracker inline on the calling thread. More threads run
// subtree tasks from one StealScheduler: under kWorkStealing a single seed
// task whose ranges busy workers split for idle ones; under kRootCursor one
// task per candidate of the DAG root, with splitting off (Appendix A.4). A
// shared counter enforces the limit across workers, and the callback runs
// under one mutex. The scheduler counters reach the result, the per-worker
// backtrack profiles the profile.
void Search(const Graph& query, const PreparedQuery& prepared,
            const Graph& data, const MatchOptions& options,
            const RunStop& stop, uint32_t num_threads, MatchContext* context,
            MatchResult* result) {
  obs::SearchProfile* profile = options.profile;
  const WeightArray* weights =
      options.order == MatchOrder::kPathSize ? &prepared.weights : nullptr;
  BacktrackOptions shared = ToBacktrackOptions(options, stop);
  result->threads_used = num_threads;
  if (num_threads == 1) {
    Backtracker backtracker(query, prepared.dag, prepared.cs, weights,
                            data.NumVertices(), &context->backtrack_scratch(0));
    if (profile != nullptr) shared.profile = &profile->backtrack;
    AddStats(backtracker.Run(shared), result);
    result->per_thread_calls.assign(1, result->recursive_calls);
    result->call_imbalance = result->recursive_calls > 0 ? 1.0 : 0.0;
    return;
  }

  const bool root_tasks =
      options.parallel_strategy == ParallelStrategy::kRootCursor;
  StealScheduler scheduler(
      num_threads, root_tasks ? 0 : std::max(options.split_threshold, 1u));
  if (root_tasks) {
    // Appendix A.4: only line 4 of Algorithm 2 runs in parallel, one
    // unsplittable task per candidate of the DAG root.
    const VertexId root = prepared.dag.root();
    for (uint32_t i = 0; i < prepared.cs.NumCandidates(root); ++i) {
      scheduler.Seed(SubtreeTask{{}, root, i, i + 1});
    }
  } else {
    // The seed task (no prefix, no pinned range) makes whichever worker
    // grabs it first start a full search; everyone else feeds on donations.
    scheduler.Seed(SubtreeTask{});
  }
  std::atomic<uint64_t> shared_count{0};
  std::mutex callback_mutex;
  shared.scheduler = &scheduler;
  shared.shared_count = &shared_count;
  if (options.callback) {
    shared.callback = [&](std::span<const VertexId> embedding) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      return options.callback(embedding);
    };
  }

  // One profile per worker; merged below so parallel runs report both the
  // aggregate and the per-thread breakdown.
  std::vector<obs::BacktrackProfile> thread_profiles(
      profile != nullptr ? num_threads : 0);
  std::vector<BacktrackStats> stats(num_threads);
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  // Pre-create every worker's scratch: the vector must not reallocate
  // while workers hold references into it.
  context->EnsureThreads(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t]() {
      Backtracker backtracker(query, prepared.dag, prepared.cs, weights,
                              data.NumVertices(),
                              &context->backtrack_scratch(t));
      BacktrackOptions bt = shared;
      bt.thread_id = t;
      if (profile != nullptr) bt.profile = &thread_profiles[t];
      stats[t] = backtracker.RunWorker(bt);
    });
  }
  for (std::thread& w : workers) w.join();

  result->per_thread_calls.resize(num_threads);
  uint64_t max_calls = 0;
  for (uint32_t t = 0; t < num_threads; ++t) {
    AddStats(stats[t], result);
    result->per_thread_calls[t] = stats[t].recursive_calls;
    max_calls = std::max(max_calls, stats[t].recursive_calls);
    const StealWorkerStats& ws = scheduler.worker_stats(t);
    result->tasks_executed += ws.tasks_executed;
    result->steals += ws.steals;
    result->donations += ws.donations;
    result->idle_ms += ws.idle_ms;
  }
  if (result->recursive_calls > 0) {
    result->call_imbalance = static_cast<double>(max_calls) * num_threads /
                             static_cast<double>(result->recursive_calls);
  }
  if (profile != nullptr) {
    for (const obs::BacktrackProfile& tp : thread_profiles) {
      profile->backtrack.MergeFrom(tp);
    }
    profile->thread_profiles = std::move(thread_profiles);
  }
}

}  // namespace

StopCause Prepare(const Graph& query, const Graph& data,
                  const MatchOptions& options, const StopCondition& stop,
                  MatchContext* context, PreparedQuery* out) {
  obs::SearchProfile* profile = options.profile;
  Arena* arena = context != nullptr ? &context->arena() : nullptr;
  Stopwatch stage_timer;
  out->dag = QueryDag::Build(query, data);
  if (profile != nullptr) {
    profile->dag_build_ms = stage_timer.ElapsedMs();
    stage_timer.Restart();
  }
  CandidateSpace::Options cs_options;
  cs_options.refinement_steps = options.refinement_steps;
  cs_options.use_nlf_filter = options.use_nlf_filter;
  cs_options.use_mnd_filter = options.use_mnd_filter;
  cs_options.injective = options.injective;
  cs_options.profile = profile != nullptr ? &profile->cs : nullptr;
  cs_options.stop = stop.armed() ? &stop : nullptr;
  cs_options.budget = options.memory_budget;
  out->cs = context != nullptr
                ? CandidateSpace::Build(query, out->dag, data, cs_options,
                                        arena, &context->cs_scratch())
                : CandidateSpace::Build(query, out->dag, data, cs_options);
  if (profile != nullptr) profile->cs_build_ms = stage_timer.ElapsedMs();
  // An interrupted build's empty candidate sets are a placeholder, not a
  // negativity certificate.
  if (out->cs.interrupted()) return out->cs.interrupt_cause();

  // A stop may latch between the build's sampled polls and its return.
  const StopCause cause = stop.Check();
  const MemoryBudget* budget = options.memory_budget;
  if (budget == nullptr || !budget->exhausted()) {
    // Skipped when the budget latched: an exhausted run must never claim
    // a certificate.
    for (uint32_t u = 0; u < query.NumVertices(); ++u) {
      if (out->cs.NumCandidates(u) == 0) {
        out->cs_certified_negative = true;
        return cause;
      }
    }
  }
  if (cause != StopCause::kNone) return cause;

  if (context == nullptr || options.order == MatchOrder::kPathSize) {
    stage_timer.Restart();
    out->weights = WeightArray::Compute(out->dag, out->cs, arena);
    if (profile != nullptr) profile->weights_ms = stage_timer.ElapsedMs();
  }
  return StopCause::kNone;
}

MatchResult RunMatch(const Graph& query, const PreparedQuery* blob,
                     const Graph& data, const MatchOptions& options,
                     uint32_t num_threads, MatchContext* context) {
  MatchResult result;
  if (blob == nullptr && query.NumVertices() == 0) {
    result.ok = false;
    result.error = "empty query graph";
    return result;
  }
  if (blob != nullptr && blob->cs_fingerprint != CsFingerprint(options)) {
    // The blob's candidate sets (and any certificate) belong to other CS
    // options; searching them would answer a different question.
    result.ok = false;
    result.error =
        "prepared query was built under different CS options (refinement "
        "steps, NLF/MND filters, injectivity)";
    return result;
  }
  num_threads = std::max(num_threads, 1u);
  obs::SearchProfile* profile = options.profile;
  if (profile != nullptr) profile->Reset();
  std::optional<MatchContext> private_context;
  if (context == nullptr) context = &private_context.emplace();
  MemoryBudget* budget = options.memory_budget;
  // A cold run owns the arena epoch: the reset invalidates the previous
  // run's CS and weights, and the scope charges the warm arena's retained
  // capacity (and every block acquired) to the budget until return. A
  // search over a blob leaves the arena alone.
  MatchContext* arena_owner = blob == nullptr ? context : nullptr;
  if (arena_owner != nullptr) arena_owner->arena().Reset();
  ArenaBudgetScope budget_scope(context,
                                arena_owner != nullptr ? budget : nullptr);
  const RunStop stop(options);

  std::optional<PreparedQuery> cold;
  const PreparedQuery* prepared = blob;
  StopCause cause;
  if (blob == nullptr) {
    Stopwatch preprocess_timer;
    prepared = &cold.emplace();
    cause = Prepare(query, data, options, stop.condition, context, &*cold);
    result.preprocess_ms = preprocess_timer.ElapsedMs();
  } else {
    cause = stop.condition.Check();
  }
  result.cs_candidates = prepared->cs.TotalCandidates();
  result.cs_edges = prepared->cs.TotalEdges();

  if (prepared->cs_certified_negative) {
    // The CS certifies negativity: no search needed (Appendix A.3). A
    // blob's certificate came from an uninterrupted build, so it holds
    // whatever this run's stop sources say.
    result.cs_certified_negative = true;
  } else if (cause != StopCause::kNone) {
    RecordStopCause(cause, &result);
  } else {
    Stopwatch search_timer;
    Search(blob != nullptr ? blob->query : query, *prepared, data, options,
           stop, num_threads, context, &result);
    result.search_ms = search_timer.ElapsedMs();
    if (profile != nullptr) profile->search_ms = result.search_ms;
    if (budget != nullptr && budget->exhausted()) {
      // The budget may latch between the search's sampled polls and its
      // last return; report exhaustion whenever the flag is up so the
      // outcome is deterministic for a given schedule.
      result.resource_exhausted = true;
    }
  }
  FillMemoryProfile(profile, arena_owner, budget);
  return result;
}

}  // namespace daf::internal
