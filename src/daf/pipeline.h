#ifndef DAF_DAF_PIPELINE_H_
#define DAF_DAF_PIPELINE_H_

// Engine-internal: Algorithm 1 written once, as two stages.
//
//   Prepare: BuildDAG, BuildCS, the Appendix A.3 negativity certificate and
//            the path-size weight array, into a PreparedQuery.
//   Search:  backtracking over that PreparedQuery with 1..N threads.
//
// Every public match entry point is a thin wrapper over RunMatch (prepare,
// unless a prebuilt blob is given, then search); PrepareQuery runs the
// prepare stage alone.

#include <cstdint>

#include "daf/engine.h"
#include "daf/prepared.h"
#include "util/stop.h"
#include "util/timer.h"

namespace daf::internal {

/// The stop sources of one run: its deadline (armed from
/// MatchOptions::time_limit_ms at construction) and the one StopCondition
/// polling it together with the cancel token and the memory budget.
struct RunStop {
  explicit RunStop(const MatchOptions& options)
      : deadline(options.time_limit_ms),
        condition(options.time_limit_ms > 0 ? &deadline : nullptr,
                  options.cancel, options.memory_budget) {}
  RunStop(const RunStop&) = delete;
  RunStop& operator=(const RunStop&) = delete;

  Deadline deadline;
  StopCondition condition;  // points at `deadline`
};

/// The prepare stage, into `out` (whose `query` field it does not touch:
/// the structures are built for `query`). With a `context` the CS and the
/// weights live in its arena — valid until the arena's next Reset — and the
/// weights are computed only for MatchOrder::kPathSize; without one they
/// are self-owned and always computed, so a shared blob serves either
/// order. Sets `out->cs_certified_negative` when some candidate set is
/// empty after an uninterrupted build with the budget intact; the weights
/// are then skipped. Returns what stopped the build: the CS build's
/// interrupt cause, or a stop that holds once it returned (kNone = none).
StopCause Prepare(const Graph& query, const Graph& data,
                  const MatchOptions& options, const StopCondition& stop,
                  MatchContext* context, PreparedQuery* out);

/// The whole pipeline: Prepare `query` into the context arena (skipped
/// when `blob` is given — the search then runs over `blob->query`), then
/// Search with `num_threads` workers. One thread runs inline on the calling
/// thread. `context` may be null (a private one is used). A blob whose
/// cs_fingerprint differs from CsFingerprint(options) is refused (ok =
/// false) before anything runs.
MatchResult RunMatch(const Graph& query, const PreparedQuery* blob,
                     const Graph& data, const MatchOptions& options,
                     uint32_t num_threads, MatchContext* context);

}  // namespace daf::internal

#endif  // DAF_DAF_PIPELINE_H_
