#ifndef DAF_SERVICE_JOB_H_
#define DAF_SERVICE_JOB_H_

#include <cstdint>

#include "daf/engine.h"
#include "graph/graph.h"

namespace daf::service {

/// Scheduling class of a submitted query. The admission queue is strict:
/// a worker always picks the highest class with waiting jobs, FIFO within
/// a class; there is no aging (a saturating stream of interactive jobs can
/// starve batch work — by design, the serving tier's contract).
enum class Priority : uint8_t {
  kInteractive = 0,  // latency-sensitive, always scheduled first
  kNormal = 1,       // the default
  kBatch = 2,        // throughput work, runs when nothing else waits
};
inline constexpr int kNumPriorities = 3;

/// Lifecycle of a job. Queued -> Running -> one terminal state; Rejected
/// jobs never enter the queue, and a cancel observed while still queued
/// goes straight to Cancelled without running.
enum class JobStatus : uint8_t {
  kQueued = 0,
  kRunning,
  kDone,       // terminal: ran to a normal MatchResult (incl. limit hits)
  kCancelled,  // terminal: cooperative cancel, while queued or mid-search
  kTimedOut,   // terminal: per-job deadline expired, queued or mid-run
  kRejected,   // terminal: queue overflow or service shut down
  kFailed,     // terminal: the engine reported an error (result.ok false)
  kResourceExhausted,  // terminal: memory budget exhausted; partial counts
};

/// True for the states a job can never leave.
constexpr bool IsTerminal(JobStatus s) {
  return s != JobStatus::kQueued && s != JobStatus::kRunning;
}

/// How the cross-query plan/CS cache served a job. kNone covers every path
/// that never performed a cache lookup: the cache disabled, the job opting
/// out via QueryJob::bypass_cache, a job that never ran, or an uncacheable
/// query (canonization overran its leaf cap). kCoalesced means the job
/// waited on another job's in-flight build of the same canonical pattern
/// instead of building its own.
enum class CacheOutcome : uint8_t {
  kNone = 0,
  kHit,
  kMiss,
  kCoalesced,
};

const char* ToString(JobStatus s);
const char* ToString(Priority p);
const char* ToString(CacheOutcome o);

/// Parses "interactive" / "normal" / "batch" (returns false on anything
/// else, leaving `*out` untouched).
bool ParsePriority(const char* text, Priority* out);

/// One unit of work submitted to a MatchService: the query graph (owned by
/// the job — the caller's graph is moved/copied in, so the submitter may
/// discard theirs immediately), the engine options, and the serving knobs.
struct QueryJob {
  Graph query;

  /// Engine options. `callback`, `profile`, and `cancel` must be unset —
  /// the service owns those channels (results stream through the
  /// JobHandle, the profile is collected per job, cancellation goes
  /// through JobHandle::Cancel). `time_limit_ms` still applies as a pure search
  /// budget and composes with `deadline_ms` below (the tighter one wins).
  MatchOptions options;

  Priority priority = Priority::kNormal;

  /// End-to-end budget in milliseconds, measured from submission — queue
  /// wait counts against it, so a job that waits too long times out without
  /// ever running. 0 = no deadline.
  uint64_t deadline_ms = 0;

  /// Stop after this many embeddings; overrides `options.limit` when
  /// non-zero (0 = keep options.limit, which may itself be 0 = all).
  uint64_t limit = 0;

  /// When true the job's embeddings are delivered through the handle's
  /// batch API (JobHandle::NextBatch) with bounded buffering: a full buffer
  /// blocks the search (backpressure) until the consumer drains it or the
  /// job is cancelled. When false only counts are reported.
  bool stream_embeddings = false;

  /// Per-job memory budget in bytes (0 = unlimited; the service-global
  /// limit still applies). A job that exceeds it terminates as
  /// kResourceExhausted with partial counts; see docs/ROBUSTNESS.md.
  uint64_t max_memory_bytes = 0;

  /// When true the job never consults the cross-query plan/CS cache: it
  /// builds (and does not publish) its own DAG + CandidateSpace, exactly as
  /// if the cache were disabled. Differential tests use this to get a cold
  /// baseline from a warmed service.
  bool bypass_cache = false;
};

}  // namespace daf::service

#endif  // DAF_SERVICE_JOB_H_
