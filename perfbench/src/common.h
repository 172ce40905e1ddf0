// Shared plumbing of the perfbench binary: run arguments, the in-memory
// span tracer of traced runs, latency statistics, the host/build
// fingerprint, and the report that ends every run with one JSON line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "obs/service_metrics.h"
#include "service/match_service.h"
#include "util/rng.h"

namespace perfbench {

class Report;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the on-disk inputs (graph text, snapshots, WAL)
  /// and the trace file; created by the caller, removed by the caller.
  std::string work_dir;
  /// Where the full JSON report (fingerprint, layer shares, workload
  /// record) is written; empty = not written.
  std::string report_path;
  /// Where a traced run writes its spans; empty = not written.
  std::string trace_path;
  std::string commit = "unknown";
};

// ---------------------------------------------------------------------------
// Tracing. Spans are kept in memory and written out when the run ends. A
// span's self time is its duration minus the part of it that its children
// cover. Single-threaded: spans opened with Begin nest under the innermost
// open span.

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int32_t parent = -1;
  uint64_t request = 0;
};

struct SpanTotals {
  std::string root;  // name of the outermost span it ran under
  uint64_t count = 0;
  double total_ms = 0;  // summed durations
  double self_ms = 0;   // summed self times
};

class Tracer {
 public:
  int32_t Begin(const std::string& name, uint64_t request);
  void End(int32_t id);
  /// Records a finished span with explicit times under `parent` (-1 = a
  /// root); used for spans reconstructed from timings the service reports.
  int32_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int32_t parent, uint64_t request);
  /// Per span name: call count, total time and self time.
  std::map<std::string, SpanTotals> Totals() const;
  /// Writes every span as JSON (times relative to the first span).
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer makes it a no-op, so staged code paths can be
/// shared between traced and untraced replays.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
double Quantile(std::vector<double>& samples, double q);
double Median(std::vector<double> samples);
/// Each non-empty window's q-quantile. Host interference comes in
/// stretches of seconds, so workloads summarise per window and then take
/// the median (or the fastest) window rather than one run-long figure.
std::vector<double> WindowQuantiles(std::vector<std::vector<double>> windows,
                                    double q);
/// VmHWM of this process in MiB.
double PeakRssMb();
/// Returns freed heap to the system and resets VmHWM to the current RSS
/// (writes 5 to /proc/self/clear_refs), so that a later PeakRssMb() sees
/// the timed phase rather than input synthesis or repeated set-ups. False
/// when the kernel refuses the reset.
bool ResetPeakRss();

/// The machine's CPU time so far, from the first line of /proc/stat, in
/// clock ticks: all of it, and the part the hypervisor gave to other guests
/// while a virtual CPU of this one wanted to run (steal).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
/// Steal's share of the CPU time between two readings (0 when none passed).
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// Runs `setup` `repeats` times, appending each wall time in seconds to
/// `samples`. Workloads spread their set-ups over the run (before and after
/// the timed phase, or between its passes) and report the median of all:
/// host speed drifts over seconds, so set-ups far apart vary more
/// independently than back-to-back ones, and their median moves less
/// between runs.
void TimeSetups(int repeats, const std::function<void()>& setup,
                std::vector<double>* samples);

// ---------------------------------------------------------------------------
// Inputs.

/// Draws patterns from a pool with Zipf(s = 1) popularity (pool order is
/// rank order) and relabels each draw's vertices at random, so only
/// canonical keying can recognise a resubmission. Deterministic in `seed`.
class ZipfStream {
 public:
  ZipfStream(const std::vector<daf::Graph>& pool, uint64_t seed);
  /// The drawn pool index and its relabeled copy.
  std::pair<uint32_t, daf::Graph> Next();

 private:
  const std::vector<daf::Graph>& pool_;
  daf::Rng rng_;
  std::vector<double> weights_;
};


bool WriteQueries(const std::vector<daf::Graph>& queries,
                  const std::string& path);
bool LoadQueries(const std::string& path, std::vector<daf::Graph>* out);

// ---------------------------------------------------------------------------
// Service load (hprd-zipf, rmat-rw).

/// An open loop whose admission queue ends holding more than this many
/// seconds of offered load has turned into a closed loop: the backlog grew at
/// the offered rate. A stall of the host shorter than this leaves a backlog
/// that the service drains, and does not trip the check.
constexpr double kMaxBacklogSeconds = 1.0;
/// Window of the open loops' latency statistics, by due time.
constexpr double kOpenWindowSeconds = 2;

daf::service::QueryJob LimitedJob(daf::Graph query, uint64_t limit);

/// One request to the service. Settle() copies the outcome out of the
/// handle and releases it, so a long run does not keep every finished job's
/// state alive.
struct Sent {
  uint32_t pattern = 0;
  Clock::time_point due;
  Clock::time_point submitted;
  daf::service::JobHandle handle;
  daf::service::JobStatus status = daf::service::JobStatus::kQueued;
  daf::service::CacheOutcome outcome = daf::service::CacheOutcome::kNone;
  double wait_ms = 0;
  double run_ms = 0;
  uint64_t embeddings = 0;

  void Settle();
  /// Due time to terminal state.
  double LatencyMs() const {
    return MsBetween(due, submitted) + wait_ms + run_ms;
  }
};

/// Called with each settled request of a closed loop. The loops keep only
/// the requests in flight, so the harness's memory does not grow with the
/// service's throughput.
using OnSettled = std::function<void(const Sent&)>;

/// Keeps `outstanding` requests drawn from `stream` in flight until `until`
/// or `max_requests`, then waits for them; returns the number sent. The
/// generator yields rather than sleeps between polls: a short sleep lasts
/// longer than rmat-rw's reads, and would set their rate. `poll`,
/// when set, runs on every pass of the generator (rmat-rw applies its due
/// update batches there).
size_t ClosedLoop(daf::service::MatchService& service, ZipfStream& stream,
                  uint64_t limit, uint32_t outstanding, Clock::time_point until,
                  size_t max_requests, const OnSettled& settled,
                  const std::function<void()>& poll = {});

/// A closed loop measured in one-second windows: per window, the requests
/// completed per second, the latency quantiles of the requests it
/// submitted, and the share of the machine's CPU time the hypervisor stole
/// (kept in the report, to tell a run slowed by its neighbours). The first
/// window, which settles the context pool, is dropped when there are more.
/// The median window is reported, so a stretch of host interference moves
/// the figures less than a run-long statistic would.
struct Capacity {
  std::vector<double> window_qps;
  std::vector<double> window_p50_ms;
  std::vector<double> window_p95_ms;
  std::vector<double> window_steal;
};
Capacity CapacityPhase(daf::service::MatchService& service, ZipfStream& stream,
                       uint64_t limit, uint32_t outstanding, double seconds,
                       const OnSettled& settled,
                       const std::function<void()>& poll = {});

/// Latencies of the requests of `sent` that ended kDone, in windows of
/// kOpenWindowSeconds by due time from `start`.
std::vector<std::vector<double>> LatencyWindows(const std::vector<Sent>& sent,
                                                Clock::time_point start);

/// The checks both service workloads make: hits + misses + coalesced ==
/// lookups, and an open loop at `offered_rate` requests per second whose
/// queue ended holding more than kMaxBacklogSeconds of it is invalid.
/// Returns the cache hit rate between the two snapshots.
double CheckServiceRun(const daf::obs::ServiceMetricsSnapshot& before,
                       const daf::obs::ServiceMetricsSnapshot& after,
                       double offered_rate, uint64_t depth_start,
                       uint64_t depth_end, Report* report);

// ---------------------------------------------------------------------------
// The report.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  /// End-to-end metric (untraced runs).
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  /// Per-layer metric (traced runs).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A free-form record entry for the report file (workload config, layer
  /// shares, accounting); `value` is a JSON literal.
  void Record(const std::string& key, const std::string& json_value);
  void RecordNumber(const std::string& key, double value);
  void RecordNumbers(const std::string& key, const std::vector<double>& values);

  /// `n` failed, rejected, timed-out or wrong operations.
  void Fail(const std::string& what, uint64_t n = 1);
  void Attempted(uint64_t n) { attempted_ += n; }
  /// A correctness check that does not correspond to one operation
  /// (invariants, an invalid open loop): marks the whole run incorrect.
  void Invalid(const std::string& what);

  /// Fills in every per-layer metric a traced run of this workload did not
  /// exercise with 0 (so each traced run reports the full set), prints one
  /// human-readable line per metric, writes the report file, and prints the
  /// final JSON line. Returns the process exit code.
  int Finish();

 private:
  const Args& args_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, std::string>> records_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool invalid_ = false;
  std::vector<std::string> problems_;
};

/// Host and build fingerprint as a JSON object literal.
std::string FingerprintJson(const Args& args);
/// True for a Release build of this binary.
bool IsReleaseBuild();

/// Per-layer metric names (with units) every traced run reports.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

/// Records, per span name, its calls, self time and share of the time of
/// the root spans it ran under (e.g. a stage's share of all queries).
void RecordLayerShares(const Tracer& tracer, Report* report);

/// The traced run's accounting check: the staged layers' self times must
/// add up to the untraced time of the same requests within
/// kAccountingTolerance, and the traced set-up's layers to the median
/// untraced set-up within kSetupAccountingTolerance (one traced set-up
/// against the median of several, so a wider band). Outside either band the
/// run is marked incorrect: the stages no longer explain the end-to-end
/// time.
constexpr double kAccountingTolerance = 0.2;
constexpr double kSetupAccountingTolerance = 0.5;
void CheckAccounting(double accounted, double setup_accounted,
                     Report* report);

/// Summed self ms of the spans named `names` (0 for one that never ran).
double SelfMs(const std::map<std::string, SpanTotals>& totals,
              std::initializer_list<std::string> names);
/// Mean self ms per call of span `name` (0 when it never ran).
double MeanSelfMs(const std::map<std::string, SpanTotals>& totals,
                  const std::string& name);

// Workload entry points (yeast.cc, hprd.cc, rmat.cc). Each returns the
// process exit code.
int RunYeast(const Args& args);
int RunHprdZipf(const Args& args);
int RunRmatRw(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
