#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "graph/canonical.h"
#include "graph/io.h"
#include "obs/json.h"
#include "util/intersect.h"

namespace perfbench {

// --- Tracer -----------------------------------------------------------------

int32_t Tracer::Begin(const std::string& name, uint64_t request) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<int32_t>(spans_.size());
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, now, now, parent, request});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end = Clock::now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int32_t Tracer::Add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int32_t parent, uint64_t request) {
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  // Children of each span, to subtract the union of their intervals.
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double duration = MsBetween(s.start, s.end);
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (int32_t c : children[i]) {
      const Span& k = spans_[static_cast<size_t>(c)];
      cover.emplace_back(std::max(k.start, s.start), std::min(k.end, s.end));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : cover) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += MsBetween(from, b);
        reach = b;
      }
    }
    int32_t top = static_cast<int32_t>(i);
    while (spans_[static_cast<size_t>(top)].parent >= 0) {
      top = spans_[static_cast<size_t>(top)].parent;
    }
    SpanTotals& t = totals[s.name];
    t.root = spans_[static_cast<size_t>(top)].name;
    ++t.count;
    t.total_ms += duration;
    t.self_ms += std::max(0.0, duration - covered);
  }
  return totals;
}

bool Tracer::Write(const std::string& path) const {
  if (spans_.empty() || path.empty()) return true;
  Clock::time_point origin = spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  daf::obs::JsonWriter w(0);
  w.BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject()
        .Key("name").String(s.name)
        .Key("start_ms").Double(MsBetween(origin, s.start))
        .Key("end_ms").Double(MsBetween(origin, s.end))
        .Key("parent").Int(s.parent)
        .Key("request").Uint(s.request)
        .EndObject();
  }
  w.EndArray();
  std::ofstream out(path);
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

// --- Statistics -------------------------------------------------------------

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(samples.size())) {
    ++rank;
  }
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) { return Quantile(samples, 0.5); }

std::vector<double> WindowQuantiles(std::vector<std::vector<double>> windows,
                                    double q) {
  std::vector<double> per_window;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return per_window;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted in user.
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(stat >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void TimeSetups(int repeats, const std::function<void()>& setup,
                std::vector<double>* samples) {
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    samples->push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
}

// --- Inputs -----------------------------------------------------------------

ZipfStream::ZipfStream(const std::vector<daf::Graph>& pool, uint64_t seed)
    : pool_(pool), rng_(seed), weights_(pool.size()) {
  for (size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = 1.0 / static_cast<double>(i + 1);
  }
}

std::pair<uint32_t, daf::Graph> ZipfStream::Next() {
  const auto p = static_cast<uint32_t>(rng_.WeightedIndex(weights_));
  std::vector<daf::VertexId> perm(pool_[p].NumVertices());
  std::iota(perm.begin(), perm.end(), 0u);
  rng_.Shuffle(perm);
  return {p, daf::PermuteVertices(pool_[p], perm)};
}

bool WriteQueries(const std::vector<daf::Graph>& queries,
                  const std::string& path) {
  std::ofstream out(path);
  for (const daf::Graph& q : queries) out << daf::GraphToText(q);
  return static_cast<bool>(out);
}

bool LoadQueries(const std::string& path, std::vector<daf::Graph>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line, chunk;
  auto flush = [&]() {
    if (chunk.empty()) return true;
    std::string error;
    std::optional<daf::Graph> g = daf::ParseGraphText(chunk, &error);
    if (!g) {
      std::fprintf(stderr, "query parse error: %s\n", error.c_str());
      return false;
    }
    out->push_back(std::move(*g));
    chunk.clear();
    return true;
  };
  while (std::getline(in, line)) {
    if (line.rfind("t ", 0) == 0 && !flush()) return false;
    chunk += line;
    chunk += '\n';
  }
  return flush();
}

// --- Service load -----------------------------------------------------------

daf::service::QueryJob LimitedJob(daf::Graph query, uint64_t limit) {
  daf::service::QueryJob job;
  job.query = std::move(query);
  job.limit = limit;
  return job;
}

void Sent::Settle() {
  status = handle.Wait();
  outcome = handle.cache_outcome();
  wait_ms = handle.wait_ms();
  run_ms = handle.run_ms();
  embeddings = handle.Result().embeddings;
  handle = daf::service::JobHandle();
}

size_t ClosedLoop(daf::service::MatchService& service, ZipfStream& stream,
                  uint64_t limit, uint32_t outstanding, Clock::time_point until,
                  size_t max_requests, const OnSettled& settled,
                  const std::function<void()>& poll) {
  std::vector<Sent> slots(outstanding);
  size_t count = 0;
  auto submit = [&](Sent& s) {
    auto [p, q] = stream.Next();
    s = Sent();
    s.pattern = p;
    s.due = s.submitted = Clock::now();
    s.handle = service.Submit(LimitedJob(std::move(q), limit));
    ++count;
  };
  for (Sent& s : slots) submit(s);
  while (Clock::now() < until && count < max_requests) {
    if (poll) poll();
    bool progressed = false;
    for (Sent& s : slots) {
      if (s.handle.Done()) {
        s.Settle();
        settled(s);
        submit(s);
        progressed = true;
      }
    }
    if (!progressed) std::this_thread::yield();
  }
  for (Sent& s : slots) {
    s.Settle();
    settled(s);
  }
  return count;
}

Capacity CapacityPhase(daf::service::MatchService& service, ZipfStream& stream,
                       uint64_t limit, uint32_t outstanding, double seconds,
                       const OnSettled& settled,
                       const std::function<void()>& poll) {
  Capacity capacity;
  std::vector<double> latency_ms;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    latency_ms.clear();
    const CpuTicks t0 = ReadCpuTicks();
    const Clock::time_point w0 = Clock::now();
    const size_t sent = ClosedLoop(
        service, stream, limit, outstanding,
        std::min(end, w0 + std::chrono::seconds(1)), SIZE_MAX,
        [&](const Sent& s) {
          latency_ms.push_back(s.LatencyMs());
          settled(s);
        },
        poll);
    capacity.window_qps.push_back(static_cast<double>(sent) /
                                  (MsBetween(w0, Clock::now()) / 1000.0));
    capacity.window_p50_ms.push_back(Quantile(latency_ms, 0.50));
    capacity.window_p95_ms.push_back(Quantile(latency_ms, 0.95));
    capacity.window_steal.push_back(StealShare(t0, ReadCpuTicks()));
  }
  if (capacity.window_qps.size() > 1) {
    for (std::vector<double>* v : {&capacity.window_qps,
                                   &capacity.window_p50_ms,
                                   &capacity.window_p95_ms,
                                   &capacity.window_steal}) {
      v->erase(v->begin());
    }
  }
  return capacity;
}

std::vector<std::vector<double>> LatencyWindows(const std::vector<Sent>& sent,
                                                Clock::time_point start) {
  std::vector<std::vector<double>> windows;
  for (const Sent& s : sent) {
    if (s.status != daf::service::JobStatus::kDone) continue;
    const auto w = static_cast<size_t>(MsBetween(start, s.due) /
                                       (kOpenWindowSeconds * 1000.0));
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(s.LatencyMs());
  }
  return windows;
}

double CheckServiceRun(const daf::obs::ServiceMetricsSnapshot& before,
                       const daf::obs::ServiceMetricsSnapshot& after,
                       double offered_rate, uint64_t depth_start,
                       uint64_t depth_end, Report* report) {
  if (after.cache_hits + after.cache_misses + after.cache_coalesced !=
      after.cache_lookups) {
    report->Invalid("cache hits+misses+coalesced != lookups");
  }
  if (static_cast<double>(depth_end) > offered_rate * kMaxBacklogSeconds) {
    report->Invalid("open loop backlog grew: queue depth " +
                    std::to_string(depth_start) + " -> " +
                    std::to_string(depth_end) + " at " +
                    std::to_string(offered_rate) + " requests/s");
  }
  const double lookups =
      static_cast<double>(after.cache_lookups - before.cache_lookups);
  return lookups > 0 ? static_cast<double>(after.cache_hits -
                                           before.cache_hits) /
                           lookups
                     : 0;
}

// --- Fingerprint ------------------------------------------------------------

bool IsReleaseBuild() {
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
}

std::string FingerprintJson(const Args& args) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const char* simd = "none";
  switch (daf::DetectedSimdLevel()) {
    case daf::SimdLevel::kAvx2: simd = "avx2"; break;
    case daf::SimdLevel::kSse: simd = "sse"; break;
    case daf::SimdLevel::kNone: break;
  }
  daf::obs::JsonWriter w(0);
  w.BeginObject()
      .Key("cpu").String(cpu)
      .Key("nproc").Int(sysconf(_SC_NPROCESSORS_ONLN))
      .Key("simd").String(simd)
      .Key("build_type").String(PERFBENCH_BUILD_TYPE)
      .Key("compiler").String(PERFBENCH_COMPILER)
      .Key("commit").String(args.commit)
      .EndObject();
  return w.str();
}

// --- Report -----------------------------------------------------------------

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Report::Record(const std::string& key, const std::string& json_value) {
  records_.emplace_back(key, json_value);
}

void Report::RecordNumber(const std::string& key, double value) {
  daf::obs::JsonWriter w(0);
  w.Double(value);
  Record(key, w.str());
}

void Report::RecordNumbers(const std::string& key,
                           const std::vector<double>& values) {
  daf::obs::JsonWriter w(0);
  w.BeginArray();
  for (double v : values) w.Double(v);
  w.EndArray();
  Record(key, w.str());
}

void Report::Fail(const std::string& what, uint64_t n) {
  failed_ += n;
  if (problems_.size() < 20) problems_.push_back(what);
}

void Report::Invalid(const std::string& what) {
  invalid_ = true;
  problems_.push_back(what);
}

int Report::Finish() {
  if (args_.trace) {
    for (const auto& [name, unit] : LayerMetricNames()) {
      bool present = false;
      for (const Metric& m : layers_) present = present || m.name == name;
      if (!present) Layer(name, 0, unit);
    }
  }
  const std::vector<Metric>& metrics = args_.trace ? layers_ : end_to_end_;
  const double error_rate =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  for (const std::string& p : problems_) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  std::printf("workload %s seed %llu trace %d\n", args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed),
              args_.trace ? 1 : 0);
  std::printf("fingerprint %s\n", FingerprintJson(args_).c_str());
  std::printf("%-28s %14.6g %s\n", "error_rate", error_rate, "ratio");
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = !invalid_ && failed_ == 0 && attempted_ > 0;
  if (!args_.report_path.empty()) {
    daf::obs::JsonWriter w(0);
    w.BeginObject()
        .Key("workload").String(args_.workload)
        .Key("seed").Uint(args_.seed)
        .Key("seconds").Double(args_.seconds)
        .Key("trace").Bool(args_.trace)
        .Key("correct").Bool(correct)
        .Key("attempted").Uint(attempted_)
        .Key("failed").Uint(failed_)
        .Key("error_rate").Double(error_rate)
        .Key("metrics").BeginObject();
    for (const Metric& m : metrics) {
      w.Key(m.name).BeginObject()
          .Key("value").Double(m.value)
          .Key("unit").String(m.unit)
          .EndObject();
    }
    w.EndObject().Key("problems").BeginArray();
    for (const std::string& p : problems_) w.String(p);
    w.EndArray().EndObject();
    // Splice the fingerprint and free-form records into the object.
    std::string body = w.str();
    body.pop_back();  // closing brace
    body += ",\"fingerprint\":" + FingerprintJson(args_);
    body += ",\"record\":{";
    for (size_t i = 0; i < records_.size(); ++i) {
      daf::obs::JsonWriter key(0);
      key.String(records_[i].first);
      body += (i ? "," : "") + key.str() + ":" + records_[i].second;
    }
    body += "}}";
    std::ofstream out(args_.report_path);
    out << body << "\n";
  }

  daf::obs::JsonWriter line(0);
  line.BeginObject()
      .Key("correct").Bool(correct)
      .Key("attempted").Uint(attempted_)
      .Key("failed").Uint(failed_)
      .Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    line.Key(m.name).BeginObject()
        .Key("value").Double(m.value)
        .Key("unit").String(m.unit)
        .EndObject();
  }
  line.EndObject().EndObject();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- Layer metrics ----------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"graph.load_ms", "ms"},
      {"snapshot.load_ms", "ms"},
      {"dag.build_ms", "ms"},
      {"cs.build_ms", "ms"},
      {"cs.candidates", "count"},
      {"cs.edges", "count"},
      {"cs.filter_ratio", "ratio"},
      {"weights.ms", "ms"},
      {"search.ms", "ms"},
      {"search.calls", "count"},
      {"search.calls_per_s", "1/s"},
      {"search.embeddings_per_call", "ratio"},
      {"search.failing_set_skips", "count"},
      {"search.conflict_prunes", "count"},
      {"search.intersect_merge", "count"},
      {"search.intersect_gallop", "count"},
      {"search.intersect_simd", "count"},
      {"search.intersect_bitmap", "count"},
      {"steal.steals", "count"},
      {"steal.donations", "count"},
      {"steal.idle_ms", "ms"},
      {"steal.call_imbalance", "ratio"},
      {"canon.ms", "ms"},
      {"cache.acquire_hit_ms", "ms"},
      {"cache.acquire_miss_ms", "ms"},
      {"cache.hit_rate", "ratio"},
      {"cache.evictions", "count"},
      {"cache.coalesced", "count"},
      {"cache.resident_mb", "MiB"},
      {"admission.wait_p50_ms", "ms"},
      {"admission.wait_p99_ms", "ms"},
      {"job.run_hit_p50_ms", "ms"},
      {"job.run_miss_p50_ms", "ms"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.queue_depth_start", "count"},
      {"loadgen.queue_depth_end", "count"},
      {"update.p50_ms", "ms"},
      {"update.p99_ms", "ms"},
      {"update.normalize_ms", "ms"},
      {"update.apply_ms", "ms"},
      {"update.materialize_ms", "ms"},
      {"dyncs.apply_ms", "ms"},
      {"dyncs.dirty_pairs", "count"},
      {"dyncs.rebuilds", "count"},
      {"delta.enum_ms", "ms"},
      {"delta.calls", "count"},
      {"delta.embeddings", "count"},
      {"wal.append_ms", "ms"},
      {"wal.bytes_per_batch", "bytes"},
      {"checkpoint.count", "count"},
      {"checkpoint.ms", "ms"},
      {"wal.replay_ms", "ms"},
      {"wal.replay_records_per_s", "1/s"},
      {"trace.overhead_ms", "ms"},
      {"trace.accounted_ratio", "ratio"},
      {"trace.setup_accounted_ratio", "ratio"},
  };
  return kNames;
}

void CheckAccounting(double accounted, double setup_accounted,
                     Report* report) {
  if (std::abs(accounted - 1) > kAccountingTolerance) {
    report->Invalid("staged layers account for " + std::to_string(accounted) +
                    " of the untraced time");
  }
  if (std::abs(setup_accounted - 1) > kSetupAccountingTolerance) {
    report->Invalid("staged set-up layers account for " +
                    std::to_string(setup_accounted) +
                    " of the untraced set-up time");
  }
}

double SelfMs(const std::map<std::string, SpanTotals>& totals,
              std::initializer_list<std::string> names) {
  double ms = 0;
  for (const std::string& name : names) {
    auto it = totals.find(name);
    if (it != totals.end()) ms += it->second.self_ms;
  }
  return ms;
}

double MeanSelfMs(const std::map<std::string, SpanTotals>& totals,
                  const std::string& name) {
  auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0;
  return it->second.self_ms / static_cast<double>(it->second.count);
}

void RecordLayerShares(const Tracer& tracer, Report* report) {
  const std::map<std::string, SpanTotals> totals = tracer.Totals();
  daf::obs::JsonWriter w(0);
  w.BeginObject();
  for (const auto& [name, t] : totals) {
    const double root_ms = totals.at(t.root).total_ms;
    w.Key(name).BeginObject()
        .Key("under").String(t.root)
        .Key("calls").Uint(t.count)
        .Key("self_ms").Double(t.self_ms)
        .Key("share").Double(root_ms > 0 ? t.self_ms / root_ms : 0)
        .EndObject();
  }
  w.EndObject();
  report->Record("layer_self_time", w.str());
}

}  // namespace perfbench
