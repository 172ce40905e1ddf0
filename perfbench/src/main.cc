// perfbench: one workload of the repository benchmark per process.
//
//   perfbench --workload yeast-search --seed 1 --seconds 10 --trace 0
//             --work_dir DIR [--report FILE] [--trace_file FILE]
//
// Prints one human-readable line per metric and, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// of a traced replay with --trace 1. Exits nonzero when any correctness
// check fails. perfbench/run.py builds this binary and wraps it.
#include <cstdio>
#include <string>

#include "common.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  daf::FlagSet flags;
  std::string& workload = flags.String(
      "workload", "", "yeast-search | hprd-zipf | rmat-rw");
  int64_t& seed = flags.Int64("seed", 1, "input seed");
  double& seconds = flags.Double("seconds", 10, "measured seconds");
  int64_t& trace = flags.Int64("trace", 0, "1 = traced per-layer run");
  std::string& work_dir =
      flags.String("work_dir", "", "existing scratch directory for inputs");
  std::string& report = flags.String("report", "", "full JSON report path");
  std::string& trace_file =
      flags.String("trace_file", "", "span dump path (traced runs)");
  std::string& commit = flags.String("commit", "unknown", "source revision");
  if (!flags.Parse(argc, argv) || work_dir.empty() || seconds <= 0) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    flags.PrintUsage(argv[0]);
    return 2;
  }
  if (!perfbench::IsReleaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to record results from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  perfbench::Args args;
  args.workload = workload;
  args.seed = static_cast<uint64_t>(seed);
  args.seconds = seconds;
  args.trace = trace != 0;
  args.work_dir = work_dir;
  args.report_path = report;
  args.trace_path = trace_file;
  args.commit = commit;
  if (workload == "yeast-search") return perfbench::RunYeast(args);
  if (workload == "hprd-zipf") return perfbench::RunHprdZipf(args);
  if (workload == "rmat-rw") return perfbench::RunRmatRw(args);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               workload.c_str());
  return 2;
}
