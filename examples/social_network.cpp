// Social-network pattern search — the social-network-analysis scenario of
// the paper's introduction [12, 37]: find structured groups of users in a
// heavy-tailed follower graph using the multi-threaded engine.
//
//   $ ./examples/social_network [--threads 4] [--k 1000]
//
// The data graph is the RMAT Twitter stand-in. The pattern is a "community
// seed": two influencers of the same interest with three common followers
// from a second interest group. Demonstrates ParallelDafMatch, the shared
// k-limit, and per-thread work counters.
#include <cstdio>

#include "daf/parallel.h"
#include "util/flags.h"
#include "workload/datasets.h"

int main(int argc, char** argv) {
  daf::FlagSet flags;
  int64_t& threads = flags.Int64("threads", 4, "worker threads");
  int64_t& k = flags.Int64("k", 1000, "pattern instances to find");
  double& scale = flags.Double("scale", 0.005, "network scale");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }

  daf::Graph network = daf::workload::MakeDataset(
      daf::workload::DatasetId::kTwitterSim, scale, 7);
  std::printf("social graph: %u users, %llu links, %u interest groups\n",
              network.NumVertices(),
              static_cast<unsigned long long>(network.NumEdges()),
              network.NumLabels());

  // Pattern labels: the two most frequent interest groups.
  daf::Label a = 0;
  daf::Label b = 1;
  uint32_t fa = 0;
  uint32_t fb = 0;
  for (daf::Label l = 0; l < network.NumLabels(); ++l) {
    uint32_t f = network.LabelFrequency(l);
    if (f > fa) {
      fb = fa;
      b = a;
      fa = f;
      a = l;
    } else if (f > fb) {
      fb = f;
      b = l;
    }
  }
  // u0, u1: connected influencers (group A); u2..u4: followers of both
  // (group B).
  daf::Graph pattern = daf::Graph::FromEdges(
      {network.original_label(a), network.original_label(a),
       network.original_label(b), network.original_label(b),
       network.original_label(b)},
      {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {0, 4}, {1, 4}});

  daf::MatchOptions options;
  options.limit = static_cast<uint64_t>(k);
  options.time_limit_ms = 30000;
  daf::MatchResult result = daf::ParallelDafMatch(
      pattern, network, options, static_cast<uint32_t>(threads));
  if (!result.ok) {
    std::fprintf(stderr, "match failed: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("found %llu community seeds in %.1f ms "
              "(preprocess %.1f ms, %u threads)\n",
              static_cast<unsigned long long>(result.embeddings),
              result.preprocess_ms + result.search_ms, result.preprocess_ms,
              result.threads_used);
  std::printf("per-thread search-tree nodes:");
  for (uint64_t calls : result.per_thread_calls) {
    std::printf(" %llu", static_cast<unsigned long long>(calls));
  }
  std::printf("\n");
  if (result.cs_certified_negative) {
    std::printf("(the candidate space proved the pattern absent without "
                "any search)\n");
  }
  return 0;
}
