#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baselines/bruteforce.h"
#include "baselines/cfl_match.h"
#include "baselines/gaddi.h"
#include "baselines/graphql.h"
#include "baselines/quicksi.h"
#include "baselines/spath.h"
#include "baselines/turboiso.h"
#include "baselines/vf2.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;

// The grand cross-check: on a grid of (density, label count, query size)
// instances, every engine in the library — DAF in all four paper variants,
// parallel DAF, DAF-Boost, and all seven baselines — must enumerate exactly
// the same embedding set.
class CrossAlgorithmTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CrossAlgorithmTest, AllEnginesAgree) {
  const auto [density_index, num_labels, query_size] = GetParam();
  const double densities[] = {1.5, 3.0, 5.0};
  Rng rng(7000 + density_index * 100 + num_labels * 10 + query_size);
  const uint32_t n = 40 + static_cast<uint32_t>(rng.UniformInt(40));
  const auto m = static_cast<uint64_t>(n * densities[density_index]);
  Graph data = daf::testing::RandomDataGraph(
      n, m, static_cast<uint32_t>(num_labels), rng);
  auto extracted = ExtractRandomWalkQuery(
      data, static_cast<uint32_t>(query_size), -1.0, rng);
  if (!extracted) GTEST_SKIP() << "extraction failed (tiny component)";
  const Graph& query = extracted->query;

  EmbeddingSet expected;
  baselines::MatcherOptions brute_opts;
  brute_opts.callback = Collector(&expected);
  baselines::BruteForceMatch(query, data, brute_opts);

  // DAF variants.
  for (MatchOrder order :
       {MatchOrder::kPathSize, MatchOrder::kCandidateSize}) {
    for (bool failing : {false, true}) {
      EmbeddingSet found;
      MatchOptions opts;
      opts.order = order;
      opts.use_failing_sets = failing;
      opts.callback = Collector(&found);
      MatchResult r = DafMatch(query, data, opts);
      ASSERT_TRUE(r.ok);
      EXPECT_EQ(found, expected) << "DAF order=" << static_cast<int>(order)
                                 << " failing=" << failing;
    }
  }
  // Parallel DAF.
  {
    EmbeddingSet found;
    MatchOptions opts;
    opts.callback = Collector(&found);
    MatchResult r = ParallelDafMatch(query, data, opts, 3);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(found, expected) << "ParallelDAF";
  }
  // DAF-Boost.
  {
    VertexEquivalence eq = VertexEquivalence::Compute(data);
    EmbeddingSet found;
    MatchOptions opts;
    opts.equivalence = &eq;
    opts.callback = Collector(&found);
    MatchResult r = DafMatch(query, data, opts);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(found, expected) << "DAF-Boost";
  }
  // Baselines.
  struct Named {
    const char* name;
    baselines::MatcherResult (*fn)(const Graph&, const Graph&,
                                   const baselines::MatcherOptions&);
  };
  const Named algorithms[] = {
      {"VF2", &baselines::Vf2Match},
      {"QuickSI", &baselines::QuickSiMatch},
      {"GraphQL", &baselines::GraphQlMatch},
      {"SPath", &baselines::SPathMatch},
      {"GADDI", &baselines::GaddiMatch},
      {"TurboIso", &baselines::TurboIsoMatch},
      {"CFL", &baselines::CflMatch},
  };
  for (const Named& algorithm : algorithms) {
    EmbeddingSet found;
    baselines::MatcherOptions opts;
    opts.callback = Collector(&found);
    baselines::MatcherResult r = algorithm.fn(query, data, opts);
    ASSERT_TRUE(r.ok) << algorithm.name;
    EXPECT_EQ(found, expected) << algorithm.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrossAlgorithmTest,
    ::testing::Combine(::testing::Range(0, 3),        // density
                       ::testing::Values(2, 4, 8),    // labels
                       ::testing::Values(4, 6, 9)),   // query size
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_l" +
             std::to_string(std::get<1>(info.param)) + "_q" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace daf
