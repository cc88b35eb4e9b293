// Recall property test for the ANN retrieval layer (DESIGN.md §11): on
// generated workloads with meaningful neighborhood structure, the measured
// recall of ANN top-k against the exact chunked top-k must meet the
// policy's recall target across seeds. The exact path is the oracle — the
// same role it plays in ComputeMetricsTopK evaluation.
//
// Everything here is seeded, so a passing configuration passes forever;
// there is no statistical flake margin hiding in the assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/naive.h"
#include "common/rng.h"
#include "graph/ann/ann.h"
#include "graph/ann/ann_index.h"
#include "graph/generators.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"

namespace galign {
namespace {

// Unit rows clustered around `clusters` random centers with per-row noise —
// the planted-neighborhood workload where retrieval quality is measurable
// (uniform random points have no neighbors worth recalling). The query and
// base sides of a workload share `center_seed` (so queries actually have
// near neighbors in the base) and differ in `noise_seed`.
Matrix ClusteredRows(int64_t n, int64_t d, int64_t clusters, double noise,
                     uint64_t center_seed, uint64_t noise_seed) {
  Rng crng(center_seed);
  Matrix centers = Matrix::Gaussian(clusters, d, &crng);
  centers.NormalizeRows();
  Rng nrng(noise_seed);
  Matrix out = Matrix::Gaussian(n, d, &nrng);
  for (int64_t r = 0; r < n; ++r) {
    const double* c = centers.row_data(r % clusters);
    double* o = out.row_data(r);
    for (int64_t j = 0; j < d; ++j) o[j] = c[j] + noise * o[j];
  }
  out.NormalizeRows();
  return out;
}

// |ann top-k ∩ exact top-k| / |exact top-k|, over the rows both computed.
double MeasuredRecall(const TopKAlignment& exact, const TopKAlignment& ann) {
  int64_t denom = 0, hits = 0;
  const int64_t rows = std::min(exact.rows_computed, ann.rows_computed);
  for (int64_t v = 0; v < rows; ++v) {
    for (int64_t j = 0; j < exact.k; ++j) {
      const int64_t want = exact.index[v * exact.k + j];
      if (want < 0) continue;
      ++denom;
      for (int64_t i = 0; i < ann.k; ++i) {
        if (ann.index[v * ann.k + i] == want) {
          ++hits;
          break;
        }
      }
    }
  }
  return denom == 0 ? 1.0 : static_cast<double>(hits) / denom;
}

TEST(AnnRecallTest, MeetsTargetOnClusteredWorkloads) {
  const int64_t k = 8;
  struct Case {
    int64_t n1, n2, d, clusters;
    double noise;
    uint64_t seed;
  };
  const Case cases[] = {
      {900, 1200, 24, 30, 0.05, 101},
      {700, 1000, 16, 25, 0.08, 202},
  };
  for (const Case& c : cases) {
    std::vector<Matrix> ht = {ClusteredRows(c.n2, c.d, c.clusters, c.noise,
                                            c.seed, c.seed + 11)};
    std::vector<Matrix> hs = {ClusteredRows(c.n1, c.d, c.clusters, c.noise,
                                            c.seed, c.seed + 12)};
    auto exact = ChunkedEmbeddingTopK(hs, ht, {1.0}, k, RunContext());
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    AnnPolicy policy;
    policy.mode = AnnMode::kOn;
    policy.recall_target = 0.98;
    auto ann = AnnEmbeddingTopK(hs, ht, {1.0}, k, policy, RunContext());
    ASSERT_TRUE(ann.ok()) << ann.status().ToString();
    const double recall = MeasuredRecall(exact.ValueOrDie(),
                                         ann.ValueOrDie());
    EXPECT_GE(recall, policy.recall_target) << "seed=" << c.seed;
  }
}

TEST(AnnRecallTest, MultiOrderThetaWeightingPreservesRecall) {
  // The concat reduction under non-uniform theta: recall must hold for the
  // weighted multi-order score, not just single-layer cosine.
  const int64_t k = 6;
  std::vector<Matrix> ht = {ClusteredRows(800, 12, 20, 0.06, 301, 331),
                            ClusteredRows(800, 12, 20, 0.06, 302, 332)};
  std::vector<Matrix> hs = {ClusteredRows(600, 12, 20, 0.06, 301, 333),
                            ClusteredRows(600, 12, 20, 0.06, 302, 334)};
  const std::vector<double> theta = {0.65, 0.35};
  auto exact = ChunkedEmbeddingTopK(hs, ht, theta, k, RunContext());
  ASSERT_TRUE(exact.ok());
  AnnPolicy policy;
  policy.mode = AnnMode::kOn;
  policy.recall_target = 0.98;
  auto ann = AnnEmbeddingTopK(hs, ht, theta, k, policy, RunContext());
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  EXPECT_GE(MeasuredRecall(exact.ValueOrDie(), ann.ValueOrDie()),
            policy.recall_target);
}

TEST(AnnRecallTest, SmokeOnFuzzerStyleGraphPair) {
  // The scripts/check.sh smoke gate: a fixed-seed generator graph pair run
  // end to end through an ANN-routed aligner, held to the same oracle. The
  // target graph reuses the source's attribute seed so corresponding nodes
  // have correlated profiles — the structure ANN must recover.
  Rng gs(41), gt(42);
  auto src = PowerLawGraph(500, 1500, 2.5, &gs,
                           ClusteredRows(500, 16, 20, 0.06, 400, 401));
  auto tgt = PowerLawGraph(500, 1500, 2.5, &gt,
                           ClusteredRows(500, 16, 20, 0.06, 400, 402));
  ASSERT_TRUE(src.ok() && tgt.ok());
  AttributeOnlyAligner exact_aligner;
  AnnPolicy off;
  off.mode = AnnMode::kOff;
  exact_aligner.set_ann_policy(off);
  auto exact = exact_aligner.AlignTopK(src.ValueOrDie(), tgt.ValueOrDie(),
                                       Supervision{}, RunContext(), 5);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  AttributeOnlyAligner ann_aligner;
  AnnPolicy policy;
  policy.mode = AnnMode::kOn;
  policy.recall_target = 0.98;
  ann_aligner.set_ann_policy(policy);
  auto ann = ann_aligner.AlignTopK(src.ValueOrDie(), tgt.ValueOrDie(),
                                   Supervision{}, RunContext(), 5);
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  EXPECT_GE(MeasuredRecall(exact.ValueOrDie(), ann.ValueOrDie()), 0.98);
}

TEST(AnnRecallTest, DegreeRankRouteIsExact) {
  // DegreeRank's retrieval route answers from the degree-sorted group
  // structure: recall is 1.0 by construction, bitwise-equal to the scan.
  Rng gs(51), gt(52);
  auto src = PowerLawGraph(400, 1200, 2.5, &gs);
  auto tgt = PowerLawGraph(450, 1400, 2.5, &gt);
  ASSERT_TRUE(src.ok() && tgt.ok());
  DegreeRankAligner exact_aligner;
  AnnPolicy off;
  off.mode = AnnMode::kOff;
  exact_aligner.set_ann_policy(off);
  auto exact = exact_aligner.AlignTopK(src.ValueOrDie(), tgt.ValueOrDie(),
                                       Supervision{}, RunContext(), 7);
  ASSERT_TRUE(exact.ok());
  DegreeRankAligner routed;
  AnnPolicy on;
  on.mode = AnnMode::kOn;
  routed.set_ann_policy(on);
  auto fast = routed.AlignTopK(src.ValueOrDie(), tgt.ValueOrDie(),
                               Supervision{}, RunContext(), 7);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(exact.ValueOrDie().index, fast.ValueOrDie().index);
  EXPECT_EQ(exact.ValueOrDie().score, fast.ValueOrDie().score);
}

}  // namespace
}  // namespace galign
