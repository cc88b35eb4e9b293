#include "core/refinement.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/trainer.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "la/ops.h"

namespace galign {
namespace {

TEST(AggregateAlignmentTest, MatchesManualSum) {
  Rng rng(1);
  std::vector<Matrix> hs{Matrix::Gaussian(4, 3, &rng),
                         Matrix::Gaussian(4, 3, &rng)};
  std::vector<Matrix> ht{Matrix::Gaussian(5, 3, &rng),
                         Matrix::Gaussian(5, 3, &rng)};
  std::vector<double> theta{0.3, 0.7};
  Matrix s = AggregateAlignment(hs, ht, theta);
  Matrix expected = MatMulTransposedB(hs[0], ht[0]);
  expected.Scale(0.3);
  expected.Axpy(0.7, MatMulTransposedB(hs[1], ht[1]));
  EXPECT_LT(Matrix::MaxAbsDiff(s, expected), 1e-12);
}

TEST(AggregateAlignmentTest, ZeroWeightSkipsLayer) {
  Rng rng(2);
  std::vector<Matrix> hs{Matrix::Gaussian(3, 2, &rng),
                         Matrix::Gaussian(3, 2, &rng)};
  std::vector<Matrix> ht{Matrix::Gaussian(3, 2, &rng),
                         Matrix::Gaussian(3, 2, &rng)};
  Matrix only_last = AggregateAlignment(hs, ht, {0.0, 1.0});
  EXPECT_LT(Matrix::MaxAbsDiff(only_last, MatMulTransposedB(hs[1], ht[1])),
            1e-12);
}

TEST(ScanStabilityTest, AggregateScoreMatchesDense) {
  auto expect_dense_bits = [](const std::vector<Matrix>& hs,
                              const std::vector<Matrix>& ht,
                              const std::vector<double>& theta) {
    Matrix s = AggregateAlignment(hs, ht, theta);
    double expected = 0.0;
    for (int64_t v = 0; v < s.rows(); ++v) expected += MaxRow(s, v);
    StabilityScan scan = ScanStability(hs, ht, theta, 0.5);
    EXPECT_EQ(std::bit_cast<uint64_t>(scan.aggregate_score),
              std::bit_cast<uint64_t>(expected));
  };
  Rng rng(3);
  std::vector<Matrix> hs{Matrix::Gaussian(30, 4, &rng),
                         Matrix::Gaussian(30, 4, &rng)};
  std::vector<Matrix> ht{Matrix::Gaussian(20, 4, &rng),
                         Matrix::Gaussian(20, 4, &rng)};
  expect_dense_bits(hs, ht, {0.5, 0.5});
  // 1100 source rows span three scan blocks; the zero-weight layer still
  // feeds the Eq. 13 statistics but not g(S).
  std::vector<Matrix> hs3, ht3;
  for (int l = 0; l < 3; ++l) {
    hs3.push_back(Matrix::Gaussian(1100, 4, &rng));
    ht3.push_back(Matrix::Gaussian(20, 4, &rng));
  }
  expect_dense_bits(hs3, ht3, {0.0, 0.5, 0.5});
}

TEST(ScanStabilityTest, IdenticalEmbeddingsAreAllStable) {
  // Source == target, normalized rows: self-cosine is 1 > lambda at every
  // layer, argmax consistent => all nodes stable.
  Rng rng(4);
  Matrix h = Matrix::Gaussian(15, 6, &rng);
  h.NormalizeRows();
  std::vector<Matrix> hs{h, h};
  std::vector<Matrix> ht{h, h};
  StabilityScan scan = ScanStability(hs, ht, {0.5, 0.5}, 0.94);
  EXPECT_EQ(scan.stable_source.size(), 15u);
  EXPECT_EQ(scan.stable_target.size(), 15u);
}

TEST(ScanStabilityTest, InconsistentArgmaxIsUnstable) {
  // Three layers (H0 + two GCN layers). GCN layer 1 points node 0 at
  // target 0, GCN layer 2 points it at target 1: unstable per Eq. 13.
  Matrix h0s{{1.0, 0.0}};
  Matrix h1s{{1.0, 0.0}};
  Matrix h2s{{0.0, 1.0}};
  Matrix ht_id{{1.0, 0.0}, {0.0, 1.0}};
  StabilityScan scan = ScanStability({h0s, h1s, h2s}, {ht_id, ht_id, ht_id},
                                     {0.34, 0.33, 0.33}, 0.9);
  EXPECT_TRUE(scan.stable_source.empty());
}

TEST(ScanStabilityTest, AttributeLayerArgmaxTiesDoNotBlockStability) {
  // H^(0) is tie-degenerate (identical attribute rows); the GCN layers
  // agree confidently. The node must still count as stable (layer 0 is
  // excluded from the argmax-consistency requirement).
  Matrix h0s{{1.0, 0.0}};
  Matrix h0t{{1.0, 0.0}, {1.0, 0.0}};  // both targets tie at layer 0
  Matrix h1s{{0.0, 1.0}};
  Matrix h1t{{1.0, 0.0}, {0.0, 1.0}};
  StabilityScan scan =
      ScanStability({h0s, h1s, h1s}, {h0t, h1t, h1t}, {0.34, 0.33, 0.33}, 0.9);
  ASSERT_EQ(scan.stable_source.size(), 1u);
  EXPECT_EQ(scan.stable_source[0], 0);
}

TEST(ScanStabilityTest, LowScoresAreUnstable) {
  Matrix hs{{0.5, 0.5}};
  Matrix ht{{0.5, 0.5}};
  // Cosine-ish score 0.5 < lambda 0.94.
  StabilityScan scan = ScanStability({hs}, {ht}, {1.0}, 0.94);
  EXPECT_TRUE(scan.stable_source.empty());
  EXPECT_TRUE(scan.stable_target.empty());
}

class RefinementEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    auto g = BarabasiAlbert(50, 3, &rng).MoveValueOrDie();
    Matrix f = BinaryAttributes(50, 8, 0.3, &rng);
    g = g.WithAttributes(f).MoveValueOrDie();
    NoisyCopyOptions opts;
    opts.structural_noise = 0.1;
    pair_ = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();

    cfg_.epochs = 20;
    cfg_.embedding_dim = 16;
    cfg_.refinement_iterations = 5;
    gcn_ = std::make_unique<MultiOrderGcn>(cfg_.num_layers,
                                           g.num_attributes(),
                                           cfg_.embedding_dim, &rng);
    Trainer trainer(cfg_);
    trainer.Train(gcn_.get(), pair_.source, pair_.target, &rng).CheckOK();
  }

  GAlignConfig cfg_;
  AlignmentPair pair_;
  std::unique_ptr<MultiOrderGcn> gcn_;
};

TEST_F(RefinementEndToEnd, ReturnsBestScoringIteration) {
  auto result = RefineAlignment(*gcn_, pair_.source, pair_.target, cfg_);
  ASSERT_TRUE(result.ok());
  const RefinementResult& r = result.ValueOrDie();
  EXPECT_EQ(r.score_history.size(),
            static_cast<size_t>(cfg_.refinement_iterations) + 1);
  // best_score is the max over the history (greedy keep-best, Alg. 2).
  double max_seen = -1e300;
  for (double g : r.score_history) max_seen = std::max(max_seen, g);
  EXPECT_NEAR(r.best_score, max_seen, 1e-9);
  EXPECT_EQ(r.alignment.rows(), pair_.source.num_nodes());
  EXPECT_EQ(r.alignment.cols(), pair_.target.num_nodes());
  EXPECT_TRUE(r.alignment.AllFinite());
}

TEST_F(RefinementEndToEnd, BestIterationConsistentWithHistory) {
  auto result = RefineAlignment(*gcn_, pair_.source, pair_.target, cfg_);
  ASSERT_TRUE(result.ok());
  const RefinementResult& r = result.ValueOrDie();
  EXPECT_NEAR(r.score_history[r.best_iteration], r.best_score, 1e-9);
}

TEST_F(RefinementEndToEnd, RejectsMismatchedLayerWeights) {
  GAlignConfig bad = cfg_;
  bad.num_layers = 5;  // theta of size 6 vs 2-layer GCN
  auto result = RefineAlignment(*gcn_, pair_.source, pair_.target, bad);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace galign
