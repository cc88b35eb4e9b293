#include "baselines/netalign.h"

#include <gtest/gtest.h>

#include "align/metrics.h"
#include "graph/generators.h"
#include "graph/noise.h"

namespace galign {
namespace {

AlignmentPair CleanPair(uint64_t seed, int64_t n = 70) {
  Rng rng(seed);
  auto g = BarabasiAlbert(n, 3, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(n, 10, 0.25, &rng);
  g = g.WithAttributes(f).MoveValueOrDie();
  NoisyCopyOptions opts;
  return MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
}

Supervision Seeds(const AlignmentPair& pair, double frac, uint64_t seed) {
  Rng rng(seed);
  return SampleSeeds(pair.ground_truth, frac, &rng);
}

TEST(NetAlignTest, StrongOnCleanCopyWithSeeds) {
  AlignmentPair pair = CleanPair(1);
  NetAlignAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, Seeds(pair, 0.1, 2));
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  AlignmentMetrics m = ComputeMetrics(s.ValueOrDie(), pair.ground_truth);
  // Squares reward edge overlap, which is perfect on a clean copy: the BP
  // should recover a large share of anchors.
  EXPECT_GT(m.success_at_10, 0.4);
  EXPECT_GT(m.auc, 0.7);
}

TEST(NetAlignTest, RejectsOutOfRangeSeeds) {
  AlignmentPair pair = CleanPair(2, 20);
  Supervision bad;
  bad.seeds = {{0, 100000000}};
  NetAlignAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, bad);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetAlignTest, UnsupervisedViaAttributePrior) {
  AlignmentPair pair = CleanPair(3);
  NetAlignAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, {});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.ValueOrDie().AllFinite());
  AlignmentMetrics m = ComputeMetrics(s.ValueOrDie(), pair.ground_truth);
  EXPECT_GT(m.auc, 0.55);
}

TEST(NetAlignTest, SquareRewardHelps) {
  // With beta = 0 the method degenerates to the prior alone; the overlap
  // reward must improve matters on a structurally clean pair.
  AlignmentPair pair = CleanPair(4);
  Supervision sup = Seeds(pair, 0.1, 5);
  NetAlignConfig no_squares;
  no_squares.beta = 0.0;
  NetAlignConfig with_squares;
  with_squares.beta = 2.0;
  NetAlignAligner a(no_squares), b(with_squares);
  auto s0 = a.Align(pair.source, pair.target, sup).MoveValueOrDie();
  auto s1 = b.Align(pair.source, pair.target, sup).MoveValueOrDie();
  double map0 = ComputeMetrics(s0, pair.ground_truth).map;
  double map1 = ComputeMetrics(s1, pair.ground_truth).map;
  EXPECT_GT(map1, map0 - 0.02);
}

TEST(NetAlignTest, CandidateFloorIsBelowAllCandidates) {
  AlignmentPair pair = CleanPair(6, 30);
  NetAlignConfig cfg;
  cfg.candidates_per_node = 3;
  NetAlignAligner aligner(cfg);
  auto s = aligner.Align(pair.source, pair.target, {}).MoveValueOrDie();
  // Each row's candidates (top-k prior + square expansion, capped at 2k)
  // sit above the shared floor value.
  for (int64_t i = 0; i < s.rows(); ++i) {
    double floor_val = s(i, 0);
    for (int64_t j = 0; j < s.cols(); ++j) {
      floor_val = std::min(floor_val, s(i, j));
    }
    int64_t above = 0;
    for (int64_t j = 0; j < s.cols(); ++j) {
      if (s(i, j) > floor_val) ++above;
    }
    EXPECT_LE(above, 2 * 3 + 1);  // row cap (2k) + possible seed
    EXPECT_GE(above, 1);
  }
}

TEST(NetAlignTest, DeterministicAndShapeCorrect) {
  AlignmentPair pair = CleanPair(7, 40);
  Supervision sup = Seeds(pair, 0.1, 8);
  NetAlignAligner a, b;
  auto s1 = a.Align(pair.source, pair.target, sup).MoveValueOrDie();
  auto s2 = b.Align(pair.source, pair.target, sup).MoveValueOrDie();
  EXPECT_EQ(s1.rows(), pair.source.num_nodes());
  EXPECT_EQ(s1.cols(), pair.target.num_nodes());
  EXPECT_LT(Matrix::MaxAbsDiff(s1, s2), 1e-12);
}

TEST(NetAlignTest, RejectsInvalidConfig) {
  AlignmentPair pair = CleanPair(9, 20);
  NetAlignConfig cfg;
  cfg.candidates_per_node = 0;
  NetAlignAligner aligner(cfg);
  EXPECT_FALSE(aligner.Align(pair.source, pair.target, {}).ok());
}

TEST(NetAlignTest, HandlesEdgelessGraphs) {
  Rng rng(10);
  auto s = AttributedGraph::Create(8, {}, BinaryAttributes(8, 4, 0.4, &rng))
               .MoveValueOrDie();
  NetAlignAligner aligner;
  auto result = aligner.Align(s, s, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().AllFinite());
}

}  // namespace
}  // namespace galign
