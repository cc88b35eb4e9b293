#include <gtest/gtest.h>

#include "align/metrics.h"
#include "baselines/naive.h"
#include "baselines/unialign.h"
#include "graph/generators.h"
#include "graph/noise.h"

namespace galign {
namespace {

AlignmentPair CleanPair(uint64_t seed, int64_t n = 60) {
  Rng rng(seed);
  auto g = BarabasiAlbert(n, 3, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(n, 10, 0.25, &rng);
  g = g.WithAttributes(f).MoveValueOrDie();
  NoisyCopyOptions opts;
  return MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
}

TEST(UniAlignTest, DecentOnCleanCopy) {
  AlignmentPair pair = CleanPair(1);
  UniAlignAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, {});
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  AlignmentMetrics m = ComputeMetrics(s.ValueOrDie(), pair.ground_truth);
  EXPECT_GT(m.auc, 0.7);
  EXPECT_TRUE(s.ValueOrDie().AllFinite());
}

TEST(UniAlignTest, WorksWithoutAttributes) {
  AlignmentPair pair = CleanPair(2);
  UniAlignConfig cfg;
  cfg.use_attributes = false;
  UniAlignAligner aligner(cfg);
  auto s = aligner.Align(pair.source, pair.target, {});
  ASSERT_TRUE(s.ok());
  AlignmentMetrics m = ComputeMetrics(s.ValueOrDie(), pair.ground_truth);
  EXPECT_GT(m.auc, 0.55);  // pure structure still beats random
}

TEST(UniAlignTest, RejectsEmptyNetworks) {
  auto empty = AttributedGraph::Create(0, {}, Matrix()).MoveValueOrDie();
  AlignmentPair pair = CleanPair(3, 20);
  UniAlignAligner aligner;
  EXPECT_FALSE(aligner.Align(empty, pair.target, {}).ok());
}

TEST(DegreeRankTest, ScoresDegreeTwinsHighest) {
  AlignmentPair pair = CleanPair(4);
  DegreeRankAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, {}).MoveValueOrDie();
  // A clean permuted copy preserves degrees, so every true anchor pair gets
  // the maximal score 1.0.
  for (int64_t v = 0; v < pair.source.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(s(v, pair.ground_truth[v]), 1.0);
  }
}

TEST(DegreeRankTest, BetterThanRandomWorseThanInformed) {
  AlignmentPair pair = CleanPair(5, 100);
  DegreeRankAligner degree;
  RandomAligner random;
  auto sd = degree.Align(pair.source, pair.target, {}).MoveValueOrDie();
  auto sr = random.Align(pair.source, pair.target, {}).MoveValueOrDie();
  double auc_d = ComputeMetrics(sd, pair.ground_truth).auc;
  double auc_r = ComputeMetrics(sr, pair.ground_truth).auc;
  EXPECT_GT(auc_d, auc_r + 0.1);
  // But degree alone cannot disambiguate same-degree nodes.
  EXPECT_LT(ComputeMetrics(sd, pair.ground_truth).success_at_1, 0.9);
}

TEST(AttributeOnlyTest, PerfectScoresForMatchingProfiles) {
  AlignmentPair pair = CleanPair(6);
  AttributeOnlyAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, {}).MoveValueOrDie();
  for (int64_t v = 0; v < pair.source.num_nodes(); ++v) {
    EXPECT_NEAR(s(v, pair.ground_truth[v]), 1.0, 1e-12);
  }
}

TEST(AttributeOnlyTest, DenseAndTopKReadOutsAgreeExactly) {
  // Below the ANN threshold both read-outs run the same GEMM filler over
  // the row-normalized attributes, so they agree in every bit.
  AlignmentPair pair = CleanPair(10, 90);
  AttributeOnlyAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, {});
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto got = aligner.AlignTopK(pair.source, pair.target, {}, RunContext(), 7);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  TopKAlignment expect = TopKFromDense(s.ValueOrDie(), 7);
  EXPECT_EQ(got.ValueOrDie().index, expect.index);
  EXPECT_EQ(got.ValueOrDie().score, expect.score);
}

TEST(AttributeOnlyTest, RejectsMismatchedDims) {
  AlignmentPair pair = CleanPair(7, 20);
  auto other =
      pair.source.WithAttributes(Matrix(20, 3, 1.0)).MoveValueOrDie();
  AttributeOnlyAligner aligner;
  EXPECT_FALSE(aligner.Align(other, pair.target, {}).ok());
}

TEST(RandomAlignerTest, NearChanceMetrics) {
  AlignmentPair pair = CleanPair(8, 200);
  RandomAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, {}).MoveValueOrDie();
  AlignmentMetrics m = ComputeMetrics(s, pair.ground_truth);
  EXPECT_NEAR(m.auc, 0.5, 0.07);
  EXPECT_LT(m.success_at_1, 0.05);
}

TEST(RandomAlignerTest, DeterministicUnderSeed) {
  AlignmentPair pair = CleanPair(9, 30);
  RandomAligner a(7), b(7), c(8);
  auto sa = a.Align(pair.source, pair.target, {}).MoveValueOrDie();
  auto sb = b.Align(pair.source, pair.target, {}).MoveValueOrDie();
  auto sc = c.Align(pair.source, pair.target, {}).MoveValueOrDie();
  EXPECT_LT(Matrix::MaxAbsDiff(sa, sb), 1e-15);
  EXPECT_GT(Matrix::MaxAbsDiff(sa, sc), 0.0);
}

TEST(NaiveBaselinesTest, NamesAreStable) {
  EXPECT_EQ(DegreeRankAligner().name(), "DegreeRank");
  EXPECT_EQ(AttributeOnlyAligner().name(), "AttributeOnly");
  EXPECT_EQ(RandomAligner().name(), "Random");
  EXPECT_EQ(UniAlignAligner().name(), "UniAlign");
}

}  // namespace
}  // namespace galign
