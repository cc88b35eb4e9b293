#include <gtest/gtest.h>

#include "align/metrics.h"
#include "baselines/cenalp.h"
#include "baselines/final.h"
#include "baselines/isorank.h"
#include "baselines/pale.h"
#include "baselines/regal.h"
#include "baselines/skipgram.h"
#include "baselines/walks.h"
#include "baselines/xnetmf.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "la/ops.h"

namespace galign {
namespace {

AlignmentPair CleanPair(uint64_t seed, int64_t n = 60) {
  Rng rng(seed);
  auto g = BarabasiAlbert(n, 3, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(n, 10, 0.25, &rng);
  g = g.WithAttributes(f).MoveValueOrDie();
  NoisyCopyOptions opts;  // pure permutation
  return MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
}

Supervision TenPercentSeeds(const AlignmentPair& pair, uint64_t seed) {
  Rng rng(seed);
  return SampleSeeds(pair.ground_truth, 0.1, &rng);
}

// A seed whose target id lies past the target network: every seeded aligner
// must reject it with a typed status before indexing by it.
void ExpectOutOfRangeSeedRejected(Aligner* aligner, const AlignmentPair& pair) {
  Supervision bad;
  bad.seeds = {{0, 100000000}};
  auto s = aligner->Align(pair.source, pair.target, bad);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.status().message().find("seed anchor out of range"),
            std::string::npos)
      << s.status().message();
}

// ---------------------------------------------------------------- xNetMF

TEST(XNetMfTest, StructuralFeaturesShape) {
  AlignmentPair pair = CleanPair(1);
  XNetMfConfig cfg;
  Matrix f = StructuralFeatures(pair.source, cfg);
  EXPECT_EQ(f.rows(), pair.source.num_nodes());
  EXPECT_GT(f.cols(), 0);
  EXPECT_TRUE(f.AllFinite());
  // A node's 1-hop mass equals its degree.
  cfg.max_hops = 1;
  Matrix f1 = StructuralFeatures(pair.source, cfg);
  for (int64_t v = 0; v < pair.source.num_nodes(); ++v) {
    EXPECT_NEAR(f1.Row(v).Sum(), static_cast<double>(pair.source.Degree(v)),
                1e-9);
  }
}

TEST(XNetMfTest, IsomorphicNodesGetCloseFeatures) {
  AlignmentPair pair = CleanPair(2);
  XNetMfConfig cfg;
  Matrix fs = StructuralFeatures(pair.source, cfg);
  Matrix ft = StructuralFeatures(pair.target, cfg);
  for (int64_t v = 0; v < pair.source.num_nodes(); ++v) {
    int64_t t = pair.ground_truth[v];
    EXPECT_NEAR(RowSquaredDistance(fs, v, ft, t), 0.0, 1e-9);
  }
}

TEST(XNetMfTest, EmbeddingShapeAndNormalization) {
  AlignmentPair pair = CleanPair(3);
  XNetMfConfig cfg;
  cfg.num_landmarks = 20;
  auto y = XNetMfEmbed(pair.source, pair.target, cfg);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y.ValueOrDie().rows(),
            pair.source.num_nodes() + pair.target.num_nodes());
  EXPECT_TRUE(y.ValueOrDie().AllFinite());
}

// ---------------------------------------------------------------- Walks

TEST(WalksTest, UniformWalksShapeAndValidity) {
  AlignmentPair pair = CleanPair(4);
  WalkConfig cfg;
  cfg.walks_per_node = 2;
  cfg.walk_length = 10;
  Rng rng(5);
  auto walks = UniformWalks(pair.source, cfg, &rng);
  EXPECT_EQ(walks.size(), static_cast<size_t>(2 * pair.source.num_nodes()));
  for (const auto& w : walks) {
    ASSERT_FALSE(w.empty());
    EXPECT_LE(w.size(), 10u);
    for (size_t i = 1; i < w.size(); ++i) {
      EXPECT_TRUE(pair.source.HasEdge(w[i - 1], w[i]))
          << "walk step must follow an edge";
    }
  }
}

TEST(WalksTest, CrossWalksMergeAnchoredTokens) {
  AlignmentPair pair = CleanPair(6);
  std::vector<int64_t> anchors(pair.source.num_nodes(), -1);
  anchors[0] = pair.ground_truth[0];
  WalkConfig cfg;
  cfg.walks_per_node = 1;
  cfg.walk_length = 15;
  cfg.cross_probability = 1.0;
  Rng rng(7);
  auto walks = CrossNetworkWalks(pair.source, pair.target, anchors, cfg, &rng);
  const int64_t n1 = pair.source.num_nodes();
  // The anchored target node's token (n1 + t) must never appear: it is
  // rewritten to the shared source token.
  const int64_t forbidden = n1 + anchors[0];
  for (const auto& w : walks) {
    for (int64_t tok : w) {
      EXPECT_NE(tok, forbidden);
      EXPECT_GE(tok, 0);
      EXPECT_LT(tok, n1 + pair.target.num_nodes());
    }
  }
}

// ---------------------------------------------------------------- SkipGram

TEST(SkipGramTest, EmbedsCoOccurringTokensCloser) {
  // Corpus with two disjoint token communities.
  std::vector<std::vector<int64_t>> walks;
  Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    std::vector<int64_t> w;
    int64_t base = (i % 2) * 4;  // tokens 0-3 or 4-7
    for (int j = 0; j < 12; ++j) w.push_back(base + rng.UniformInt(4));
    walks.push_back(std::move(w));
  }
  SkipGramConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 3;
  Matrix emb = TrainSkipGram(walks, 8, cfg);
  EXPECT_EQ(emb.rows(), 8);
  // Within-community similarity must dominate cross-community similarity.
  double within = RowCosine(emb, 0, emb, 1);
  double across = RowCosine(emb, 0, emb, 5);
  EXPECT_GT(within, across + 0.2);
}

// ---------------------------------------------------------------- Aligners

TEST(IsoRankTest, PerfectOnCleanCopyWithSeeds) {
  AlignmentPair pair = CleanPair(9);
  IsoRankAligner aligner;
  auto s = aligner.Align(pair.source, pair.target,
                         TenPercentSeeds(pair, 10));
  ASSERT_TRUE(s.ok());
  AlignmentMetrics m = ComputeMetrics(s.ValueOrDie(), pair.ground_truth);
  EXPECT_GT(m.success_at_10, 0.3);
  EXPECT_GT(m.auc, 0.6);
}

TEST(IsoRankTest, WorksUnsupervisedViaAttributePrior) {
  AlignmentPair pair = CleanPair(11);
  IsoRankAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, {});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.ValueOrDie().AllFinite());
}

TEST(IsoRankTest, RejectsOutOfRangeSeeds) {
  IsoRankAligner aligner;
  ExpectOutOfRangeSeedRejected(&aligner, CleanPair(11, 20));
}

TEST(FinalTest, StrongOnCleanAttributedCopy) {
  AlignmentPair pair = CleanPair(12);
  FinalAligner aligner;
  auto s = aligner.Align(pair.source, pair.target,
                         TenPercentSeeds(pair, 13));
  ASSERT_TRUE(s.ok());
  AlignmentMetrics m = ComputeMetrics(s.ValueOrDie(), pair.ground_truth);
  EXPECT_GT(m.success_at_10, 0.5);
}

TEST(FinalTest, AttributelessVariantRuns) {
  AlignmentPair pair = CleanPair(14);
  FinalConfig cfg;
  cfg.use_attributes = false;
  FinalAligner aligner(cfg);
  auto s = aligner.Align(pair.source, pair.target,
                         TenPercentSeeds(pair, 15));
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.ValueOrDie().AllFinite());
}

TEST(FinalTest, RejectsOutOfRangeSeeds) {
  FinalAligner aligner;
  ExpectOutOfRangeSeedRejected(&aligner, CleanPair(14, 20));
}

TEST(RegalTest, UnsupervisedAndDecentOnCleanCopy) {
  AlignmentPair pair = CleanPair(16);
  RegalAligner aligner;
  auto s = aligner.Align(pair.source, pair.target, {});
  ASSERT_TRUE(s.ok());
  AlignmentMetrics m = ComputeMetrics(s.ValueOrDie(), pair.ground_truth);
  // Structural identity on an exact copy must beat random by far.
  EXPECT_GT(m.auc, 0.7);
}

TEST(PaleTest, RequiresSeeds) {
  AlignmentPair pair = CleanPair(17);
  PaleAligner aligner;
  EXPECT_FALSE(aligner.Align(pair.source, pair.target, {}).ok());
}

TEST(PaleTest, AlignsWithSeeds) {
  AlignmentPair pair = CleanPair(18, 100);
  PaleConfig cfg;
  cfg.embedding_epochs = 80;
  cfg.embedding_dim = 32;
  PaleAligner aligner(cfg);
  auto s = aligner.Align(pair.source, pair.target,
                         TenPercentSeeds(pair, 19));
  ASSERT_TRUE(s.ok());
  AlignmentMetrics m = ComputeMetrics(s.ValueOrDie(), pair.ground_truth);
  EXPECT_GT(m.auc, 0.7);
  EXPECT_TRUE(s.ValueOrDie().AllFinite());
}

TEST(PaleTest, LinearMappingVariant) {
  AlignmentPair pair = CleanPair(20, 40);
  PaleConfig cfg;
  cfg.mlp_mapping = true;
  cfg.embedding_epochs = 10;
  cfg.mapping_epochs = 100;
  PaleAligner aligner(cfg);
  auto s = aligner.Align(pair.source, pair.target,
                         TenPercentSeeds(pair, 21));
  ASSERT_TRUE(s.ok());
}

TEST(PaleTest, RejectsOutOfRangeSeeds) {
  AlignmentPair pair = CleanPair(22, 30);
  Supervision bad;
  bad.seeds = {{500, 0}};
  PaleAligner aligner;
  EXPECT_FALSE(aligner.Align(pair.source, pair.target, bad).ok());
}

TEST(CenalpTest, AlignsWithSeeds) {
  AlignmentPair pair = CleanPair(23, 50);
  CenalpConfig cfg;
  cfg.walks.walks_per_node = 6;
  cfg.walks.walk_length = 15;
  cfg.skipgram.epochs = 2;
  cfg.skipgram.dim = 24;
  cfg.expansion_rounds = 2;
  CenalpAligner aligner(cfg);
  auto s = aligner.Align(pair.source, pair.target,
                         TenPercentSeeds(pair, 24));
  ASSERT_TRUE(s.ok());
  AlignmentMetrics m = ComputeMetrics(s.ValueOrDie(), pair.ground_truth);
  EXPECT_GT(m.auc, 0.55);
}

TEST(CenalpTest, BootstrapsWithoutSeeds) {
  AlignmentPair pair = CleanPair(25, 40);
  CenalpConfig cfg;
  cfg.walks.walks_per_node = 2;
  cfg.walks.walk_length = 10;
  cfg.skipgram.epochs = 1;
  cfg.expansion_rounds = 1;
  CenalpAligner aligner(cfg);
  auto s = aligner.Align(pair.source, pair.target, {});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.ValueOrDie().AllFinite());
}

TEST(CenalpTest, RejectsOutOfRangeSeeds) {
  CenalpAligner aligner;
  ExpectOutOfRangeSeedRejected(&aligner, CleanPair(25, 20));
}

// Contract test over every baseline: shape, finiteness, determinism.
class AlignerContract : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Aligner> MakeAligner() {
    switch (GetParam()) {
      case 0:
        return std::make_unique<IsoRankAligner>();
      case 1:
        return std::make_unique<FinalAligner>();
      case 2:
        return std::make_unique<RegalAligner>();
      case 3: {
        PaleConfig cfg;
        cfg.embedding_epochs = 8;
        cfg.mapping_epochs = 60;
        return std::make_unique<PaleAligner>(cfg);
      }
      default: {
        CenalpConfig cfg;
        cfg.walks.walks_per_node = 2;
        cfg.walks.walk_length = 8;
        cfg.skipgram.epochs = 1;
        cfg.expansion_rounds = 1;
        return std::make_unique<CenalpAligner>(cfg);
      }
    }
  }
};

TEST_P(AlignerContract, ShapeFinitenessDeterminism) {
  AlignmentPair pair = CleanPair(30, 40);
  Supervision sup = TenPercentSeeds(pair, 31);
  auto a1 = MakeAligner();
  auto a2 = MakeAligner();
  auto s1 = a1->Align(pair.source, pair.target, sup);
  auto s2 = a2->Align(pair.source, pair.target, sup);
  ASSERT_TRUE(s1.ok()) << a1->name() << ": " << s1.status().ToString();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1.ValueOrDie().rows(), pair.source.num_nodes());
  EXPECT_EQ(s1.ValueOrDie().cols(), pair.target.num_nodes());
  EXPECT_TRUE(s1.ValueOrDie().AllFinite());
  EXPECT_LT(Matrix::MaxAbsDiff(s1.ValueOrDie(), s2.ValueOrDie()), 1e-12)
      << a1->name() << " is not deterministic";
  EXPECT_FALSE(a1->name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, AlignerContract,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace galign
