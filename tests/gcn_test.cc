#include "core/gcn.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/noise.h"
#include "la/ops.h"

namespace galign {
namespace {

AttributedGraph RandomGraph(uint64_t seed, int64_t n = 60) {
  Rng rng(seed);
  auto g = BarabasiAlbert(n, 3, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(n, 8, 0.3, &rng);
  return g.WithAttributes(f).MoveValueOrDie();
}

TEST(GcnTest, WeightShapes) {
  Rng rng(1);
  MultiOrderGcn gcn(3, 8, 16, &rng);
  EXPECT_EQ(gcn.num_layers(), 3);
  EXPECT_EQ(gcn.weights()[0].rows(), 8);
  EXPECT_EQ(gcn.weights()[0].cols(), 16);
  EXPECT_EQ(gcn.weights()[1].rows(), 16);
  EXPECT_EQ(gcn.weights()[2].cols(), 16);
}

TEST(GcnTest, PerLayerDimensions) {
  // Paper Table I allows a distinct d^(l) per layer; build a pyramid.
  Rng rng(21);
  MultiOrderGcn gcn({32, 16, 8}, /*input_dim=*/6, &rng);
  EXPECT_EQ(gcn.num_layers(), 3);
  EXPECT_EQ(gcn.embedding_dim(), 8);
  EXPECT_EQ(gcn.weights()[0].rows(), 6);
  EXPECT_EQ(gcn.weights()[0].cols(), 32);
  EXPECT_EQ(gcn.weights()[1].rows(), 32);
  EXPECT_EQ(gcn.weights()[1].cols(), 16);
  EXPECT_EQ(gcn.weights()[2].cols(), 8);

  AttributedGraph g = RandomGraph(22);
  auto g6 = g.WithAttributes(Matrix::Uniform(g.num_nodes(), 6, &rng))
                .MoveValueOrDie();
  auto lap = g6.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g6.attributes());
  ASSERT_EQ(layers.size(), 4u);
  EXPECT_EQ(layers[1].cols(), 32);
  EXPECT_EQ(layers[2].cols(), 16);
  EXPECT_EQ(layers[3].cols(), 8);
  for (const Matrix& h : layers) EXPECT_TRUE(h.AllFinite());
}

TEST(GcnTest, PerLayerDimsKeepPermutationImmunity) {
  Rng rng(23);
  AttributedGraph g = RandomGraph(24, 30);
  std::vector<int64_t> perm = rng.Permutation(g.num_nodes());
  AttributedGraph pg = g.Permuted(perm).MoveValueOrDie();
  MultiOrderGcn gcn({12, 6}, g.num_attributes(), &rng);
  auto hs = gcn.ForwardInference(g.NormalizedAdjacency().MoveValueOrDie(),
                                 g.attributes());
  auto ht = gcn.ForwardInference(pg.NormalizedAdjacency().MoveValueOrDie(),
                                 pg.attributes());
  for (size_t l = 0; l < hs.size(); ++l) {
    for (int64_t v = 0; v < g.num_nodes(); ++v) {
      for (int64_t c = 0; c < hs[l].cols(); ++c) {
        ASSERT_NEAR(ht[l](perm[v], c), hs[l](v, c), 1e-10);
      }
    }
  }
}

TEST(GcnTest, UniformConstructorMatchesVectorConstructor) {
  Rng r1(25), r2(25);
  MultiOrderGcn a(2, 5, 9, &r1);
  MultiOrderGcn b({9, 9}, 5, &r2);
  for (int l = 0; l < 2; ++l) {
    EXPECT_LT(Matrix::MaxAbsDiff(a.weights()[l], b.weights()[l]), 1e-15);
  }
}

TEST(GcnTest, ForwardInferenceShapesAndNorms) {
  AttributedGraph g = RandomGraph(2);
  Rng rng(3);
  MultiOrderGcn gcn(2, 8, 12, &rng);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g.attributes());
  ASSERT_EQ(layers.size(), 3u);  // H0..H2
  EXPECT_EQ(layers[0].cols(), 8);
  EXPECT_EQ(layers[1].cols(), 12);
  EXPECT_EQ(layers[2].cols(), 12);
  // Every layer is row-normalized.
  for (const Matrix& h : layers) {
    for (int64_t r = 0; r < h.rows(); ++r) {
      double n = h.RowNorm(r);
      EXPECT_TRUE(n < 1e-9 || std::fabs(n - 1.0) < 1e-9);
    }
  }
}

TEST(GcnTest, TapeForwardMatchesInference) {
  AttributedGraph g = RandomGraph(4);
  Rng rng(5);
  MultiOrderGcn gcn(2, 8, 10, &rng);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto inference = gcn.ForwardInference(lap, g.attributes());
  Tape tape;
  std::vector<Var> wv;
  auto layers = gcn.Forward(&tape, &lap, g.attributes(), &wv);
  ASSERT_EQ(layers.size(), inference.size());
  for (size_t l = 0; l < layers.size(); ++l) {
    EXPECT_LT(Matrix::MaxAbsDiff(tape.value(layers[l]), inference[l]), 1e-12);
  }
}

// Layer 1 runs as the sparse product (C X̂) W^(1). It must match the dense
// reference tanh(C X̂ W^(1)) for every attribute kind, including a node with
// no attributes and a node with no edges.
class SparseLayerOne : public ::testing::TestWithParam<int> {};

TEST_P(SparseLayerOne, MatchesDenseReference) {
  const int64_t n = 50, m = 12;
  Rng rng(300 + GetParam());
  Matrix f;
  switch (GetParam()) {
    case 0:
      f = BinaryAttributes(n, m, 0.1, &rng);
      break;
    case 1:
      f = OneHotAttributes(n, m, 1.0, &rng);
      break;
    default:
      f = RealAttributes(n, m, 1.0, &rng);
      break;
  }
  // Node 0 has no attributes; nodes n-2 and n-1 have no edges, and n-1 has
  // no attributes either, so its row of C X̂ is empty.
  for (int64_t c = 0; c < m; ++c) f(0, c) = f(n - 1, c) = 0.0;
  if (f.RowNorm(n - 2) == 0.0) f(n - 2, 0) = 1.0;
  auto base = BarabasiAlbert(n - 2, 2, &rng).MoveValueOrDie();
  auto g = AttributedGraph::Create(n, base.edges(), f).MoveValueOrDie();
  MultiOrderGcn gcn(2, m, 9, &rng);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();

  Matrix xhat = f;
  xhat.NormalizeRows();
  const Matrix agg = reference::MatMul(lap.ToDense(), xhat);
  Matrix expected;
  TanhInto(reference::MatMul(agg, gcn.weights()[0]), &expected);
  expected.NormalizeRows();

  const GcnInput input = MultiOrderGcn::PrepareInput(&lap, f);
  EXPECT_LT(Matrix::MaxAbsDiff(input.propagated.ToDense(), agg), 1e-12);
  EXPECT_GT(input.propagated.RowNnz(0), 0);
  EXPECT_GT(input.propagated.RowNnz(n - 2), 0);
  EXPECT_EQ(input.propagated.RowNnz(n - 1), 0);

  auto inference = gcn.ForwardInference(lap, f);
  EXPECT_LT(Matrix::MaxAbsDiff(inference[1], expected), 1e-12);
  Tape tape;
  auto wv = gcn.MakeWeightLeaves(&tape);
  auto layers = gcn.ForwardWithWeights(&tape, input, wv);
  EXPECT_LT(Matrix::MaxAbsDiff(tape.value(layers[1]), expected), 1e-12);
  for (int64_t c = 0; c < expected.cols(); ++c) {
    EXPECT_EQ(inference[1](n - 1, c), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AttributeKinds, SparseLayerOne,
                         ::testing::Values(0, 1, 2));

// ------------------------------------------------- Proposition 1 (paper IV-B)

class PermutationImmunity : public ::testing::TestWithParam<int> {};

TEST_P(PermutationImmunity, EmbeddingsPermuteWithTheGraph) {
  // If A_t = P A_s P^T (and attributes move with nodes), then
  // H_t^(l) = P H_s^(l) exactly, at every layer.
  const int trial = GetParam();
  AttributedGraph g = RandomGraph(100 + trial, 40 + 10 * trial);
  Rng rng(200 + trial);
  std::vector<int64_t> perm = rng.Permutation(g.num_nodes());
  AttributedGraph pg = g.Permuted(perm).MoveValueOrDie();

  MultiOrderGcn gcn(3, g.num_attributes(), 16, &rng);
  auto lap_s = g.NormalizedAdjacency().MoveValueOrDie();
  auto lap_t = pg.NormalizedAdjacency().MoveValueOrDie();
  auto hs = gcn.ForwardInference(lap_s, g.attributes());
  auto ht = gcn.ForwardInference(lap_t, pg.attributes());

  for (size_t l = 0; l < hs.size(); ++l) {
    for (int64_t v = 0; v < g.num_nodes(); ++v) {
      for (int64_t c = 0; c < hs[l].cols(); ++c) {
        ASSERT_NEAR(ht[l](perm[v], c), hs[l](v, c), 1e-10)
            << "layer " << l << " node " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, PermutationImmunity,
                         ::testing::Values(0, 1, 2, 3, 4));

// ------------------------------------------------- Proposition 2 (paper IV-C)

TEST(GcnTest, MatchedNeighborhoodsGiveEqualEmbeddings) {
  // Two disjoint triangles with identical attributes: corresponding nodes
  // have degree-matched, embedding-matched neighbourhoods, so their
  // embeddings must coincide at every layer.
  Matrix f(6, 4);
  for (int64_t v = 0; v < 3; ++v) {
    for (int64_t c = 0; c < 4; ++c) {
      double val = (v * 7 + c * 3) % 5 + 1.0;
      f(v, c) = val;
      f(v + 3, c) = val;  // twin node
    }
  }
  auto g = AttributedGraph::Create(
               6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}, f)
               .MoveValueOrDie();
  Rng rng(7);
  MultiOrderGcn gcn(3, 4, 8, &rng);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g.attributes());
  for (const Matrix& h : layers) {
    for (int64_t v = 0; v < 3; ++v) {
      for (int64_t c = 0; c < h.cols(); ++c) {
        ASSERT_NEAR(h(v, c), h(v + 3, c), 1e-12);
      }
    }
  }
}

TEST(GcnTest, TanhBoundsPreNormalizationOutputs) {
  AttributedGraph g = RandomGraph(8);
  Rng rng(9);
  MultiOrderGcn gcn(2, 8, 12, &rng, Activation::kTanh);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g.attributes());
  // After normalization entries stay within [-1, 1] regardless.
  for (const Matrix& h : layers) {
    EXPECT_LE(h.MaxAbs(), 1.0 + 1e-12);
  }
}

TEST(GcnTest, ReluActivationNonNegative) {
  AttributedGraph g = RandomGraph(10);
  Rng rng(11);
  MultiOrderGcn gcn(2, 8, 12, &rng, Activation::kRelu);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g.attributes());
  for (size_t l = 1; l < layers.size(); ++l) {
    for (int64_t i = 0; i < layers[l].size(); ++i) {
      EXPECT_GE(layers[l].data()[i], 0.0);
    }
  }
}

TEST(GcnTest, ReluIsNotSignPreserving) {
  // The paper's argument for tanh: two graphs whose pre-activations differ
  // only in sign collapse to the same ReLU embedding. Verify tanh separates
  // a pattern that relu cannot: tanh(-x) != tanh(x) while relu(-x) ==
  // relu(0) for x > 0 collapses negatives.
  Matrix pre{{-0.5, 0.5}};
  Matrix relu = Map(pre, [](double v) { return v > 0 ? v : 0.0; });
  Matrix t;
  TanhInto(pre, &t);
  EXPECT_DOUBLE_EQ(relu(0, 0), 0.0);   // sign information destroyed
  EXPECT_LT(t(0, 0), 0.0);             // sign information kept
}

TEST(GcnTest, WeightSharingAcrossGraphsOnOneTape) {
  AttributedGraph g1 = RandomGraph(12);
  AttributedGraph g2 = RandomGraph(13);
  Rng rng(14);
  MultiOrderGcn gcn(2, 8, 10, &rng);
  auto lap1 = g1.NormalizedAdjacency().MoveValueOrDie();
  auto lap2 = g2.NormalizedAdjacency().MoveValueOrDie();
  Tape tape;
  auto wv = gcn.MakeWeightLeaves(&tape);
  auto h1 = gcn.ForwardWithWeights(&tape, &lap1, g1.attributes(), wv);
  auto h2 = gcn.ForwardWithWeights(&tape, &lap2, g2.attributes(), wv);
  // Gradients from both graphs accumulate into the same weight leaves.
  Var loss1 = ag::FrobeniusNorm(&tape, h1.back());
  Var loss2 = ag::FrobeniusNorm(&tape, h2.back());
  Var total = ag::WeightedSum(&tape, {{loss1, 1.0}, {loss2, 1.0}});
  tape.Backward(total);
  EXPECT_GT(tape.grad(wv[0]).MaxAbs(), 0.0);
}

}  // namespace
}  // namespace galign
