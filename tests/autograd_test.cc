#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "common/rng.h"
#include "la/ops.h"

namespace galign {
namespace {

// Central finite-difference check: builds the scalar loss twice per probed
// entry and compares to the analytic gradient from Backward().
void CheckGradient(
    const Matrix& x,
    const std::function<Var(Tape*, Var)>& build_loss,
    double tol = 1e-6, double eps = 1e-6) {
  Tape tape;
  Var leaf = tape.Leaf(x, /*requires_grad=*/true);
  Var loss = build_loss(&tape, leaf);
  ASSERT_EQ(tape.value(loss).rows(), 1);
  ASSERT_EQ(tape.value(loss).cols(), 1);
  tape.Backward(loss);
  Matrix analytic = tape.grad(leaf);

  auto eval = [&](const Matrix& probe) {
    Tape t2;
    Var l2 = t2.Leaf(probe, false);
    Var loss2 = build_loss(&t2, l2);
    return t2.value(loss2)(0, 0);
  };

  for (int64_t i = 0; i < x.size(); ++i) {
    Matrix plus = x, minus = x;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    double numeric = (eval(plus) - eval(minus)) / (2 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "entry " << i << " of " << x.rows() << "x" << x.cols();
  }
}

// Reduces any matrix-valued var to a scalar via a fixed random projection so
// every op can be gradient-checked through a scalar loss.
Var ProjectToScalar(Tape* t, Var m, uint64_t seed = 123) {
  Rng rng(seed);
  const Matrix& v = t->value(m);
  Matrix w = Matrix::Gaussian(v.rows(), v.cols(), &rng);
  Var wconst = t->Leaf(w, false);
  Var had = t->Emit(
      Hadamard(t->value(m), w), {m, wconst},
      [m, wconst](Tape* tp, Var self) {
        tp->AccumulateGrad(m, Hadamard(tp->grad(self), tp->value(wconst)));
      },
      t->requires_grad(m));
  // Sum all entries.
  const Matrix& hv = t->value(had);
  Matrix s(1, 1, hv.Sum());
  return t->Emit(
      std::move(s), {had},
      [had](Tape* tp, Var self) {
        const Matrix& hv = tp->value(had);
        Matrix ones(hv.rows(), hv.cols(), tp->grad(self)(0, 0));
        tp->AccumulateGrad(had, ones);
      },
      t->requires_grad(had));
}

TEST(TapeTest, LeafValueRoundTrip) {
  Tape t;
  Matrix m{{1, 2}, {3, 4}};
  Var v = t.Leaf(m, true);
  EXPECT_LT(Matrix::MaxAbsDiff(t.value(v), m), 1e-15);
  EXPECT_TRUE(t.requires_grad(v));
}

TEST(TapeTest, BackwardThroughChainedScales) {
  Tape t;
  Var x = t.Leaf(Matrix(1, 1, 3.0), true);
  Var y = ag::Scale(&t, x, 2.0);
  Var z = ag::Scale(&t, y, 5.0);
  t.Backward(z);
  EXPECT_DOUBLE_EQ(t.grad(x)(0, 0), 10.0);
}

TEST(TapeTest, GradAccumulatesAcrossUses) {
  // loss = x + x => dloss/dx = 2.
  Tape t;
  Var x = t.Leaf(Matrix(1, 1, 1.5), true);
  Var y = ag::Add(&t, x, x);
  t.Backward(y);
  EXPECT_DOUBLE_EQ(t.grad(x)(0, 0), 2.0);
}

TEST(TapeTest, ConstantReadsInPlace) {
  Matrix m{{1, 2}, {3, 4}};
  Tape t;
  Var c = t.Constant(&m);
  EXPECT_EQ(&t.value(c), &m);
  EXPECT_FALSE(t.requires_grad(c));
  Var w = t.Leaf(Matrix{{0.5}, {-1.0}}, true);
  t.Backward(ag::FrobeniusNorm(&t, ag::MatMul(&t, c, w)));
  EXPECT_TRUE(t.grad(w).AllFinite());
  EXPECT_GT(t.grad(w).MaxAbs(), 0.0);
}

TEST(TapeTest, KeepAliveOwnsStateUntilTapeDies) {
  auto owned = std::make_shared<const Matrix>(Matrix{{2.0}});
  std::weak_ptr<const Matrix> watch = owned;
  {
    Tape t;
    Var c = t.Constant(owned.get());
    t.KeepAlive(std::move(owned));
    EXPECT_FALSE(watch.expired());
    EXPECT_DOUBLE_EQ(t.value(c)(0, 0), 2.0);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(TapeTest, ZeroWeightedPathGivesZeroGradient) {
  // The path to x is written with an exactly-zero gradient: x still exposes
  // a correctly shaped, all-zero gradient.
  Tape t;
  Var x = t.Leaf(Matrix{{1.0, -2.0}}, true);
  t.Backward(ag::WeightedSum(&t, {{ag::FrobeniusNorm(&t, x), 0.0}}));
  ASSERT_EQ(t.grad(x).cols(), 2);
  EXPECT_EQ(t.grad(x).MaxAbs(), 0.0);
}

TEST(TapeTest, NoGradLeafStaysUntouched) {
  Tape t;
  Var x = t.Leaf(Matrix(1, 1, 3.0), false);
  Var y = ag::Scale(&t, x, 2.0);
  t.Backward(y);
  EXPECT_TRUE(t.grad(x).empty() || t.grad(x).MaxAbs() == 0.0);
}

TEST(GradCheck, MatMulLeft) {
  Rng rng(1);
  Matrix x = Matrix::Gaussian(3, 4, &rng);
  Matrix b = Matrix::Gaussian(4, 5, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(b, false);
    return ProjectToScalar(t, ag::MatMul(t, leaf, bv));
  });
}

TEST(GradCheck, MatMulRight) {
  Rng rng(2);
  Matrix a = Matrix::Gaussian(4, 3, &rng);
  Matrix x = Matrix::Gaussian(3, 6, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var av = t->Leaf(a, false);
    return ProjectToScalar(t, ag::MatMul(t, av, leaf));
  });
}

TEST(GradCheck, SpMM) {
  Rng rng(3);
  std::vector<Triplet> trip;
  for (int i = 0; i < 20; ++i) {
    trip.push_back({rng.UniformInt(5), rng.UniformInt(5), rng.Normal()});
  }
  SparseMatrix sp = SparseMatrix::FromTriplets(5, 5, trip);
  Matrix x = Matrix::Gaussian(5, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::SpMM(t, &sp, leaf));
  });
}

TEST(GradCheck, Tanh) {
  Rng rng(4);
  Matrix x = Matrix::Gaussian(4, 4, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::Tanh(t, leaf));
  });
}

TEST(GradCheck, Sigmoid) {
  Rng rng(5);
  Matrix x = Matrix::Gaussian(3, 5, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::Sigmoid(t, leaf));
  });
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(6);
  Matrix x = Matrix::Gaussian(4, 4, &rng);
  // Keep entries away from 0 where ReLU is non-differentiable.
  for (int64_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x.data()[i]) < 0.1) x.data()[i] = 0.5;
  }
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::Relu(t, leaf));
  });
}

TEST(GradCheck, NormalizeRows) {
  Rng rng(7);
  Matrix x = Matrix::Gaussian(4, 5, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::NormalizeRows(t, leaf));
  }, 1e-5);
}

TEST(GradCheck, AddSub) {
  Rng rng(8);
  Matrix x = Matrix::Gaussian(3, 3, &rng);
  Matrix b = Matrix::Gaussian(3, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(b, false);
    Var sum = ag::Add(t, leaf, bv);
    Var diff = ag::Sub(t, sum, leaf);  // cancels leaf partially
    Var mixed = ag::Add(t, diff, leaf);
    return ProjectToScalar(t, mixed);
  });
}

TEST(GradCheck, AddBiasOnInput) {
  Rng rng(9);
  Matrix x = Matrix::Gaussian(4, 3, &rng);
  Matrix bias = Matrix::Gaussian(1, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(bias, false);
    return ProjectToScalar(t, ag::AddBias(t, leaf, bv));
  });
}

TEST(GradCheck, AddBiasOnBias) {
  Rng rng(10);
  Matrix input = Matrix::Gaussian(4, 3, &rng);
  Matrix bias = Matrix::Gaussian(1, 3, &rng);
  CheckGradient(bias, [&](Tape* t, Var leaf) {
    Var iv = t->Leaf(input, false);
    return ProjectToScalar(t, ag::AddBias(t, iv, leaf));
  });
}

TEST(GradCheck, FrobeniusNorm) {
  Rng rng(11);
  Matrix x = Matrix::Gaussian(4, 4, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ag::FrobeniusNorm(t, leaf);
  });
}

TEST(GradCheck, MSELoss) {
  Rng rng(12);
  Matrix x = Matrix::Gaussian(5, 3, &rng);
  Matrix target = Matrix::Gaussian(5, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ag::MSELoss(t, leaf, target);
  });
}

TEST(GradCheck, WeightedSum) {
  Rng rng(13);
  Matrix x = Matrix::Gaussian(3, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var n1 = ag::FrobeniusNorm(t, leaf);
    Var n2 = ag::FrobeniusNorm(t, ag::Scale(t, leaf, 2.0));
    return ag::WeightedSum(t, {{n1, 0.3}, {n2, 0.7}});
  });
}

TEST(GradCheck, ConsistencyLoss) {
  Rng rng(14);
  // Symmetric sparse "Laplacian-like" matrix.
  std::vector<Triplet> trip;
  for (int i = 0; i < 12; ++i) {
    int64_t u = rng.UniformInt(6), v = rng.UniformInt(6);
    double val = rng.Uniform(0.1, 0.5);
    trip.push_back({u, v, val});
    trip.push_back({v, u, val});
  }
  SparseMatrix c = SparseMatrix::FromTriplets(6, 6, trip);
  Matrix h = Matrix::Gaussian(6, 4, &rng, 0.5);
  CheckGradient(h, [&](Tape* t, Var leaf) {
    return ag::ConsistencyLoss(t, &c, leaf);
  }, 1e-5);
}

TEST(GradCheck, ConsistencyLossAsymmetricSparse) {
  Rng rng(15);
  std::vector<Triplet> trip;
  for (int i = 0; i < 10; ++i) {
    trip.push_back({rng.UniformInt(5), rng.UniformInt(5),
                    rng.Uniform(0.1, 0.4)});
  }
  SparseMatrix c = SparseMatrix::FromTriplets(5, 5, trip);
  Matrix h = Matrix::Gaussian(5, 3, &rng, 0.5);
  CheckGradient(h, [&](Tape* t, Var leaf) {
    return ag::ConsistencyLoss(t, &c, leaf);
  }, 1e-5);
}

TEST(GradCheck, AdaptivityLossOnA) {
  Rng rng(16);
  Matrix a = Matrix::Gaussian(5, 3, &rng, 0.2);
  Matrix b = Matrix::Gaussian(5, 3, &rng, 0.2);
  std::vector<int64_t> corr{2, 0, 1, 4, 3};
  CheckGradient(a, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(b, false);
    return ag::AdaptivityLoss(t, leaf, bv, corr, /*threshold=*/10.0);
  }, 1e-5);
}

TEST(GradCheck, AdaptivityLossOnB) {
  Rng rng(17);
  Matrix a = Matrix::Gaussian(5, 3, &rng, 0.2);
  Matrix b = Matrix::Gaussian(5, 3, &rng, 0.2);
  std::vector<int64_t> corr{2, 0, 1, 4, 3};
  CheckGradient(b, [&](Tape* t, Var leaf) {
    Var av = t->Leaf(a, false);
    return ag::AdaptivityLoss(t, av, leaf, corr, /*threshold=*/10.0);
  }, 1e-5);
}

TEST(GradCheck, AnchorLossOnA) {
  Rng rng(30);
  Matrix a = Matrix::Gaussian(6, 3, &rng, 0.3);
  Matrix b = Matrix::Gaussian(5, 3, &rng, 0.3);
  std::vector<std::pair<int64_t, int64_t>> pairs{{0, 2}, {3, 4}, {5, 0}};
  CheckGradient(a, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(b, false);
    return ag::AnchorLoss(t, leaf, bv, pairs);
  }, 1e-5);
}

TEST(GradCheck, AnchorLossOnB) {
  Rng rng(31);
  Matrix a = Matrix::Gaussian(6, 3, &rng, 0.3);
  Matrix b = Matrix::Gaussian(5, 3, &rng, 0.3);
  std::vector<std::pair<int64_t, int64_t>> pairs{{1, 1}, {2, 3}};
  CheckGradient(b, [&](Tape* t, Var leaf) {
    Var av = t->Leaf(a, false);
    return ag::AnchorLoss(t, av, leaf, pairs);
  }, 1e-5);
}

TEST(AnchorLossTest, ValueIsSumOfPairDistances) {
  Tape t;
  Matrix a{{0, 0}, {1, 0}};
  Matrix b{{3, 4}, {1, 0}};
  Var av = t.Leaf(a, true);
  Var bv = t.Leaf(b, false);
  std::vector<std::pair<int64_t, int64_t>> pairs{{0, 0}, {1, 1}};
  Var loss = ag::AnchorLoss(&t, av, bv, pairs);
  EXPECT_NEAR(t.value(loss)(0, 0), 5.0 + 0.0, 1e-12);
}

TEST(AdaptivityLossTest, ThresholdMasksLargeDistances) {
  Tape t;
  Matrix a{{0, 0}, {0, 0}};
  Matrix b{{3, 4}, {0.1, 0}};  // distances 5 and 0.1
  Var av = t.Leaf(a, true);
  Var bv = t.Leaf(b, false);
  std::vector<int64_t> corr{0, 1};
  Var loss = ag::AdaptivityLoss(&t, av, bv, corr, /*threshold=*/1.0);
  // Only the 0.1 distance survives the sigma_< mask.
  EXPECT_NEAR(t.value(loss)(0, 0), 0.1, 1e-12);
  t.Backward(loss);
  // Masked row contributes zero gradient.
  EXPECT_DOUBLE_EQ(t.grad(av)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.grad(av)(0, 1), 0.0);
  EXPECT_NE(t.grad(av)(1, 0), 0.0);
}

TEST(ConsistencyLossTest, PerfectGramGivesZeroLoss) {
  // If C == H H^T exactly, the loss must be ~0.
  Matrix h{{1, 0}, {0, 1}};
  std::vector<Triplet> trip{{0, 0, 1.0}, {1, 1, 1.0}};
  SparseMatrix c = SparseMatrix::FromTriplets(2, 2, trip);
  Tape t;
  Var hv = t.Leaf(h, true);
  Var loss = ag::ConsistencyLoss(&t, &c, hv);
  EXPECT_NEAR(t.value(loss)(0, 0), 0.0, 1e-9);
}

TEST(ConsistencyLossTest, MatchesDenseFormula) {
  Rng rng(18);
  std::vector<Triplet> trip;
  for (int i = 0; i < 8; ++i) {
    int64_t u = rng.UniformInt(4), v = rng.UniformInt(4);
    double val = rng.Uniform(0.1, 0.5);
    trip.push_back({u, v, val});
    trip.push_back({v, u, val});
  }
  SparseMatrix c = SparseMatrix::FromTriplets(4, 4, trip);
  Matrix h = Matrix::Gaussian(4, 3, &rng, 0.4);
  Tape t;
  Var hv = t.Leaf(h, false);
  Var loss = ag::ConsistencyLoss(&t, &c, hv);
  Matrix dense_diff = c.ToDense();
  dense_diff.Axpy(-1.0, MatMulTransposedB(h, h));
  EXPECT_NEAR(t.value(loss)(0, 0), dense_diff.FrobeniusNorm(), 1e-9);
}

}  // namespace
}  // namespace galign
