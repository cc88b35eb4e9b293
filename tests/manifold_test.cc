#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "la/ops.h"
#include "manifold/tsne.h"

namespace galign {
namespace {

TEST(TsneTest, OutputShape) {
  Rng rng(4);
  Matrix x = Matrix::Gaussian(25, 10, &rng);
  TsneConfig cfg;
  cfg.iterations = 150;
  auto y = Tsne(x, cfg);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y.ValueOrDie().rows(), 25);
  EXPECT_EQ(y.ValueOrDie().cols(), 2);
  EXPECT_TRUE(y.ValueOrDie().AllFinite());
}

TEST(TsneTest, SeparatesTwoGaussianClusters) {
  Rng rng(5);
  const int64_t per = 15;
  Matrix x(2 * per, 6);
  for (int64_t i = 0; i < per; ++i) {
    for (int64_t c = 0; c < 6; ++c) {
      x(i, c) = rng.Normal() * 0.3;              // cluster A near origin
      x(per + i, c) = 8.0 + rng.Normal() * 0.3;  // cluster B far away
    }
  }
  TsneConfig cfg;
  cfg.iterations = 600;
  cfg.learning_rate = 20.0;
  auto y = Tsne(x, cfg).MoveValueOrDie();
  // Mean within-cluster distance must be far below across-cluster distance.
  double within = 0, across = 0;
  int64_t wn = 0, an = 0;
  for (int64_t i = 0; i < 2 * per; ++i) {
    for (int64_t j = i + 1; j < 2 * per; ++j) {
      double d = std::sqrt(RowSquaredDistance(y, i, y, j));
      if ((i < per) == (j < per)) {
        within += d;
        ++wn;
      } else {
        across += d;
        ++an;
      }
    }
  }
  EXPECT_GT(across / an, 2.0 * (within / wn));
}

TEST(TsneTest, RejectsBadInput) {
  EXPECT_FALSE(Tsne(Matrix(1, 3)).ok());  // too few rows
  Matrix x(4, 3);
  TsneConfig cfg;
  cfg.perplexity = 10.0;  // >= n
  EXPECT_FALSE(Tsne(x, cfg).ok());
}

TEST(TsneTest, DeterministicUnderSeed) {
  Rng rng(6);
  Matrix x = Matrix::Gaussian(12, 4, &rng);
  TsneConfig cfg;
  cfg.iterations = 100;
  auto y1 = Tsne(x, cfg).MoveValueOrDie();
  auto y2 = Tsne(x, cfg).MoveValueOrDie();
  EXPECT_LT(Matrix::MaxAbsDiff(y1, y2), 1e-12);
}

}  // namespace
}  // namespace galign
