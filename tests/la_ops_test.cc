#include "la/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace galign {
namespace {

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (int64_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

TEST(OpsTest, MatMulSmallKnown) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

// Parameterized cross-check of all GEMM variants against the naive kernel.
class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, VariantsAgreeWithNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Matrix a = Matrix::Gaussian(m, k, &rng);
  Matrix b = Matrix::Gaussian(k, n, &rng);
  Matrix expected = NaiveMatMul(a, b);

  EXPECT_LT(Matrix::MaxAbsDiff(MatMul(a, b), expected), 1e-10);
  EXPECT_LT(Matrix::MaxAbsDiff(MatMulTransposedB(a, Transpose(b)), expected),
            1e-10);
  EXPECT_LT(Matrix::MaxAbsDiff(MatMulTransposedA(Transpose(a), b), expected),
            1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(17, 9, 23), std::make_tuple(64, 64, 64),
                      std::make_tuple(130, 7, 130),
                      std::make_tuple(5, 200, 5)));

double FrobDiff(const Matrix& a, const Matrix& b) {
  EXPECT_TRUE(a.SameShape(b));
  double s = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double d = a.data()[i] - b.data()[i];
    s += d * d;
  }
  return std::sqrt(s);
}

// Blocked kernels vs. the retained naive references, on shapes chosen to
// exercise every fringe of the blocking scheme: empty extents, single
// elements, micro-tile remainders (non-multiples of 4/8), and dimensions
// crossing the MC=96 / KC=256 / NC=1024 panel boundaries.
TEST(BlockedGemmTest, MatchesReferenceAcrossShapes) {
  const std::vector<std::tuple<int64_t, int64_t, int64_t>> shapes = {
      {0, 5, 3},   {4, 0, 3},    {3, 5, 0},    {1, 1, 1},    {2, 3, 1},
      {4, 8, 8},   {5, 9, 11},   {96, 16, 64}, {97, 13, 130}, {33, 257, 9},
      {7, 300, 1029}, {100, 128, 100}, {130, 70, 1025}};
  for (const auto& [m, k, n] : shapes) {
    Rng rng(1000 + m * 31 + k * 7 + n);
    Matrix a = Matrix::Gaussian(m, k, &rng);
    Matrix b = Matrix::Gaussian(k, n, &rng);
    Matrix at = Transpose(a);
    Matrix bt = Transpose(b);
    const Matrix expected = reference::MatMul(a, b);
    EXPECT_LT(FrobDiff(MatMul(a, b), expected), 1e-9)
        << "MatMul " << m << "x" << k << "x" << n;
    EXPECT_LT(FrobDiff(MatMulTransposedB(a, bt), expected), 1e-9)
        << "MatMulTransposedB " << m << "x" << k << "x" << n;
    EXPECT_LT(FrobDiff(MatMulTransposedA(at, b), expected), 1e-9)
        << "MatMulTransposedA " << m << "x" << k << "x" << n;
  }
}

TEST(BlockedGemmTest, IntoReusesAndAccumulates) {
  Rng rng(7);
  Matrix a = Matrix::Gaussian(37, 19, &rng);
  Matrix b = Matrix::Gaussian(19, 41, &rng);
  const Matrix expected = reference::MatMul(a, b);
  // Wrong-shaped out is resized; a second accumulate pass doubles it.
  Matrix out(3, 2, 99.0);
  MatMulInto(a, b, &out);
  EXPECT_LT(FrobDiff(out, expected), 1e-9);
  MatMulInto(a, b, &out, /*accumulate=*/true);
  Matrix doubled = expected;
  doubled.Scale(2.0);
  EXPECT_LT(FrobDiff(out, doubled), 1e-9);

  Matrix out_bt(37, 41, -5.0);
  MatMulTransposedBInto(a, Transpose(b), &out_bt);
  EXPECT_LT(FrobDiff(out_bt, expected), 1e-9);
  Matrix out_at;
  MatMulTransposedAInto(Transpose(a), b, &out_at);
  EXPECT_LT(FrobDiff(out_at, expected), 1e-9);
}

// ParallelFor partitioning must not leak into results: every output tile is
// owned by one task with a fixed accumulation order, so two runs must agree
// bit for bit.
TEST(BlockedGemmTest, RunToRunDeterministic) {
  Rng rng(11);
  Matrix a = Matrix::Gaussian(201, 130, &rng);
  Matrix b = Matrix::Gaussian(130, 99, &rng);
  Matrix c1 = MatMul(a, b);
  Matrix c2 = MatMul(a, b);
  ASSERT_TRUE(c1.SameShape(c2));
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(double)), 0);
  Matrix s1 = MatMulTransposedB(a, Transpose(b));
  Matrix s2 = MatMulTransposedB(a, Transpose(b));
  EXPECT_EQ(std::memcmp(s1.data(), s2.data(), s1.size() * sizeof(double)), 0);
}

TEST(OpsTest, TransposeBlockedMatchesNaiveOddShapes) {
  for (auto [r, c] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 1}, {5, 33}, {64, 64}, {37, 65}, {100, 3}}) {
    Rng rng(r * 100 + c);
    Matrix a = Matrix::Gaussian(r, c, &rng);
    Matrix t = Transpose(a);
    ASSERT_EQ(t.rows(), c);
    ASSERT_EQ(t.cols(), r);
    for (int64_t i = 0; i < r; ++i) {
      for (int64_t j = 0; j < c; ++j) EXPECT_EQ(t(j, i), a(i, j));
    }
  }
}

TEST(OpsTest, TransposeRoundTrip) {
  Rng rng(1);
  Matrix a = Matrix::Gaussian(7, 13, &rng);
  EXPECT_LT(Matrix::MaxAbsDiff(Transpose(Transpose(a)), a), 1e-15);
}

TEST(OpsTest, AddSubScaleHadamard) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  Matrix sum = a;
  sum.Add(b);
  EXPECT_DOUBLE_EQ(sum(1, 1), 44);
  Matrix diff = b;
  diff.Axpy(-1.0, a);
  EXPECT_DOUBLE_EQ(diff(0, 0), 9);
  Matrix scaled = a;
  scaled.Scale(-2);
  EXPECT_DOUBLE_EQ(scaled(0, 1), -4);
  EXPECT_DOUBLE_EQ(Hadamard(a, b)(1, 0), 90);
}

TEST(OpsTest, MapAppliesFunction) {
  Matrix a{{1, 4}, {9, 16}};
  Matrix r = Map(a, [](double v) { return std::sqrt(v); });
  EXPECT_DOUBLE_EQ(r(0, 1), 2);
  EXPECT_DOUBLE_EQ(r(1, 1), 4);
}

TEST(OpsTest, TanhMatchesStd) {
  Rng rng(2);
  Matrix a = Matrix::Gaussian(11, 7, &rng, 2.0);
  Matrix t;
  TanhInto(a, &t);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(t.data()[i], std::tanh(a.data()[i]));
  }
}

TEST(OpsTest, DotIsFrobeniusInner) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(Dot(a, a), 30);
}

TEST(OpsTest, RowSquaredDistance) {
  Matrix a{{0, 0}, {3, 4}};
  EXPECT_DOUBLE_EQ(RowSquaredDistance(a, 0, a, 1), 25);
  EXPECT_DOUBLE_EQ(RowSquaredDistance(a, 1, a, 1), 0);
}

TEST(OpsTest, RowCosine) {
  Matrix a{{1, 0}, {0, 2}, {3, 3}, {0, 0}};
  EXPECT_DOUBLE_EQ(RowCosine(a, 0, a, 1), 0.0);
  EXPECT_NEAR(RowCosine(a, 0, a, 2), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(RowCosine(a, 0, a, 0), 1.0);
  EXPECT_DOUBLE_EQ(RowCosine(a, 0, a, 3), 0.0);  // zero row guard
}

TEST(OpsTest, ArgMaxAndMaxRow) {
  Matrix m{{1, 5, 3}, {9, 2, 9}};
  EXPECT_EQ(ArgMaxRow(m, 0), 1);
  EXPECT_DOUBLE_EQ(MaxRow(m, 0), 5);
  EXPECT_EQ(ArgMaxRow(m, 1), 0);  // first of ties
}

TEST(OpsTest, TopKRowOrdering) {
  Matrix m{{0.1, 0.9, 0.5, 0.7}};
  auto top = TopKRow(m, 0, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1);
  EXPECT_EQ(top[1], 3);
  EXPECT_EQ(top[2], 2);
}

TEST(OpsTest, TopKClampsToWidth) {
  Matrix m{{1.0, 2.0}};
  EXPECT_EQ(TopKRow(m, 0, 10).size(), 2u);
}

TEST(OpsTest, TopKRowMatchesSortReference) {
  Rng rng(21);
  // Duplicated values (coarse quantization) exercise the tie rule: equal
  // values rank by ascending column index.
  Matrix m(6, 200);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = std::floor(rng.Uniform(0.0, 8.0));
  }
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k : {1, 3, 10, 199, 200}) {
      std::vector<int64_t> ref(m.cols());
      for (int64_t c = 0; c < m.cols(); ++c) ref[c] = c;
      std::sort(ref.begin(), ref.end(), [&](int64_t a, int64_t b) {
        return m(r, a) != m(r, b) ? m(r, a) > m(r, b) : a < b;
      });
      ref.resize(k);
      EXPECT_EQ(TopKRow(m, r, k), ref) << "row " << r << " k " << k;
    }
  }
}

TEST(OpsTest, TanhIntoInPlace) {
  Rng rng(22);
  Matrix a = Matrix::Gaussian(9, 13, &rng, 2.0);
  Matrix expected;
  TanhInto(a, &expected);
  Matrix inplace = a;
  TanhInto(inplace, &inplace);
  EXPECT_LT(Matrix::MaxAbsDiff(inplace, expected), 1e-15);
}

TEST(OpsTest, RankInRow) {
  Matrix m{{0.1, 0.9, 0.5, 0.7}};
  EXPECT_EQ(RankInRow(m, 0, 1), 1);
  EXPECT_EQ(RankInRow(m, 0, 3), 2);
  EXPECT_EQ(RankInRow(m, 0, 2), 3);
  EXPECT_EQ(RankInRow(m, 0, 0), 4);
}

TEST(OpsTest, RankInRowTiesUseMidRank) {
  // A constant row must NOT rank everything first (that would let a
  // degenerate all-ties alignment matrix score Success@1 = 1).
  Matrix m{{0.5, 0.5, 0.5}};
  EXPECT_EQ(RankInRow(m, 0, 1), 2);  // 1 + 0 greater + 2/2 equal
  Matrix wide(1, 101, 0.0);
  EXPECT_EQ(RankInRow(wide, 0, 50), 51);  // ~middle of the row
}

TEST(OpsTest, ConcatCols) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5}, {6}};
  Matrix c = ConcatCols({&a, &b});
  EXPECT_EQ(c.cols(), 3);
  EXPECT_DOUBLE_EQ(c(0, 2), 5);
  EXPECT_DOUBLE_EQ(c(1, 0), 3);
}

}  // namespace
}  // namespace galign
