// Unit tests for the resource-governance layer (DESIGN.md §9): budget
// reserve/release accounting, RAII scopes, allocation tracking on Matrix
// storage, Try-creation failure modes, and the row-blocked top-k kernel's
// agreement with the dense path.
#include <gtest/gtest.h>

#include <vector>

#include "common/memory_budget.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"
#include "la/ops.h"
#include "la/sparse.h"

namespace galign {
namespace {

TEST(MemoryBudgetTest, ReserveReleaseAccounting) {
  MemoryBudget b(1000);
  EXPECT_TRUE(b.bounded());
  EXPECT_EQ(b.limit(), 1000u);
  EXPECT_EQ(b.remaining(), 1000u);

  ASSERT_TRUE(b.TryReserve(600, "first").ok());
  EXPECT_EQ(b.reserved(), 600u);
  EXPECT_EQ(b.remaining(), 400u);

  Status st = b.TryReserve(500, "second");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // A failed reserve must not consume headroom.
  EXPECT_EQ(b.reserved(), 600u);

  ASSERT_TRUE(b.TryReserve(400, "fits exactly").ok());
  EXPECT_EQ(b.remaining(), 0u);
  EXPECT_EQ(b.reserved_peak(), 1000u);

  b.Release(600);
  EXPECT_EQ(b.reserved(), 400u);
  b.Release(400);
  EXPECT_EQ(b.reserved(), 0u);
  EXPECT_EQ(b.reserved_peak(), 1000u);  // peak survives releases
}

TEST(MemoryBudgetTest, UnboundedBudgetAdmitsEverything) {
  MemoryBudget b;
  EXPECT_FALSE(b.bounded());
  EXPECT_TRUE(b.TryReserve(uint64_t{1} << 62, "huge").ok());
  EXPECT_TRUE(b.Admit(uint64_t{1} << 62, "huge").ok());
}

TEST(MemoryBudgetTest, AdmitChecksWithoutRecording) {
  MemoryBudget b(100);
  EXPECT_TRUE(b.Admit(80, "probe").ok());
  EXPECT_EQ(b.reserved(), 0u);
  EXPECT_EQ(b.Admit(200, "too big").code(), StatusCode::kResourceExhausted);
}

TEST(MemoryScopeTest, RaiiReleasesOnDestruction) {
  MemoryBudget b(1000);
  {
    MemoryScope scope;
    ASSERT_TRUE(MemoryScope::Reserve(&b, 700, "scoped", &scope).ok());
    EXPECT_TRUE(scope.active());
    EXPECT_EQ(scope.bytes(), 700u);
    EXPECT_EQ(b.reserved(), 700u);
  }
  EXPECT_EQ(b.reserved(), 0u);
}

TEST(MemoryScopeTest, MoveTransfersOwnership) {
  MemoryBudget b(1000);
  MemoryScope outer;
  {
    MemoryScope inner;
    ASSERT_TRUE(MemoryScope::Reserve(&b, 300, "moved", &inner).ok());
    outer = std::move(inner);
    EXPECT_FALSE(inner.active());
  }
  // inner's destruction must not have released the moved reservation.
  EXPECT_EQ(b.reserved(), 300u);
  outer.reset();
  EXPECT_EQ(b.reserved(), 0u);
}

TEST(MemoryScopeTest, GrowExtendsAndFailsCleanly) {
  MemoryBudget b(1000);
  MemoryScope scope;
  ASSERT_TRUE(MemoryScope::Reserve(&b, 400, "base", &scope).ok());
  ASSERT_TRUE(scope.Grow(500, "more").ok());
  EXPECT_EQ(scope.bytes(), 900u);
  EXPECT_EQ(scope.Grow(200, "too much").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scope.bytes(), 900u);  // failed grow leaves the scope unchanged
  scope.reset();
  EXPECT_EQ(b.reserved(), 0u);
}

TEST(MemoryScopeTest, NullBudgetIsNoOp) {
  MemoryScope scope;
  EXPECT_TRUE(MemoryScope::Reserve(nullptr, 1 << 20, "none", &scope).ok());
  EXPECT_FALSE(scope.active());
}

TEST(DenseBytesTest, Basics) {
  EXPECT_EQ(DenseBytes(10, 10), 800u);
  EXPECT_EQ(DenseBytes(0, 10), 0u);
  EXPECT_EQ(DenseBytes(-1, 10), 0u);
  // Overflow saturates rather than wrapping.
  EXPECT_EQ(DenseBytes(int64_t{1} << 62, int64_t{1} << 62),
            MemoryBudget::kUnlimited);
}

TEST(MemoryTrackerTest, MatrixAllocationsAreObserved) {
  const uint64_t before = MemoryTracker::LiveBytes();
  {
    Matrix m(64, 64);
    EXPECT_GE(MemoryTracker::LiveBytes(), before + 64 * 64 * sizeof(double));
  }
  EXPECT_EQ(MemoryTracker::LiveBytes(), before);
}

TEST(TryCreateTest, RejectsNegativeAndOversized) {
  EXPECT_EQ(Matrix::TryCreate(-1, 4).status().code(),
            StatusCode::kInvalidArgument);
  // An absurd extent must come back as a status, not a bad_alloc crash.
  auto r = Matrix::TryCreate(int64_t{1} << 40, int64_t{1} << 40);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(TryCreateTest, BudgetGatesAllocation) {
  MemoryBudget b(1024);
  EXPECT_TRUE(Matrix::TryCreate(8, 8, 0.0, &b).ok());  // 512 bytes
  auto r = Matrix::TryCreate(64, 64, 0.0, &b);         // 32 KiB > 1 KiB
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(TryCreateTest, SparseBudgetGating) {
  MemoryBudget b(256);
  std::vector<Triplet> t;
  for (int64_t i = 0; i < 100; ++i) t.push_back({i, i, 1.0});
  auto r = SparseMatrix::TryCreate(100, 100, t, &b);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(SparseMatrix::TryCreate(100, 100, std::move(t)).ok());
}

TEST(RunContextTest, CarriesBudget) {
  RunContext ctx;
  EXPECT_FALSE(ctx.HasMemoryLimit());
  EXPECT_EQ(ctx.budget(), nullptr);
  RunContext bounded = RunContext::WithMemoryBudget(1 << 20);
  ASSERT_TRUE(bounded.HasMemoryLimit());
  EXPECT_EQ(bounded.budget()->limit(), uint64_t{1} << 20);
}

// --- Chunked top-k kernel --------------------------------------------------

Matrix RandomMatrix(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Uniform(r, c, &rng);
}

TEST(ChunkedTopKTest, MatchesDenseCompression) {
  Matrix s = RandomMatrix(37, 23, 7);
  auto fill = [&](int64_t r0, int64_t nrows, Matrix* block) -> Status {
    for (int64_t i = 0; i < nrows; ++i) {
      for (int64_t c = 0; c < s.cols(); ++c) (*block)(i, c) = s(r0 + i, c);
    }
    return Status::OK();
  };
  for (int64_t block_rows : {1, 5, 37, 64}) {
    auto chunked = ChunkedTopK(s.rows(), s.cols(), 4, block_rows, fill);
    ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
    TopKAlignment dense = TopKFromDense(s, 4);
    EXPECT_EQ(chunked.ValueOrDie().index, dense.index)
        << "block_rows=" << block_rows;
    for (size_t i = 0; i < dense.score.size(); ++i) {
      EXPECT_DOUBLE_EQ(chunked.ValueOrDie().score[i], dense.score[i]);
    }
  }
}

TEST(ChunkedTopKTest, TopKAlignmentAccessors) {
  Matrix s(2, 3);
  s(0, 0) = 1.0; s(0, 1) = 3.0; s(0, 2) = 2.0;
  s(1, 0) = 5.0; s(1, 1) = 4.0; s(1, 2) = 6.0;
  TopKAlignment a = TopKFromDense(s, 2);
  EXPECT_EQ(a.Top1(0), 1);
  EXPECT_EQ(a.Top1(1), 2);
  EXPECT_EQ(a.RankOf(0, 1), 1);
  EXPECT_EQ(a.RankOf(0, 2), 2);
  EXPECT_EQ(a.RankOf(0, 0), -1);  // fell outside top-2
  auto dense = a.ToDense(-1.0);
  ASSERT_TRUE(dense.ok());
  EXPECT_DOUBLE_EQ(dense.ValueOrDie()(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(dense.ValueOrDie()(0, 1), 3.0);
}

TEST(ChunkedTopKTest, EmptyShapes) {
  auto fill = [](int64_t, int64_t, Matrix*) { return Status::OK(); };
  auto empty = ChunkedTopK(0, 5, 3, 8, fill);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.ValueOrDie().rows, 0);
  auto no_cols = ChunkedTopK(5, 0, 3, 8, fill);
  ASSERT_TRUE(no_cols.ok());
  EXPECT_EQ(no_cols.ValueOrDie().k, 0);
}

TEST(ChunkedEmbeddingTopKTest, MatchesDenseAggregation) {
  std::vector<Matrix> hs, ht;
  hs.push_back(RandomMatrix(19, 6, 1));
  hs.push_back(RandomMatrix(19, 4, 2));
  ht.push_back(RandomMatrix(13, 6, 3));
  ht.push_back(RandomMatrix(13, 4, 4));
  std::vector<double> theta = {0.4, 0.6};

  Matrix dense(19, 13);
  for (size_t l = 0; l < hs.size(); ++l) {
    dense.Axpy(theta[l], MatMulTransposedB(hs[l], ht[l]));
  }
  TopKAlignment expect = TopKFromDense(dense, 5);

  // One block, then a budget that affords three rows per block: every
  // block height reproduces the dense top-k in every bit.
  for (const RunContext& ctx :
       {RunContext(), RunContext::WithMemoryBudget(
                          TopKOutputBytes(19, 5) +
                          3 * ChunkedRowBytes(13, hs) + 1)}) {
    auto got = ChunkedEmbeddingTopK(hs, ht, theta, 5, ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.ValueOrDie().index, expect.index);
    EXPECT_EQ(got.ValueOrDie().score, expect.score);
  }
}

TEST(ChunkedEmbeddingTopKTest, RespectsBudgetAndFailsWhenImpossible) {
  std::vector<Matrix> hs{RandomMatrix(40, 8, 5)};
  std::vector<Matrix> ht{RandomMatrix(30, 8, 6)};
  // Generous enough for a few rows per block.
  RunContext ok_ctx = RunContext::WithMemoryBudget(
      TopKOutputBytes(40, 3) + 8 * ChunkedRowBytes(30, hs) + (64 << 10));
  auto ok = ChunkedEmbeddingTopK(hs, ht, {1.0}, 3, ok_ctx);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();

  // Too small for even one block row.
  RunContext tiny_ctx = RunContext::WithMemoryBudget(64);
  auto tiny = ChunkedEmbeddingTopK(hs, ht, {1.0}, 3, tiny_ctx);
  ASSERT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetedBlockRowsTest, DerivesFromHeadroom) {
  RunContext unbounded;
  auto def = BudgetedBlockRows(100, 5, 800, unbounded);
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def.ValueOrDie(), 512);

  RunContext ctx = RunContext::WithMemoryBudget(
      TopKOutputBytes(100, 5) + 10 * 800 + 1);
  auto bounded = BudgetedBlockRows(100, 5, 800, ctx);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded.ValueOrDie(), 10);
}

}  // namespace
}  // namespace galign
