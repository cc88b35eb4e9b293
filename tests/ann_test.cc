// Unit tests for the ANN retrieval layer (DESIGN.md §11): the LSH index's
// construction/query contracts, determinism, truncation under cancellation,
// budget admission, the recipe codec, the concat reduction, and the
// routing policy. The recall *property* (measured recall >= target on
// generated workloads) lives in ann_recall_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/ann/ann.h"
#include "graph/ann/ann_index.h"
#include "graph/ann/ann_io.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"

namespace galign {
namespace {

Matrix UnitRows(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix m = Matrix::Gaussian(n, d, &rng);
  m.NormalizeRows();
  return m;
}

TEST(AnnIndexTest, SelfQueryRecoversSelfTop1) {
  // Querying the indexed rows themselves: every unit row's best inner
  // product is itself (similarity 1), a retrieval-sanity floor the index
  // must clear on a small index.
  const Matrix base = UnitRows(200, 16, 7);
  auto index = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.ValueOrDie()->size(), 200);
  EXPECT_EQ(index.ValueOrDie()->dim(), 16);
  EXPECT_FALSE(index.ValueOrDie()->truncated());
  EXPECT_GT(index.ValueOrDie()->MemoryBytes(), 0u);
  auto topk = index.ValueOrDie()->QueryBatch(base, 5);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  const TopKAlignment& a = topk.ValueOrDie();
  EXPECT_EQ(a.rows_computed, 200);
  int hits = 0;
  for (int64_t v = 0; v < a.rows; ++v) {
    if (a.Top1(v) == v) ++hits;
    // Scores descend within each row; indices stay in range.
    for (int64_t j = 0; j < a.k; ++j) {
      EXPECT_LT(a.index[v * a.k + j], 200);
      if (j > 0 && a.index[v * a.k + j] >= 0) {
        EXPECT_LE(a.score[v * a.k + j], a.score[v * a.k + j - 1]);
      }
    }
  }
  EXPECT_EQ(hits, 200);
}

TEST(AnnIndexTest, DeterministicAcrossRebuilds) {
  const Matrix base = UnitRows(150, 12, 11);
  const Matrix queries = UnitRows(40, 12, 13);
  auto i1 = BuildAnnIndex(base, AnnConfig(), RunContext());
  auto i2 = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(i1.ok() && i2.ok());
  auto r1 = i1.ValueOrDie()->QueryBatch(queries, 7);
  auto r2 = i2.ValueOrDie()->QueryBatch(queries, 7);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.ValueOrDie().index, r2.ValueOrDie().index);
  EXPECT_EQ(r1.ValueOrDie().score, r2.ValueOrDie().score);
}

TEST(AnnIndexTest, KLargerThanIndexClampsWithPadding) {
  const Matrix base = UnitRows(6, 8, 3);
  const Matrix queries = UnitRows(4, 8, 5);
  auto index = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok());
  auto topk = index.ValueOrDie()->QueryBatch(queries, 50);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  const TopKAlignment& a = topk.ValueOrDie();
  EXPECT_LE(a.k, 6);
  for (int64_t i = 0; i < a.rows * a.k; ++i) {
    EXPECT_GE(a.index[i], -1);
    EXPECT_LT(a.index[i], 6);
  }
}

TEST(AnnIndexTest, EmptyBaseAndEmptyQueriesStayClean) {
  auto index = BuildAnnIndex(Matrix(0, 8), AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.ValueOrDie()->size(), 0);
  auto topk = index.ValueOrDie()->QueryBatch(UnitRows(3, 8, 1), 4);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk.ValueOrDie().rows_computed, 3);
  for (int64_t idx : topk.ValueOrDie().index) EXPECT_EQ(idx, -1);

  auto full = BuildAnnIndex(UnitRows(5, 8, 2), AnnConfig(), RunContext());
  ASSERT_TRUE(full.ok());
  auto none = full.ValueOrDie()->QueryBatch(Matrix(0, 8), 4);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.ValueOrDie().rows, 0);
}

TEST(AnnIndexTest, CancelledBuildYieldsTruncatedButServingIndex) {
  CancelToken token;
  token.Cancel();
  RunContext ctx = RunContext().SetToken(token);
  const Matrix base = UnitRows(100, 8, 17);
  auto index = BuildAnnIndex(base, AnnConfig(), ctx);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE(index.ValueOrDie()->truncated());
  EXPECT_LT(index.ValueOrDie()->size(), 100);
  // The truncated index still answers over the inserted prefix.
  auto topk = index.ValueOrDie()->QueryBatch(UnitRows(5, 8, 19), 3);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
}

TEST(AnnIndexTest, CancelledQueryWindsDownWithPartialRows) {
  const Matrix base = UnitRows(300, 8, 23);
  const Matrix queries = UnitRows(600, 8, 29);
  auto index = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok());
  CancelToken token;
  token.Cancel();
  RunContext ctx = RunContext().SetToken(token);
  auto topk = index.ValueOrDie()->QueryBatch(queries, 3, ctx);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  const TopKAlignment& a = topk.ValueOrDie();
  EXPECT_EQ(a.rows_computed, 0);
  for (int64_t idx : a.index) EXPECT_EQ(idx, -1);
}

TEST(AnnIndexTest, TinyBudgetIsRefusedCleanly) {
  const Matrix base = UnitRows(4096, 32, 31);
  RunContext ctx = RunContext::WithMemoryBudget(16 << 10);
  auto index = BuildAnnIndex(base, AnnConfig(), ctx);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kResourceExhausted);
}

TEST(AnnIndexTest, EstimateCoversActualFootprint) {
  const Matrix base = UnitRows(2000, 16, 37);
  auto index = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok());
  EXPECT_LE(index.ValueOrDie()->MemoryBytes(),
            EstimateAnnIndexBytes(2000, 16));
}

TEST(AnnConfigTest, EffectiveLshBitsAutoAndClamp) {
  EXPECT_EQ(EffectiveLshBits(0), 4);      // floor
  EXPECT_EQ(EffectiveLshBits(16), 4);     // 2^4 = 16
  EXPECT_EQ(EffectiveLshBits(17), 5);
  EXPECT_EQ(EffectiveLshBits(1 << 20), 20);  // cap
}

TEST(AnnPolicyTest, ShouldUseAnnRespectsModeAndThreshold) {
  AnnPolicy policy;
  policy.min_rows = 100;
  policy.mode = AnnMode::kOff;
  EXPECT_FALSE(ShouldUseAnn(policy, 1000, 1000));
  policy.mode = AnnMode::kOn;
  EXPECT_TRUE(ShouldUseAnn(policy, 10, 10));
  EXPECT_FALSE(ShouldUseAnn(policy, 0, 10));
  policy.mode = AnnMode::kAuto;
  EXPECT_FALSE(ShouldUseAnn(policy, 99, 1000));
  EXPECT_FALSE(ShouldUseAnn(policy, 1000, 99));
  EXPECT_TRUE(ShouldUseAnn(policy, 100, 100));
}

TEST(AnnPolicyTest, EffortScalesWithRecallTarget) {
  AnnPolicy policy;
  policy.config.lsh_probes = 10;
  policy.recall_target = 0.98;
  EXPECT_EQ(EffortScaledConfig(policy).lsh_probes, 10);
  policy.recall_target = 0.995;
  EXPECT_EQ(EffortScaledConfig(policy).lsh_probes, 20);
  policy.recall_target = 0.999;
  EXPECT_EQ(EffortScaledConfig(policy).lsh_probes, 30);
}

TEST(AnnConcatTest, ConcatLayerRowsScalesQuerySideOnly) {
  Matrix a(3, 2);
  Matrix b(3, 1);
  for (int64_t r = 0; r < 3; ++r) {
    a(r, 0) = r + 1;
    a(r, 1) = 2 * (r + 1);
    b(r, 0) = 10.0 * (r + 1);
  }
  std::vector<double> scale = {0.5, 2.0};
  auto out = ConcatLayerRows({a, b}, &scale, nullptr);
  ASSERT_TRUE(out.ok());
  const Matrix& m = out.ValueOrDie();
  ASSERT_EQ(m.rows(), 3);
  ASSERT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.5 * 2.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 2.0 * 20.0);
  auto unscaled = ConcatLayerRows({a, b}, nullptr, nullptr);
  ASSERT_TRUE(unscaled.ok());
  EXPECT_DOUBLE_EQ(unscaled.ValueOrDie()(2, 2), 30.0);

  Matrix mismatched(2, 2);
  EXPECT_FALSE(ConcatLayerRows({a, mismatched}, nullptr, nullptr).ok());
  EXPECT_FALSE(ConcatLayerRows({}, nullptr, nullptr).ok());
}

TEST(AnnEmbeddingTest, MatchesChunkedContractOnMultiOrderInput) {
  // Two-layer multi-order input with non-uniform theta: the ANN route must
  // produce the same shape/ordering contract as ChunkedEmbeddingTopK and —
  // at full search effort on a small problem — the same top-1 matches.
  std::vector<Matrix> hs = {UnitRows(120, 8, 41), UnitRows(120, 8, 43)};
  std::vector<Matrix> ht = {UnitRows(90, 8, 47), UnitRows(90, 8, 53)};
  const std::vector<double> theta = {0.7, 0.3};
  auto exact = ChunkedEmbeddingTopK(hs, ht, theta, 5, RunContext());
  ASSERT_TRUE(exact.ok());
  AnnPolicy policy;
  policy.mode = AnnMode::kOn;
  // Exhaustive effort on a toy problem: probe everything.
  policy.config.lsh_probes = 1 << 10;
  auto ann = AnnEmbeddingTopK(hs, ht, theta, 5, policy, RunContext());
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  const TopKAlignment& a = ann.ValueOrDie();
  const TopKAlignment& e = exact.ValueOrDie();
  EXPECT_EQ(a.rows, e.rows);
  EXPECT_EQ(a.cols, e.cols);
  EXPECT_EQ(a.k, e.k);
  int top1_matches = 0;
  for (int64_t v = 0; v < a.rows; ++v) {
    if (a.Top1(v) == e.Top1(v)) ++top1_matches;
  }
  EXPECT_GE(top1_matches, 114);  // >= 95% at exhaustive effort
}

TEST(AnnEmbeddingTest, RejectsMalformedInput) {
  AnnPolicy policy;
  policy.mode = AnnMode::kOn;
  std::vector<Matrix> hs = {UnitRows(10, 4, 1)};
  std::vector<Matrix> ht = {UnitRows(8, 4, 2)};
  EXPECT_FALSE(AnnEmbeddingTopK(hs, ht, {1.0, 2.0}, 3, policy, RunContext())
                   .ok());  // theta size mismatch
  EXPECT_FALSE(AnnEmbeddingTopK({}, {}, {}, 3, policy, RunContext()).ok());
  EXPECT_FALSE(AnnEmbeddingTopK(hs, ht, {1.0}, 0, policy, RunContext()).ok());
  std::vector<Matrix> ht_wrong_dim = {UnitRows(8, 6, 2)};
  EXPECT_FALSE(
      AnnEmbeddingTopK(hs, ht_wrong_dim, {1.0}, 3, policy, RunContext()).ok());
}

// Replaces the whole line starting with `key ` in a recipe payload.
std::string WithLine(std::string recipe, const std::string& key,
                     const std::string& line) {
  const size_t at = recipe.find("\n" + key + " ");
  EXPECT_NE(at, std::string::npos) << key;
  const size_t end = recipe.find('\n', at + 1);
  return recipe.replace(at + 1, end - at - 1, line);
}

TEST(AnnRecipeTest, RebuildAcceptsTheV1LayoutAndRejectsOtherIndexes) {
  const Matrix base = UnitRows(40, 8, 59);
  auto built = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(built.ok());
  const AnnIndex& index = *built.ValueOrDie();
  const std::string recipe = SerializeAnnRecipe(index, AnnConfig());

  // The v1 layout byte for byte: the fixed backend / table / bit lines and
  // the legacy HNSW knobs keep artifacts identical to earlier builds.
  char fp[16];
  std::snprintf(fp, sizeof(fp), "%08x", AnnIndexFingerprint(index));
  EXPECT_EQ(recipe,
            "galign-ann-recipe-v1\n"
            "backend lsh\n"
            "seed 42\n"
            "lsh_tables 8\n"
            "lsh_bits 0\n"
            "lsh_probes 16\n"
            "hnsw_degree 12\n"
            "hnsw_ef_construction 96\n"
            "hnsw_ef_search 96\n"
            "rows 40\n"
            "dim 8\n"
            "fingerprint " + std::string(fp) + "\n"
            "end\n");

  struct Row {
    const char* what;
    std::string payload;
    const char* error;  // substring of the IOError, nullptr = must load
  };
  const Row rows[] = {
      {"retired backend", WithLine(recipe, "backend", "backend hnsw"),
       "HNSW backend was retired"},
      {"huge table count",
       WithLine(recipe, "lsh_tables", "lsh_tables 100000000000"),
       "lsh_tables = 100000000000"},
      {"explicit bit width", WithLine(recipe, "lsh_bits", "lsh_bits 6"),
       "lsh_bits = 6"},
      {"old recipe at a tighter recall target",
       WithLine(recipe, "hnsw_ef_search", "hnsw_ef_search 192"), nullptr},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    if (row.error == nullptr) {
      auto got = RebuildAnnIndex(row.payload, base, RunContext(), "test");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(AnnIndexFingerprint(*got.ValueOrDie()),
                AnnIndexFingerprint(index));
      continue;
    }
    // A 1-byte budget: a rejection that reached the index build would come
    // back ResourceExhausted, so IOError proves nothing was allocated.
    auto got = RebuildAnnIndex(row.payload, base,
                               RunContext::WithMemoryBudget(1), "test");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kIOError);
    EXPECT_NE(got.status().message().find(row.error), std::string::npos)
        << got.status().ToString();
  }
}

}  // namespace
}  // namespace galign
