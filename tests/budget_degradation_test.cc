// End-to-end budget governance (DESIGN.md §9):
//  - the pipeline degrades GAlign/REGAL to the chunked top-k path when the
//    dense run does not fit, with peak tracked bytes under the cap and
//    Success@1 within tolerance of the unbudgeted run;
//  - an unbudgeted context changes nothing;
//  - the MemoryTracker gauge agrees with an independent shadow count of
//    every matrix allocation across a full GAlign train+refine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "align/pipeline.h"
#include "baselines/regal.h"
#include "core/galign.h"
#include "graph/generators.h"
#include "graph/noise.h"

namespace galign {
namespace {

AlignmentPair SmallWorkload(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto g = ErdosRenyi(n, 6.0 / static_cast<double>(n), &rng,
                      BinaryAttributes(n, 8, 0.3, &rng))
               .MoveValueOrDie();
  NoisyCopyOptions opts;
  opts.structural_noise = 0.05;
  opts.attribute_noise = 0.05;
  return MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
}

GAlignConfig SmallGAlign() {
  GAlignConfig cfg;
  cfg.epochs = 5;
  cfg.embedding_dim = 8;
  cfg.refinement_iterations = 2;
  return cfg;
}

TEST(BudgetDegradationTest, GAlignDegradesAndStaysAccurate) {
  AlignmentPair pair = SmallWorkload(300, 21);

  GAlignAligner baseline(SmallGAlign());
  Rng rng1(7);
  RunResult dense = RunAligner(&baseline, pair, 0.0, &rng1);
  ASSERT_TRUE(dense.status.ok()) << dense.status.ToString();
  EXPECT_FALSE(dense.degraded_chunked);

  // A budget below the dense estimate but above the chunked working set.
  GAlignAligner budgeted(SmallGAlign());
  const uint64_t dense_estimate = budgeted.EstimatePeakBytes(
      pair.source.num_nodes(), pair.target.num_nodes(),
      pair.source.attributes().cols());
  const uint64_t cap = dense_estimate - DenseBytes(pair.source.num_nodes(),
                                                   pair.target.num_nodes()) /
                                            2;
  ASSERT_LT(cap, dense_estimate);
  RunContext ctx = RunContext::WithMemoryBudget(cap);
  Rng rng2(7);
  RunResult degraded = RunAligner(&budgeted, pair, 0.0, &rng2, ctx);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_TRUE(degraded.degraded_chunked);
  EXPECT_EQ(degraded.budget_bytes, cap);
  EXPECT_LE(degraded.peak_alloc_bytes, cap);
  EXPECT_GT(degraded.peak_alloc_bytes, 0u);

  // Same seed, same training: the compressed ranking must agree with the
  // dense one (2% tolerance covers tie-ordering differences).
  EXPECT_NEAR(degraded.metrics.success_at_1, dense.metrics.success_at_1, 0.02);
  EXPECT_NEAR(degraded.metrics.success_at_10, dense.metrics.success_at_10,
              0.02);
}

TEST(BudgetDegradationTest, GAlignTopKEqualsDenseTopKBitForBit) {
  // Below the ANN threshold the degraded read-out ranks the same refined
  // embeddings through the same block filler as Align's dense aggregation,
  // so indices and scores agree exactly, not within a tolerance.
  AlignmentPair pair = SmallWorkload(300, 22);
  ASSERT_LT(pair.source.num_nodes(), AnnPolicy().min_rows);
  GAlignAligner dense_aligner(SmallGAlign());
  auto dense = dense_aligner.Align(pair.source, pair.target, {});
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  GAlignAligner topk_aligner(SmallGAlign());
  auto topk =
      topk_aligner.AlignTopK(pair.source, pair.target, {}, RunContext(), 10);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  TopKAlignment expect = TopKFromDense(dense.ValueOrDie(), 10);
  EXPECT_EQ(topk.ValueOrDie().index, expect.index);
  EXPECT_EQ(topk.ValueOrDie().score, expect.score);
}

TEST(BudgetDegradationTest, RegalDegradesAndStaysAccurate) {
  AlignmentPair pair = SmallWorkload(300, 22);

  RegalAligner baseline;
  Rng rng1(9);
  RunResult dense = RunAligner(&baseline, pair, 0.0, &rng1);
  ASSERT_TRUE(dense.status.ok()) << dense.status.ToString();

  RegalAligner budgeted;
  const uint64_t dense_estimate = budgeted.EstimatePeakBytes(
      pair.source.num_nodes(), pair.target.num_nodes(),
      pair.source.attributes().cols());
  const uint64_t cap =
      dense_estimate -
      DenseBytes(pair.source.num_nodes(), pair.target.num_nodes());
  RunContext ctx = RunContext::WithMemoryBudget(cap);
  Rng rng2(9);
  RunResult degraded = RunAligner(&budgeted, pair, 0.0, &rng2, ctx);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_TRUE(degraded.degraded_chunked);
  EXPECT_LE(degraded.peak_alloc_bytes, cap);
  EXPECT_NEAR(degraded.metrics.success_at_1, dense.metrics.success_at_1, 0.02);
}

TEST(BudgetDegradationTest, NoBudgetMeansNoBehaviorChange) {
  AlignmentPair pair = SmallWorkload(60, 23);
  GAlignAligner a1(SmallGAlign());
  GAlignAligner a2(SmallGAlign());
  Rng rng1(3), rng2(3);
  RunResult unbounded = RunAligner(&a1, pair, 0.0, &rng1);
  RunResult plain = RunAligner(&a2, pair, 0.0, &rng2, RunContext());
  ASSERT_TRUE(unbounded.status.ok());
  ASSERT_TRUE(plain.status.ok());
  EXPECT_FALSE(unbounded.degraded_chunked);
  EXPECT_FALSE(plain.degraded_chunked);
  EXPECT_EQ(unbounded.budget_bytes, 0u);
  EXPECT_DOUBLE_EQ(unbounded.metrics.success_at_1, plain.metrics.success_at_1);
  EXPECT_DOUBLE_EQ(unbounded.metrics.map, plain.metrics.map);
}

TEST(BudgetDegradationTest, ImpossibleBudgetFailsCleanly) {
  AlignmentPair pair = SmallWorkload(80, 24);
  GAlignAligner a(SmallGAlign());
  RunContext ctx = RunContext::WithMemoryBudget(1024);  // 1 KiB: hopeless
  Rng rng(5);
  RunResult r = RunAligner(&a, pair, 0.0, &rng, ctx);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(r.degraded_chunked);
}

// --- Shadow-accounting property test --------------------------------------

struct ShadowCounter {
  uint64_t live = 0;
  uint64_t peak = 0;
  int64_t events = 0;
};

void ShadowTrace(int64_t delta, uint64_t live_after, void* user) {
  auto* s = static_cast<ShadowCounter*>(user);
  (void)delta;
  s->live = live_after;
  s->peak = std::max(s->peak, live_after);
  ++s->events;
}

TEST(BudgetDegradationTest, TrackerAgreesWithShadowCount) {
  AlignmentPair pair = SmallWorkload(80, 25);

  MemoryTracker::ResetPeak();
  ShadowCounter shadow;
  shadow.live = MemoryTracker::LiveBytes();
  shadow.peak = MemoryTracker::PeakBytes();
  MemoryTracker::SetTrace(&ShadowTrace, &shadow);

  {
    GAlignAligner a(SmallGAlign());
    auto r = a.Align(pair.source, pair.target, Supervision{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  MemoryTracker::SetTrace(nullptr, nullptr);
  EXPECT_GT(shadow.events, 0);
  // Every allocation/free went through the trace, so the shadow's view of
  // live bytes and the peak water mark must equal the tracker gauge.
  EXPECT_EQ(shadow.live, MemoryTracker::LiveBytes());
  EXPECT_EQ(shadow.peak, MemoryTracker::PeakBytes());
  // Training a 3-layer GCN on 80+80 nodes certainly allocated more than the
  // final alignment matrix alone.
  EXPECT_GT(shadow.peak, DenseBytes(80, 80));
}

}  // namespace
}  // namespace galign
