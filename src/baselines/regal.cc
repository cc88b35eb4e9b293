#include "baselines/regal.h"

#include <algorithm>
#include <cmath>

#include "graph/ann/ann.h"
#include "la/ops.h"

namespace galign {

namespace {

// p, the landmark count XNetMfEmbed derives when cfg.num_landmarks == 0.
int64_t EffectiveLandmarks(const XNetMfConfig& cfg, int64_t total_nodes) {
  if (cfg.num_landmarks > 0) return std::min(cfg.num_landmarks, total_nodes);
  if (total_nodes <= 1) return total_nodes;
  return std::min<int64_t>(
      total_nodes,
      static_cast<int64_t>(10.0 * std::log2(static_cast<double>(total_nodes))));
}

}  // namespace

Result<Matrix> RegalAligner::Align(const AttributedGraph& source,
                                   const AttributedGraph& target,
                                   const Supervision& supervision,
                                   const RunContext& ctx) {
  (void)supervision;  // REGAL is unsupervised
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));
  auto embed = XNetMfEmbed(source, target, config_, &ctx);
  GALIGN_RETURN_NOT_OK(embed.status());
  const Matrix& y = embed.ValueOrDie();
  const int64_t n1 = source.num_nodes();
  const int64_t n2 = target.num_nodes();
  Matrix ys = y.Block(0, 0, n1, y.cols());
  Matrix yt = y.Block(n1, 0, n2, y.cols());
  // Rows are unit-normalized by XNetMfEmbed, so this is cosine similarity.
  return MatMulTransposedB(ys, yt);
}

uint64_t RegalAligner::EstimateEmbedBytes(int64_t n_source, int64_t n_target,
                                          int64_t dims) const {
  const int64_t n = n_source + n_target;
  const int64_t p = EffectiveLandmarks(config_, n);
  // Structural feature histograms grow with the largest binned degree; a
  // generous fixed bin count covers any realistic graph.
  const int64_t feat = 64 + dims;
  // Features, node-to-landmark similarity C, embeddings Y (plus the split
  // copies), and the small p x p factorization scratch.
  return DenseBytes(n, feat) + 3 * DenseBytes(n, p) + 4 * DenseBytes(p, p);
}

uint64_t RegalAligner::EstimatePeakBytes(int64_t n_source, int64_t n_target,
                                         int64_t dims) const {
  return EstimateEmbedBytes(n_source, n_target, dims) +
         2 * DenseBytes(n_source, n_target);
}

Result<TopKAlignment> RegalAligner::AlignTopK(const AttributedGraph& source,
                                              const AttributedGraph& target,
                                              const Supervision& supervision,
                                              const RunContext& ctx,
                                              int64_t k) {
  (void)supervision;  // REGAL is unsupervised
  // Admit only the embedding phase — this path never materializes the
  // n1 x n2 cosine matrix the dense estimate includes.
  MemoryScope embed_scope;
  if (ctx.HasMemoryLimit()) {
    GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
        ctx.budget(),
        EstimateEmbedBytes(source.num_nodes(), target.num_nodes(),
                           source.attributes().cols()),
        "REGAL embedding admission", &embed_scope));
  }
  auto embed = XNetMfEmbed(source, target, config_, &ctx);
  GALIGN_RETURN_NOT_OK(embed.status());
  const Matrix& y = embed.ValueOrDie();
  const int64_t n1 = source.num_nodes();
  const int64_t n2 = target.num_nodes();
  std::vector<Matrix> hs, ht;
  hs.push_back(y.Block(0, 0, n1, y.cols()));
  ht.push_back(y.Block(n1, 0, n2, y.cols()));
  // Rows are unit-normalized, so the single-layer inner product is cosine —
  // exactly the metric the ANN backends index.
  return EmbeddingTopK(hs, ht, {1.0}, k, ann_policy_, ctx);
}

}  // namespace galign
