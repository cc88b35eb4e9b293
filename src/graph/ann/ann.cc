#include "graph/ann/ann.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/memory_budget.h"

namespace galign {

bool ShouldUseAnn(const AnnPolicy& policy, int64_t n1, int64_t n2) {
  switch (policy.mode) {
    case AnnMode::kOff:
      return false;
    case AnnMode::kOn:
      return n1 > 0 && n2 > 0;
    case AnnMode::kAuto:
      return n1 >= policy.min_rows && n2 >= policy.min_rows;
  }
  return false;
}

AnnConfig EffortScaledConfig(const AnnPolicy& policy) {
  AnnConfig cfg = policy.config;
  // Search effort grows stepwise with the recall target. The factor-1
  // defaults (dense auto-scaled signatures, 8 tables x 16 probes) already
  // measure ~0.99 recall on the generated workloads the property test
  // pins, so extra effort is reserved for near-exact targets where the
  // candidate set genuinely has to widen.
  int64_t factor = 1;
  if (policy.recall_target > 0.99) factor = 2;
  if (policy.recall_target > 0.995) factor = 3;
  cfg.lsh_probes = std::max<int64_t>(1, cfg.lsh_probes) * factor;
  return cfg;
}

Result<Matrix> ConcatLayerRows(const std::vector<Matrix>& layers,
                               const std::vector<double>* scale,
                               MemoryBudget* budget) {
  if (layers.empty()) {
    return Status::InvalidArgument("ConcatLayerRows: no layers");
  }
  const int64_t n = layers[0].rows();
  int64_t total = 0;
  for (const Matrix& h : layers) {
    if (h.rows() != n) {
      return Status::InvalidArgument("ConcatLayerRows: row count mismatch");
    }
    total += h.cols();
  }
  auto out = Matrix::TryCreate(n, total, 0.0, budget);
  GALIGN_RETURN_NOT_OK(out.status());
  Matrix& m = out.ValueOrDie();
  int64_t col0 = 0;
  for (size_t l = 0; l < layers.size(); ++l) {
    const Matrix& h = layers[l];
    const double s = scale != nullptr ? (*scale)[l] : 1.0;
    const int64_t d = h.cols();
    for (int64_t r = 0; r < n; ++r) {
      double* dst = m.row_data(r) + col0;
      const double* src = h.row_data(r);
      if (s == 1.0) {
        std::memcpy(dst, src, static_cast<size_t>(d) * sizeof(double));
      } else {
        for (int64_t c = 0; c < d; ++c) dst[c] = s * src[c];
      }
    }
    col0 += d;
  }
  return out;
}

Result<TopKAlignment> AnnEmbeddingTopK(const std::vector<Matrix>& hs,
                                       const std::vector<Matrix>& ht,
                                       const std::vector<double>& theta,
                                       int64_t k, const AnnPolicy& policy,
                                       const RunContext& ctx) {
  GALIGN_RETURN_NOT_OK(CheckLayerStack(hs, ht, theta, "AnnEmbeddingTopK"));
  if (k <= 0) {
    return Status::InvalidArgument("AnnEmbeddingTopK: k must be > 0");
  }

  auto base = ConcatLayerRows(ht, /*scale=*/nullptr, ctx.budget());
  GALIGN_RETURN_NOT_OK(base.status());
  auto queries = ConcatLayerRows(hs, &theta, ctx.budget());
  GALIGN_RETURN_NOT_OK(queries.status());

  auto index =
      BuildAnnIndex(base.MoveValueOrDie(), EffortScaledConfig(policy), ctx);
  GALIGN_RETURN_NOT_OK(index.status());
  return index.ValueOrDie()->QueryBatch(queries.ValueOrDie(), k, ctx);
}

Result<TopKAlignment> EmbeddingTopK(const std::vector<Matrix>& hs,
                                    const std::vector<Matrix>& ht,
                                    const std::vector<double>& theta,
                                    int64_t k, const AnnPolicy& policy,
                                    const RunContext& ctx) {
  if (!hs.empty() && !ht.empty() &&
      ShouldUseAnn(policy, hs[0].rows(), ht[0].rows())) {
    return AnnEmbeddingTopK(hs, ht, theta, k, policy, ctx);
  }
  return ChunkedEmbeddingTopK(hs, ht, theta, k, ctx);
}

}  // namespace galign
