#include "core/refinement.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "graph/ann/ann.h"
#include "graph/similarity_chunked.h"

namespace galign {

namespace {

// Per-layer argmax record of Eq. 13: every source row's best target and
// every target column's best source, layer by layer. Strict `>` keeps the
// first maximum, so observing pairs in ascending ids breaks ties toward
// the lower id.
struct LayerArgmax {
  LayerArgmax(size_t layers, int64_t n1, int64_t n2)
      : row_arg(layers, std::vector<int64_t>(n1, -1)),
        row_max(layers, std::vector<double>(n1, -1e300)),
        col_arg(layers, std::vector<int64_t>(n2, -1)),
        col_max(layers, std::vector<double>(n2, -1e300)) {}

  void Observe(size_t l, int64_t v, int64_t u, double s) {
    if (s > row_max[l][v]) {
      row_max[l][v] = s;
      row_arg[l][v] = u;
    }
    if (s > col_max[l][u]) {
      col_max[l][u] = s;
      col_arg[l][u] = v;
    }
  }

  // Stability (Eq. 13) is evaluated over the GCN layers l >= 1. The raw
  // attribute layer H^(0) is excluded from the argmax-consistency check:
  // with low-dimensional categorical attributes many nodes share identical
  // attribute rows, making the layer-0 argmax a tie-break lottery that
  // would mark every node unstable. A node never observed is not stable.
  void StableSets(double lambda, StabilityScan* out) const {
    const size_t first = row_arg.size() > 1 ? 1 : 0;
    auto collect = [&](const std::vector<std::vector<int64_t>>& arg,
                       const std::vector<std::vector<double>>& max,
                       std::vector<int64_t>* stable) {
      for (size_t x = 0; x < arg[first].size(); ++x) {
        bool ok = arg[first][x] >= 0;
        for (size_t l = first; l < arg.size() && ok; ++l) {
          ok = arg[l][x] == arg[first][x] && max[l][x] > lambda;
        }
        if (ok) stable->push_back(static_cast<int64_t>(x));
      }
    };
    collect(row_arg, row_max, &out->stable_source);
    collect(col_arg, col_max, &out->stable_target);
  }

  std::vector<std::vector<int64_t>> row_arg;
  std::vector<std::vector<double>> row_max;
  std::vector<std::vector<int64_t>> col_arg;
  std::vector<std::vector<double>> col_max;
};

}  // namespace

StabilityScan ScanStability(const std::vector<Matrix>& hs,
                            const std::vector<Matrix>& ht,
                            const std::vector<double>& theta, double lambda) {
  GALIGN_DCHECK(hs.size() == ht.size() && hs.size() == theta.size());
  const int64_t n1 = hs[0].rows();
  const int64_t n2 = ht[0].rows();
  LayerArgmax argmax(hs.size(), n1, n2);
  auto observe = [&](size_t l, int64_t r0, const Matrix& block) {
    for (int64_t i = 0; i < block.rows(); ++i) {
      const double* p = block.row_data(i);
      for (int64_t u = 0; u < n2; ++u) argmax.Observe(l, r0 + i, u, p[u]);
    }
  };
  // Blocks run serially (the GEMMs inside fan out across the pool), which
  // is what lets the column maxima be shared across blocks.
  const TopKAlignment top1 =
      ChunkedTopK(n1, n2, /*k=*/1, kScanBlockRows,
                  MultiOrderBlockFiller(hs, ht, theta, observe))
          .MoveValueOrDie();

  StabilityScan out;
  argmax.StableSets(lambda, &out);
  if (top1.k == 1) {
    for (int64_t v = 0; v < n1; ++v) out.aggregate_score += top1.score[v];
  }
  return out;
}

Result<StabilityScan> ScanStabilityCandidates(const std::vector<Matrix>& hs,
                                              const std::vector<Matrix>& ht,
                                              const std::vector<double>& theta,
                                              double lambda,
                                              const AnnPolicy& policy,
                                              const RunContext& ctx) {
  GALIGN_DCHECK(hs.size() == ht.size() && hs.size() == theta.size());
  const size_t layers = hs.size();
  const int64_t n2 = ht[0].rows();
  const int64_t kc =
      std::max<int64_t>(1, std::min(policy.refine_candidates, n2));

  auto cand = AnnEmbeddingTopK(hs, ht, theta, kc, policy, ctx);
  GALIGN_RETURN_NOT_OK(cand.status());
  const TopKAlignment& topk = cand.ValueOrDie();

  LayerArgmax argmax(layers, hs[0].rows(), n2);
  StabilityScan out;
  std::vector<int64_t> cands;
  cands.reserve(static_cast<size_t>(topk.k));
  for (int64_t v = 0; v < topk.rows_computed; ++v) {
    cands.clear();
    for (int64_t j = 0; j < topk.k; ++j) {
      const int64_t u = topk.index[v * topk.k + j];
      if (u >= 0) cands.push_back(u);
    }
    // Ascending ids so the argmax record breaks ties exactly like the
    // exact scan (first maximum wins).
    std::sort(cands.begin(), cands.end());
    double agg_max = -1e300;
    for (const int64_t u : cands) {
      double agg = 0.0;
      for (size_t l = 0; l < layers; ++l) {
        double s = 0.0;
        const double* a = hs[l].row_data(v);
        const double* b = ht[l].row_data(u);
        for (int64_t c = 0; c < hs[l].cols(); ++c) s += a[c] * b[c];
        argmax.Observe(l, v, u, s);
        if (theta[l] != 0.0) agg += theta[l] * s;
      }
      if (agg > agg_max) agg_max = agg;
    }
    if (!cands.empty()) out.aggregate_score += agg_max;
  }
  argmax.StableSets(lambda, &out);
  return out;
}

Result<RefinementResult> RefineAlignment(const MultiOrderGcn& gcn,
                                         const AttributedGraph& source,
                                         const AttributedGraph& target,
                                         const GAlignConfig& config,
                                         const RunContext& ctx,
                                         bool materialize,
                                         const AnnPolicy* ann) {
  const std::vector<double> theta = config.EffectiveLayerWeights();
  if (theta.size() != gcn.weights().size() + 1) {
    return Status::InvalidArgument("layer weights do not match GCN depth");
  }
  // Candidate-pair scan when the policy admits the problem size; the exact
  // chunked pass otherwise (and as the fallback when an iteration's index
  // cannot be built, e.g. under a tight memory budget).
  auto scan_stability = [&](const std::vector<Matrix>& s_layers,
                            const std::vector<Matrix>& t_layers) {
    if (ann != nullptr &&
        ShouldUseAnn(*ann, s_layers[0].rows(), t_layers[0].rows())) {
      auto approx =
          ScanStabilityCandidates(s_layers, t_layers, theta,
                                  config.stability_threshold, *ann, ctx);
      if (approx.ok()) return approx.MoveValueOrDie();
    }
    return ScanStability(s_layers, t_layers, theta,
                         config.stability_threshold);
  };

  std::vector<double> alpha_s(source.num_nodes(), 1.0);
  std::vector<double> alpha_t(target.num_nodes(), 1.0);

  // The paper's AGG_w weights node t by alpha(t) * deg(t)^{-1/2}. Written
  // as D_q = D̂ Q (Eq. 15) that requires Q(v, v) = alpha(v)^{-2}: the
  // propagation entry becomes (deg alpha^{-2})^{-1/2} = alpha * g. (Taking
  // Q = diag(alpha) literally would dampen stable nodes instead of
  // amplifying them.)
  auto influence_to_q = [](const std::vector<double>& alpha) {
    std::vector<double> q(alpha.size());
    for (size_t i = 0; i < alpha.size(); ++i) q[i] = 1.0 / (alpha[i] * alpha[i]);
    return q;
  };

  auto embed = [&](const std::vector<double>& as,
                   const std::vector<double>& at,
                   std::vector<Matrix>* hs,
                   std::vector<Matrix>* ht) -> Status {
    auto ls = source.NormalizedAdjacency(influence_to_q(as));
    GALIGN_RETURN_NOT_OK(ls.status());
    auto lt = target.NormalizedAdjacency(influence_to_q(at));
    GALIGN_RETURN_NOT_OK(lt.status());
    *hs = gcn.ForwardInference(ls.ValueOrDie(), source.attributes());
    *ht = gcn.ForwardInference(lt.ValueOrDie(), target.attributes());
    return Status::OK();
  };

  std::vector<Matrix> hs, ht;
  GALIGN_RETURN_NOT_OK(embed(alpha_s, alpha_t, &hs, &ht));

  RefinementResult result;
  StabilityScan scan = scan_stability(hs, ht);
  result.best_score = scan.aggregate_score;
  result.best_iteration = 0;
  result.score_history.push_back(scan.aggregate_score);
  std::vector<Matrix> best_hs = hs, best_ht = ht;

  result.report.converged = config.refinement_tolerance <= 0.0;
  for (int iter = 1; iter <= config.refinement_iterations; ++iter) {
    if (ctx.ShouldStop()) {
      // Deadline/cancellation: the best iterate so far is already tracked
      // in best_hs/best_ht — degrade to it rather than erroring out.
      result.report.degraded = true;
      result.report.converged = false;
      break;
    }
    // Eq. 14: amplify the influence of the nodes found stable.
    for (int64_t v : scan.stable_source) {
      alpha_s[v] *= config.accumulation_factor;
    }
    for (int64_t u : scan.stable_target) {
      alpha_t[u] *= config.accumulation_factor;
    }
    // Eq. 15: re-embed under the influence-scaled propagation matrix.
    GALIGN_RETURN_NOT_OK(embed(alpha_s, alpha_t, &hs, &ht));
    // Influence factors compound geometrically (beta^iter); on large stable
    // sets the propagation entries can overflow. Detect it here and fall
    // back to the best finite iterate instead of emitting NaN embeddings.
    bool finite = true;
    for (const Matrix& h : hs) finite &= h.AllFinite();
    for (const Matrix& h : ht) finite &= h.AllFinite();
    if (!finite) {
      result.report.degraded = true;
      result.report.converged = false;
      GALIGN_LOG(Warning)
          << "RefineAlignment: non-finite embeddings at iteration " << iter
          << " (influence overflow); degrading to best iterate "
          << result.best_iteration;
      break;
    }
    scan = scan_stability(hs, ht);
    result.score_history.push_back(scan.aggregate_score);
    const double prev = result.score_history[result.score_history.size() - 2];
    const double improvement =
        std::fabs(scan.aggregate_score - prev) /
        std::max(1.0, std::fabs(prev));
    result.report.iterations = iter;
    result.report.residual = improvement;
    if (scan.aggregate_score > result.best_score) {
      result.best_score = scan.aggregate_score;
      result.best_iteration = iter;
      best_hs = hs;
      best_ht = ht;
    }
    if (config.refinement_tolerance > 0.0 &&
        improvement < config.refinement_tolerance) {
      result.report.converged = true;
      break;
    }
  }

  if (materialize) {
    result.alignment = AggregateAlignment(best_hs, best_ht, theta);
  }
  result.source_embeddings = std::move(best_hs);
  result.target_embeddings = std::move(best_ht);
  return result;
}

}  // namespace galign
