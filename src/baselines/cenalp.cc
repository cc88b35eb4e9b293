#include "baselines/cenalp.h"

#include <algorithm>

#include "la/ops.h"

namespace galign {

Result<Matrix> CenalpAligner::Align(const AttributedGraph& source,
                                    const AttributedGraph& target,
                                    const Supervision& supervision,
                                    const RunContext& ctx) {
  const int64_t n1 = source.num_nodes();
  const int64_t n2 = target.num_nodes();
  if (n1 == 0 || n2 == 0) {
    return Status::InvalidArgument("empty network");
  }
  GALIGN_RETURN_NOT_OK(ValidateSeeds(supervision.seeds, n1, n2));
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));
  Rng rng(config_.seed);

  // anchors[v] = matched target node or -1.
  std::vector<int64_t> anchors(n1, -1);
  for (const auto& [s, t] : supervision.seeds) anchors[s] = t;
  if (supervision.seeds.empty()) {
    // Bootstrap: pair the highest-degree nodes of each side by rank.
    std::vector<int64_t> by_deg_s(n1), by_deg_t(n2);
    for (int64_t v = 0; v < n1; ++v) by_deg_s[v] = v;
    for (int64_t v = 0; v < n2; ++v) by_deg_t[v] = v;
    std::sort(by_deg_s.begin(), by_deg_s.end(), [&](int64_t a, int64_t b) {
      return source.Degree(a) > source.Degree(b);
    });
    std::sort(by_deg_t.begin(), by_deg_t.end(), [&](int64_t a, int64_t b) {
      return target.Degree(a) > target.Degree(b);
    });
    int64_t k = std::max<int64_t>(1, std::min(n1, n2) / 100);
    for (int64_t i = 0; i < k; ++i) anchors[by_deg_s[i]] = by_deg_t[i];
  }

  const int64_t vocab = n1 + n2;
  Matrix s_matrix;
  for (int round = 0; round <= config_.expansion_rounds; ++round) {
    // Best-so-far under a deadline: keep the score matrix of the last
    // completed round; if none completed yet, run round 0 regardless so an
    // expired context still yields a valid (cheapest) alignment.
    if (ctx.ShouldStop() && !s_matrix.empty()) break;
    auto walks =
        CrossNetworkWalks(source, target, anchors, config_.walks, &rng);
    SkipGramConfig sg = config_.skipgram;
    sg.seed = config_.skipgram.seed + static_cast<uint64_t>(round);
    Matrix emb = TrainSkipGram(walks, vocab, sg);

    // Source rows are tokens [0, n1); target node v' uses token n1+v' unless
    // it is anchored (merged token). For scoring, anchored targets reuse the
    // shared token embedding.
    std::vector<int64_t> reverse(n2, -1);
    for (int64_t v = 0; v < n1; ++v) {
      if (anchors[v] != -1) reverse[anchors[v]] = v;
    }
    Matrix zs = emb.Block(0, 0, n1, emb.cols());
    Matrix zt(n2, emb.cols());
    for (int64_t v = 0; v < n2; ++v) {
      int64_t token = reverse[v] != -1 ? reverse[v] : n1 + v;
      std::copy(emb.row_data(token), emb.row_data(token) + emb.cols(),
                zt.row_data(v));
    }
    s_matrix = MatMulTransposedB(zs, zt);

    if (round == config_.expansion_rounds) break;

    // Anchor expansion: promote the most confident mutual-best pairs.
    std::vector<int64_t> best_t(n1), best_s(n2, -1);
    std::vector<double> best_t_score(n1);
    for (int64_t v = 0; v < n1; ++v) {
      best_t[v] = ArgMaxRow(s_matrix, v);
      best_t_score[v] = s_matrix(v, best_t[v]);
    }
    std::vector<double> col_best(n2, -1e300);
    for (int64_t v = 0; v < n1; ++v) {
      for (int64_t u = 0; u < n2; ++u) {
        if (s_matrix(v, u) > col_best[u]) {
          col_best[u] = s_matrix(v, u);
          best_s[u] = v;
        }
      }
    }
    std::vector<std::pair<double, int64_t>> candidates;
    for (int64_t v = 0; v < n1; ++v) {
      if (anchors[v] != -1) continue;
      int64_t u = best_t[v];
      if (best_s[u] == v) candidates.emplace_back(best_t_score[v], v);
    }
    std::sort(candidates.rbegin(), candidates.rend());
    int64_t budget = std::max<int64_t>(
        1, static_cast<int64_t>(config_.expansion_fraction * n1));
    std::vector<bool> target_taken(n2, false);
    for (int64_t v = 0; v < n1; ++v) {
      if (anchors[v] != -1) target_taken[anchors[v]] = true;
    }
    for (const auto& [score, v] : candidates) {
      if (budget == 0) break;
      int64_t u = best_t[v];
      if (target_taken[u]) continue;
      anchors[v] = u;
      target_taken[u] = true;
      --budget;
    }
  }
  if (!s_matrix.AllFinite()) {
    return Status::Internal("CENALP produced non-finite scores");
  }
  return s_matrix;
}

}  // namespace galign
