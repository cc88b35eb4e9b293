#include "baselines/netalign.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "la/ops.h"

namespace galign {

namespace {

// Key for the candidate hash: (source node, target node).
inline int64_t PairKey(int64_t i, int64_t j, int64_t n2) { return i * n2 + j; }

}  // namespace

Result<Matrix> NetAlignAligner::Align(const AttributedGraph& source,
                                      const AttributedGraph& target,
                                      const Supervision& supervision,
                                      const RunContext& ctx) {
  const int64_t n1 = source.num_nodes();
  const int64_t n2 = target.num_nodes();
  if (n1 == 0 || n2 == 0) {
    return Status::InvalidArgument("empty network");
  }
  if (config_.candidates_per_node < 1) {
    return Status::InvalidArgument("candidates_per_node must be >= 1");
  }
  GALIGN_RETURN_NOT_OK(ValidateSeeds(supervision.seeds, n1, n2));
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));

  // Candidate recall decides everything downstream, so the prior always
  // includes attribute similarity; seeds boost their pair instead of
  // flattening the rest of the row.
  Matrix prior = AttributePrior(source, target);
  for (const auto& [s, t] : supervision.seeds) prior(s, t) += 1.0;

  // --- Candidate generation: top-k prior entries per source node, plus
  // every seed pair, plus square-closure expansion from the seeds (pairs of
  // neighbours of existing candidates — NetAlign's "sparse L" grown along
  // plausible overlapped edges).
  struct Candidate {
    int64_t i, j;
    double w;
  };
  std::vector<Candidate> cands;
  std::unordered_map<int64_t, int64_t> cand_index;  // PairKey -> index
  auto add_candidate = [&](int64_t i, int64_t j, double w) {
    int64_t key = PairKey(i, j, n2);
    if (cand_index.emplace(key, static_cast<int64_t>(cands.size())).second) {
      cands.push_back({i, j, w});
    }
  };
  const int64_t k = std::min<int64_t>(config_.candidates_per_node, n2);
  for (int64_t i = 0; i < n1; ++i) {
    for (int64_t j : TopKRow(prior, i, k)) {
      add_candidate(i, j, prior(i, j));
    }
  }
  for (const auto& [s, t] : supervision.seeds) {
    add_candidate(s, t, prior(s, t));
  }
  // Square-closure expansion: two rounds of proposing neighbour pairs of
  // current candidates, capped per source row.
  std::vector<int64_t> row_count(n1, 0);
  for (const Candidate& c : cands) row_count[c.i]++;
  const int64_t row_cap = 2 * k;
  size_t frontier_begin = 0;
  for (int round = 0; round < 2; ++round) {
    const size_t frontier_end = cands.size();
    for (size_t c = frontier_begin; c < frontier_end; ++c) {
      const int64_t ci = cands[c].i, cj = cands[c].j;
      for (int64_t i2 : source.Neighbors(ci)) {
        if (row_count[i2] >= row_cap) continue;
        for (int64_t j2 : target.Neighbors(cj)) {
          if (row_count[i2] >= row_cap) break;
          int64_t key = PairKey(i2, j2, n2);
          if (cand_index.emplace(key, static_cast<int64_t>(cands.size()))
                  .second) {
            cands.push_back({i2, j2, prior(i2, j2)});
            row_count[i2]++;
          }
        }
      }
    }
    frontier_begin = frontier_end;
  }
  const int64_t m = static_cast<int64_t>(cands.size());

  // --- Square enumeration: candidate c' = (i', j') supports c = (i, j)
  // when (i,i') in E_s and (j,j') in E_t.
  std::vector<std::vector<int64_t>> squares(m);
  for (int64_t c = 0; c < m; ++c) {
    for (int64_t i2 : source.Neighbors(cands[c].i)) {
      for (int64_t j2 : target.Neighbors(cands[c].j)) {
        auto it = cand_index.find(PairKey(i2, j2, n2));
        if (it != cand_index.end()) squares[c].push_back(it->second);
      }
    }
  }

  // --- Competitive max-product iterations. Beliefs start at the prior
  // reward; each round adds clamped square support and subtracts the
  // strongest same-row / same-column competitor (the matching constraint).
  std::vector<double> belief(m), raw(m);
  for (int64_t c = 0; c < m; ++c) {
    belief[c] = config_.alpha * cands[c].w;
    // Also seed `raw` so a run stopped before its first iteration emits the
    // prior-weighted candidates instead of an all-zero score set.
    raw[c] = belief[c];
  }

  std::vector<double> row_best(n1), row_second(n1);
  std::vector<double> col_best(n2), col_second(n2);
  const double kNegInf = -1e300;
  for (int iter = 0; iter < config_.iterations; ++iter) {
    if (ctx.ShouldStop()) break;  // best-so-far beliefs
    for (int64_t c = 0; c < m; ++c) {
      double support = 0.0;
      for (int64_t c2 : squares[c]) {
        support += std::clamp(belief[c2], 0.0, config_.beta);
      }
      raw[c] = config_.alpha * cands[c].w + support;
    }
    // Strongest and second-strongest raw score per row and column (the
    // second value provides the correct competitor for the best entry).
    std::fill(row_best.begin(), row_best.end(), kNegInf);
    std::fill(row_second.begin(), row_second.end(), kNegInf);
    std::fill(col_best.begin(), col_best.end(), kNegInf);
    std::fill(col_second.begin(), col_second.end(), kNegInf);
    for (int64_t c = 0; c < m; ++c) {
      double v = raw[c];
      int64_t i = cands[c].i, j = cands[c].j;
      if (v > row_best[i]) {
        row_second[i] = row_best[i];
        row_best[i] = v;
      } else if (v > row_second[i]) {
        row_second[i] = v;
      }
      if (v > col_best[j]) {
        col_second[j] = col_best[j];
        col_best[j] = v;
      } else if (v > col_second[j]) {
        col_second[j] = v;
      }
    }
    for (int64_t c = 0; c < m; ++c) {
      int64_t i = cands[c].i, j = cands[c].j;
      double row_comp = raw[c] == row_best[i] ? row_second[i] : row_best[i];
      double col_comp = raw[c] == col_best[j] ? col_second[j] : col_best[j];
      double competitor = std::max(row_comp, col_comp);
      if (competitor <= kNegInf) competitor = 0.0;  // no competition
      double updated = raw[c] - std::max(0.0, competitor);
      belief[c] = config_.damping * belief[c] +
                  (1.0 - config_.damping) * updated;
    }
  }

  // --- Emit the score matrix: candidates carry their final raw score
  // (shifted positive); everything else sits strictly below them.
  double min_raw = 0.0, max_raw = 0.0;
  for (int64_t c = 0; c < m; ++c) {
    min_raw = std::min(min_raw, raw[c]);
    max_raw = std::max(max_raw, raw[c]);
  }
  const double floor_score = min_raw - 1.0 - 1e-3 * (max_raw - min_raw);
  Matrix s(n1, n2, floor_score);
  for (int64_t c = 0; c < m; ++c) {
    s(cands[c].i, cands[c].j) = raw[c];
  }
  if (!s.AllFinite()) {
    return Status::Internal("NetAlign produced non-finite scores");
  }
  return s;
}

}  // namespace galign
