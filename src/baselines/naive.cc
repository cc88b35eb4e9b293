#include "baselines/naive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include "graph/ann/ann.h"
#include "la/ops.h"

namespace galign {

namespace {

// The degree-similarity kernel shared by every DegreeRank path. One
// expression, so the retrieval route below produces bitwise-identical
// scores (and therefore identical ties) to the dense scan.
inline double DegreeScore(double dv, double du) {
  const double denom = std::max(1.0, std::max(dv, du));
  return 1.0 - std::fabs(dv - du) / denom;
}

Status CheckAttributePair(const AttributedGraph& source,
                          const AttributedGraph& target) {
  if (source.num_nodes() == 0 || target.num_nodes() == 0) {
    return Status::InvalidArgument("empty network");
  }
  if (source.num_attributes() != target.num_attributes()) {
    return Status::InvalidArgument("attribute dimensions differ");
  }
  return Status::OK();
}

// Cosine over attribute rows is the inner product of row-normalized
// attributes: a one-layer embedding, so the dense and top-k read-outs ride
// the same blocked GEMM filler (and the ANN index above the threshold).
std::vector<Matrix> UnitRowLayer(const Matrix& attributes) {
  std::vector<Matrix> layer(1, attributes);
  layer[0].NormalizeRows();
  return layer;
}

// Exact sublinear DegreeRank retrieval: the score is monotone on both
// sides of du == dv (non-increasing as du walks away from dv), so the
// top-k of a row is contained in a contiguous band of the degree-sorted
// target list. Targets are grouped by degree; groups are consumed in
// descending score order by a two-sided merge, and every group tied with
// the k-th best score is included so TopKSelect can settle ties by lowest
// id — making the output identical to the O(n1 * n2) chunked scan.
// Worst case (many groups tied, e.g. isolated query nodes scoring 0
// against everything) degrades to O(n2) for that row, the exact cost the
// dense path always pays.
Result<TopKAlignment> DegreeTopK(const AttributedGraph& source,
                                 const AttributedGraph& target, int64_t k,
                                 const RunContext& ctx) {
  if (k <= 0) {
    return Status::InvalidArgument("DegreeTopK: k must be > 0");
  }
  const int64_t n1 = source.num_nodes();
  const int64_t n2 = target.num_nodes();
  k = std::min(k, n2);

  TopKAlignment out;
  out.rows = n1;
  out.cols = n2;
  out.k = k;
  MemoryScope scope;
  GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
      ctx.budget(),
      TopKOutputBytes(n1, k) + static_cast<uint64_t>(n2) * 3 * sizeof(int64_t),
      "degree top-k retrieval", &scope));
  try {
    out.index.assign(static_cast<size_t>(n1) * k, -1);
    out.score.assign(static_cast<size_t>(n1) * k,
                     -std::numeric_limits<double>::infinity());
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("DegreeTopK: output does not fit");
  }
  if (k == 0) {
    out.rows_computed = n1;
    return out;
  }

  // Degree-sorted target ids (ascending id within equal degree) and the
  // group structure over them.
  std::vector<std::pair<int64_t, int64_t>> by_deg(static_cast<size_t>(n2));
  for (int64_t u = 0; u < n2; ++u) by_deg[u] = {target.Degree(u), u};
  std::sort(by_deg.begin(), by_deg.end());
  std::vector<int64_t> gstart;  // index of each group's first entry
  for (int64_t i = 0; i < n2; ++i) {
    if (i == 0 || by_deg[i].first != by_deg[i - 1].first) gstart.push_back(i);
  }
  gstart.push_back(n2);
  const int64_t groups = static_cast<int64_t>(gstart.size()) - 1;

  std::vector<int64_t> cand;
  std::vector<double> scores;
  std::vector<int64_t> sel(static_cast<size_t>(k));
  constexpr int64_t kPollRows = 256;
  for (int64_t v = 0; v < n1; ++v) {
    if ((v % kPollRows) == 0 && ctx.ShouldStop()) break;
    const double dv = static_cast<double>(source.Degree(v));
    // First group with degree >= dv.
    int64_t lo = 0, hi = groups;
    while (lo < hi) {
      const int64_t mid = (lo + hi) / 2;
      if (static_cast<double>(by_deg[gstart[mid]].first) < dv) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    int64_t left = lo - 1, right = lo;
    cand.clear();
    int64_t count = 0;
    double threshold = 0.0;
    bool have_threshold = false;
    auto group_score = [&](int64_t g) {
      return DegreeScore(dv, static_cast<double>(by_deg[gstart[g]].first));
    };
    while (left >= 0 || right < groups) {
      const double sl = left >= 0 ? group_score(left) : -1.0;
      const double sr = right < groups ? group_score(right) : -1.0;
      const double s = std::max(sl, sr);
      if (have_threshold && s < threshold) break;
      const int64_t g = sr >= sl ? right : left;
      for (int64_t i = gstart[g]; i < gstart[g + 1]; ++i) {
        cand.push_back(by_deg[i].second);
      }
      count += gstart[g + 1] - gstart[g];
      if (sr >= sl) {
        ++right;
      } else {
        --left;
      }
      if (!have_threshold && count >= k) {
        threshold = s;  // the k-th best score lives in this group
        have_threshold = true;
      }
    }
    std::sort(cand.begin(), cand.end());
    scores.resize(cand.size());
    for (size_t c = 0; c < cand.size(); ++c) {
      scores[c] = DegreeScore(
          dv, static_cast<double>(target.Degree(cand[c])));
    }
    TopKSelect(scores.data(), static_cast<int64_t>(cand.size()), k,
               sel.data(), &out.score[v * k]);
    for (int64_t j = 0; j < k; ++j) {
      out.index[v * k + j] =
          sel[static_cast<size_t>(j)] >= 0
              ? cand[static_cast<size_t>(sel[static_cast<size_t>(j)])]
              : -1;
    }
    out.rows_computed = v + 1;
  }
  return out;
}

}  // namespace

Result<Matrix> DegreeRankAligner::Align(const AttributedGraph& source,
                                        const AttributedGraph& target,
                                        const Supervision& supervision,
                                        const RunContext& ctx) {
  (void)supervision;
  if (source.num_nodes() == 0 || target.num_nodes() == 0) {
    return Status::InvalidArgument("empty network");
  }
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));
  Matrix s(source.num_nodes(), target.num_nodes());
  for (int64_t v = 0; v < source.num_nodes(); ++v) {
    double dv = static_cast<double>(source.Degree(v));
    for (int64_t u = 0; u < target.num_nodes(); ++u) {
      // Relative-difference kernel keeps hubs comparable with hubs.
      s(v, u) = DegreeScore(dv, static_cast<double>(target.Degree(u)));
    }
  }
  return s;
}

uint64_t DegreeRankAligner::EstimatePeakBytes(int64_t n_source,
                                              int64_t n_target,
                                              int64_t dims) const {
  // One result matrix plus the (adapter) top-k copy; no iterate/scratch.
  return 2 * DenseBytes(n_source, n_target) +
         DenseBytes(n_source + n_target, dims);
}

Result<TopKAlignment> DegreeRankAligner::AlignTopK(
    const AttributedGraph& source, const AttributedGraph& target,
    const Supervision& supervision, const RunContext& ctx, int64_t k) {
  (void)supervision;
  if (source.num_nodes() == 0 || target.num_nodes() == 0) {
    return Status::InvalidArgument("empty network");
  }
  const int64_t n1 = source.num_nodes();
  const int64_t n2 = target.num_nodes();
  // The degree kernel admits *exact* sublinear retrieval (no recall loss),
  // so the routed path answers from the degree-sorted group structure in
  // O(k log k) per row; kOff keeps the O(n1 * n2) chunked scan.
  if (ShouldUseAnn(ann_policy_, n1, n2)) {
    return DegreeTopK(source, target, k, ctx);
  }
  auto block_rows = BudgetedBlockRows(n1, k, DenseBytes(1, n2), ctx);
  GALIGN_RETURN_NOT_OK(block_rows.status());
  auto fill = [&](int64_t r0, int64_t nrows, Matrix* block) -> Status {
    for (int64_t i = 0; i < nrows; ++i) {
      double dv = static_cast<double>(source.Degree(r0 + i));
      for (int64_t u = 0; u < n2; ++u) {
        double du = static_cast<double>(target.Degree(u));
        (*block)(i, u) = DegreeScore(dv, du);
      }
    }
    return Status::OK();
  };
  return ChunkedTopK(n1, n2, k, block_rows.ValueOrDie(), fill, ctx);
}

Result<Matrix> AttributeOnlyAligner::Align(const AttributedGraph& source,
                                           const AttributedGraph& target,
                                           const Supervision& supervision,
                                           const RunContext& ctx) {
  (void)supervision;
  GALIGN_RETURN_NOT_OK(CheckAttributePair(source, target));
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));
  return AggregateAlignment(UnitRowLayer(source.attributes()),
                            UnitRowLayer(target.attributes()), {1.0});
}

uint64_t AttributeOnlyAligner::EstimatePeakBytes(int64_t n_source,
                                                 int64_t n_target,
                                                 int64_t dims) const {
  return 2 * DenseBytes(n_source, n_target) +
         DenseBytes(n_source + n_target, dims);
}

Result<TopKAlignment> AttributeOnlyAligner::AlignTopK(
    const AttributedGraph& source, const AttributedGraph& target,
    const Supervision& supervision, const RunContext& ctx, int64_t k) {
  (void)supervision;
  GALIGN_RETURN_NOT_OK(CheckAttributePair(source, target));
  const int64_t d = source.num_attributes();
  MemoryScope norm_scope;
  GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
      ctx.budget(),
      DenseBytes(source.num_nodes(), d) + DenseBytes(target.num_nodes(), d),
      "attribute normalization", &norm_scope));
  return EmbeddingTopK(UnitRowLayer(source.attributes()),
                       UnitRowLayer(target.attributes()), {1.0}, k,
                       ann_policy_, ctx);
}

Result<Matrix> RandomAligner::Align(const AttributedGraph& source,
                                    const AttributedGraph& target,
                                    const Supervision& supervision,
                                    const RunContext& ctx) {
  (void)supervision;
  if (source.num_nodes() == 0 || target.num_nodes() == 0) {
    return Status::InvalidArgument("empty network");
  }
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));
  Rng rng(seed_);
  return Matrix::Uniform(source.num_nodes(), target.num_nodes(), &rng);
}

}  // namespace galign
