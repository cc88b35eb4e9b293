#include "align/metrics.h"

#include <algorithm>
#include <sstream>

#include "la/ops.h"

namespace galign {

std::string AlignmentMetrics::ToString() const {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << "MAP=" << map << " AUC=" << auc
     << " S@1=" << success_at_1 << " S@5=" << success_at_5
     << " S@10=" << success_at_10 << " anchors=" << num_anchors
     << " time=" << seconds << "s";
  return os.str();
}

namespace {

// What the per-anchor fold sums: every metric is decided by the rank of the
// true target, counted over the anchors that were scored.
struct Accumulated {
  double s1 = 0, s5 = 0, s10 = 0, sq = 0, mrr = 0, auc = 0;
  int64_t count = 0;

  AlignmentMetrics Metrics() const {
    AlignmentMetrics m;
    m.num_anchors = count;
    if (count == 0) return m;
    const double n = static_cast<double>(count);
    m.success_at_1 = s1 / n;
    m.success_at_5 = s5 / n;
    m.success_at_10 = s10 / n;
    m.map = mrr / n;
    m.auc = auc / n;
    return m;
  }
};

// The one per-anchor fold: ranks rank_of(v, t) for every anchor v -> t with
// t a column and v one of the first `rows` rows (t == -1 is skipped);
// `sq` counts the ranks within q.
template <typename RankOf>
Accumulated Fold(int64_t rows, int64_t cols,
                 const std::vector<int64_t>& ground_truth,
                 const RankOf& rank_of, int64_t q = 1) {
  Accumulated acc;
  const double negatives = static_cast<double>(cols - 1);
  for (size_t v = 0; v < ground_truth.size(); ++v) {
    const int64_t t = ground_truth[v];
    if (t < 0 || t >= cols || static_cast<int64_t>(v) >= rows) continue;
    const int64_t rank = rank_of(static_cast<int64_t>(v), t);
    if (rank <= 1) acc.s1 += 1;
    if (rank <= 5) acc.s5 += 1;
    if (rank <= 10) acc.s10 += 1;
    if (rank <= q) acc.sq += 1;
    acc.mrr += 1.0 / static_cast<double>(rank);
    if (negatives > 0) {
      acc.auc += (negatives + 1.0 - static_cast<double>(rank)) / negatives;
    } else {
      acc.auc += 1.0;
    }
    ++acc.count;
  }
  return acc;
}

Accumulated FoldDense(const Matrix& s, const std::vector<int64_t>& ground_truth,
                      int64_t q = 1) {
  return Fold(
      s.rows(), s.cols(), ground_truth,
      [&](int64_t v, int64_t t) { return RankInRow(s, v, t); }, q);
}

}  // namespace

double SuccessAtQ(const Matrix& s, const std::vector<int64_t>& ground_truth,
                  int64_t q) {
  const Accumulated acc = FoldDense(s, ground_truth, q);
  return acc.count == 0 ? 0.0 : acc.sq / static_cast<double>(acc.count);
}

double MeanAveragePrecision(const Matrix& s,
                            const std::vector<int64_t>& ground_truth) {
  return FoldDense(s, ground_truth).Metrics().map;
}

double Auc(const Matrix& s, const std::vector<int64_t>& ground_truth) {
  return FoldDense(s, ground_truth).Metrics().auc;
}

AlignmentMetrics ComputeMetrics(const Matrix& s,
                                const std::vector<int64_t>& ground_truth) {
  return FoldDense(s, ground_truth).Metrics();
}

AlignmentMetrics ComputeMetricsTopK(const TopKAlignment& s,
                                    const std::vector<int64_t>& ground_truth) {
  return Fold(s.rows_computed, s.cols, ground_truth,
              [&](int64_t v, int64_t t) {
                const int64_t rank = s.RankOf(v, t);
                return rank < 0 ? s.cols : rank;  // outside top-k: worst rank
              })
      .Metrics();
}

PrecisionRecall EvaluateThreshold(const Matrix& s,
                                  const std::vector<int64_t>& ground_truth,
                                  double threshold) {
  PrecisionRecall out;
  int64_t true_positive = 0, predicted = 0, actual = 0;
  for (int64_t v = 0; v < s.rows(); ++v) {
    int64_t gt = v < static_cast<int64_t>(ground_truth.size())
                     ? ground_truth[v]
                     : -1;
    if (gt >= 0 && gt < s.cols()) ++actual;
    const double* row = s.row_data(v);
    for (int64_t u = 0; u < s.cols(); ++u) {
      if (row[u] > threshold) {
        ++predicted;
        if (u == gt) ++true_positive;
      }
    }
  }
  out.predicted = predicted;
  out.precision = predicted == 0
                      ? 0.0
                      : static_cast<double>(true_positive) / predicted;
  out.recall =
      actual == 0 ? 0.0 : static_cast<double>(true_positive) / actual;
  out.f1 = (out.precision + out.recall) > 0.0
               ? 2.0 * out.precision * out.recall /
                     (out.precision + out.recall)
               : 0.0;
  return out;
}

PrecisionRecall BestF1(const Matrix& s,
                       const std::vector<int64_t>& ground_truth,
                       int num_thresholds) {
  double lo = s.data()[0], hi = s.data()[0];
  for (int64_t i = 0; i < s.size(); ++i) {
    lo = std::min(lo, s.data()[i]);
    hi = std::max(hi, s.data()[i]);
  }
  PrecisionRecall best;
  for (int t = 0; t < num_thresholds; ++t) {
    double threshold =
        lo + (hi - lo) * (static_cast<double>(t) + 0.5) / num_thresholds;
    PrecisionRecall pr = EvaluateThreshold(s, ground_truth, threshold);
    if (pr.f1 > best.f1) best = pr;
  }
  return best;
}

}  // namespace galign
