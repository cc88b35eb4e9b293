#include "align/alignment.h"

#include <algorithm>
#include <queue>

#include "la/ops.h"

namespace galign {

uint64_t Aligner::EstimatePeakBytes(int64_t n_source, int64_t n_target,
                                    int64_t dims) const {
  // Generic dense-method bound: a handful of simultaneously-live
  // n_source x n_target matrices (prior, iterate, scratch, result) plus the
  // attribute inputs. Methods with a heavier or lighter footprint override.
  return 4 * DenseBytes(n_source, n_target) +
         DenseBytes(n_source + n_target, dims);
}

Result<TopKAlignment> Aligner::AlignTopK(const AttributedGraph& source,
                                         const AttributedGraph& target,
                                         const Supervision& supervision,
                                         const RunContext& ctx, int64_t k) {
  // Fallback adapter: no memory savings over Align() — methods with a
  // genuinely row-blocked kernel override this.
  auto dense = Align(source, target, supervision, ctx);
  GALIGN_RETURN_NOT_OK(dense.status());
  return TopKFromDense(dense.ValueOrDie(), k);
}

Status ReserveAlignerBudget(const Aligner& aligner,
                            const AttributedGraph& source,
                            const AttributedGraph& target,
                            const RunContext& ctx, MemoryScope* scope) {
  if (!ctx.HasMemoryLimit()) return Status::OK();
  const uint64_t estimate = aligner.EstimatePeakBytes(
      source.num_nodes(), target.num_nodes(), source.attributes().cols());
  return MemoryScope::Reserve(ctx.budget(), estimate,
                              aligner.name() + " admission", scope);
}

std::vector<int64_t> Top1Anchors(const Matrix& s) {
  std::vector<int64_t> anchors(s.rows());
  for (int64_t r = 0; r < s.rows(); ++r) {
    anchors[r] = ArgMaxRow(s, r);
  }
  return anchors;
}

std::vector<int64_t> GreedyOneToOneAnchors(const Matrix& s) {
  struct Entry {
    double value;
    int64_t row;
    int64_t col;
    bool operator<(const Entry& o) const { return value < o.value; }
  };
  // Seed the heap with each row's best candidate; on pop, if the column was
  // taken, push the row's next-best remaining candidate.
  const int64_t n1 = s.rows(), n2 = s.cols();
  std::vector<int64_t> anchors(n1, -1);
  std::vector<bool> col_used(n2, false);
  std::vector<std::vector<int64_t>> row_order(n1);
  std::vector<int64_t> row_pos(n1, 0);
  std::priority_queue<Entry> heap;
  for (int64_t r = 0; r < n1; ++r) {
    row_order[r] = TopKRow(s, r, n2);
    heap.push({s(r, row_order[r][0]), r, row_order[r][0]});
  }
  int64_t assigned = 0;
  const int64_t max_assign = std::min(n1, n2);
  while (!heap.empty() && assigned < max_assign) {
    Entry e = heap.top();
    heap.pop();
    if (anchors[e.row] != -1) continue;
    if (col_used[e.col]) {
      int64_t& pos = row_pos[e.row];
      while (pos + 1 < static_cast<int64_t>(row_order[e.row].size())) {
        ++pos;
        int64_t c = row_order[e.row][pos];
        if (!col_used[c]) {
          heap.push({s(e.row, c), e.row, c});
          break;
        }
      }
      continue;
    }
    anchors[e.row] = e.col;
    col_used[e.col] = true;
    ++assigned;
  }
  return anchors;
}

std::vector<std::vector<int64_t>> TopKAnchors(const Matrix& s, int64_t k) {
  std::vector<std::vector<int64_t>> out(s.rows());
  for (int64_t r = 0; r < s.rows(); ++r) {
    out[r] = TopKRow(s, r, k);
  }
  return out;
}

std::vector<std::vector<int64_t>> AnchorsAboveThreshold(const Matrix& s,
                                                        double threshold) {
  std::vector<std::vector<int64_t>> out(s.rows());
  for (int64_t r = 0; r < s.rows(); ++r) {
    std::vector<int64_t> candidates;
    const double* row = s.row_data(r);
    for (int64_t c = 0; c < s.cols(); ++c) {
      if (row[c] > threshold) candidates.push_back(c);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](int64_t a, int64_t b) { return row[a] > row[b]; });
    out[r] = std::move(candidates);
  }
  return out;
}

Supervision SampleSeeds(const std::vector<int64_t>& ground_truth,
                        double fraction, Rng* rng) {
  std::vector<int64_t> sources;
  for (size_t v = 0; v < ground_truth.size(); ++v) {
    if (ground_truth[v] != -1) sources.push_back(static_cast<int64_t>(v));
  }
  int64_t k = static_cast<int64_t>(fraction * static_cast<double>(sources.size()));
  rng->Shuffle(&sources);
  Supervision sup;
  for (int64_t i = 0; i < k; ++i) {
    sup.seeds.emplace_back(sources[i], ground_truth[sources[i]]);
  }
  return sup;
}

Status ValidateSeeds(const std::vector<std::pair<int64_t, int64_t>>& seeds,
                     int64_t n1, int64_t n2) {
  for (const auto& [s, t] : seeds) {
    if (s < 0 || s >= n1 || t < 0 || t >= n2) {
      return Status::InvalidArgument(
          "seed anchor out of range: (" + std::to_string(s) + ", " +
          std::to_string(t) + ") with " + std::to_string(n1) +
          " source and " + std::to_string(n2) + " target nodes");
    }
  }
  return Status::OK();
}

Matrix PriorFromSeeds(int64_t n1, int64_t n2, const Supervision& supervision) {
  Matrix h(n1, n2, 1.0 / static_cast<double>(n2));
  for (const auto& [s, t] : supervision.seeds) {
    for (int64_t c = 0; c < n2; ++c) h(s, c) = 0.0;
    h(s, t) = 1.0;
  }
  return h;
}

Matrix AttributePrior(const AttributedGraph& source,
                      const AttributedGraph& target) {
  const Matrix& fs = source.attributes();
  const Matrix& ft = target.attributes();
  Matrix n(source.num_nodes(), target.num_nodes());
  if (fs.cols() != ft.cols()) {
    // Incomparable modalities: fall back to a uniform prior.
    n.Fill(1.0 / static_cast<double>(std::max<int64_t>(1, target.num_nodes())));
    return n;
  }
  for (int64_t i = 0; i < n.rows(); ++i) {
    for (int64_t j = 0; j < n.cols(); ++j) {
      n(i, j) = std::max(0.0, RowCosine(fs, i, ft, j));
    }
  }
  // Row-normalize so the prior is a soft assignment.
  for (int64_t i = 0; i < n.rows(); ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < n.cols(); ++j) sum += n(i, j);
    if (sum > 1e-12) {
      for (int64_t j = 0; j < n.cols(); ++j) n(i, j) /= sum;
    } else {
      for (int64_t j = 0; j < n.cols(); ++j) {
        n(i, j) = 1.0 / static_cast<double>(n.cols());
      }
    }
  }
  return n;
}

}  // namespace galign
