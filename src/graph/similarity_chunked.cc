#include "graph/similarity_chunked.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <utility>

#include "common/logging.h"
#include "la/ops.h"

namespace galign {

namespace {

constexpr double kNoScore = -std::numeric_limits<double>::infinity();

}  // namespace

int64_t TopKAlignment::Top1(int64_t row) const {
  if (row < 0 || row >= rows || k == 0) return -1;
  return index[row * k];
}

int64_t TopKAlignment::RankOf(int64_t row, int64_t col) const {
  if (row < 0 || row >= rows) return -1;
  for (int64_t j = 0; j < k; ++j) {
    if (index[row * k + j] == col) return j + 1;
  }
  return -1;
}

Result<Matrix> TopKAlignment::ToDense(double fill) const {
  auto dense = Matrix::TryCreate(rows, cols, fill);
  GALIGN_RETURN_NOT_OK(dense.status());
  Matrix& m = dense.ValueOrDie();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < k; ++j) {
      const int64_t c = index[r * k + j];
      if (c >= 0) m(r, c) = score[r * k + j];
    }
  }
  return dense;
}

Result<TopKAlignment> ChunkedTopK(int64_t rows, int64_t cols, int64_t k,
                                  int64_t block_rows,
                                  const RowBlockFiller& fill,
                                  const RunContext& ctx) {
  if (rows < 0 || cols < 0 || k <= 0) {
    return Status::InvalidArgument("ChunkedTopK: invalid shape/k");
  }
  k = std::min(k, std::max<int64_t>(cols, 0));
  block_rows = std::max<int64_t>(1, std::min(block_rows, std::max<int64_t>(rows, 1)));

  TopKAlignment out;
  out.rows = rows;
  out.cols = cols;
  out.k = k;
  if (rows == 0 || cols == 0 || k == 0) {
    out.rows_computed = rows;
    out.index.assign(static_cast<size_t>(rows) * k, -1);
    out.score.assign(static_cast<size_t>(rows) * k, kNoScore);
    return out;
  }

  // Admit the transient block buffer and the output against the budget for
  // the duration of the scan.
  MemoryScope scope;
  GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
      ctx.budget(),
      DenseBytes(block_rows, cols) + TopKOutputBytes(rows, k),
      "chunked top-k scan", &scope));

  try {
    out.index.assign(static_cast<size_t>(rows) * k, -1);
    out.score.assign(static_cast<size_t>(rows) * k, kNoScore);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("ChunkedTopK: top-k output of " +
                                     std::to_string(rows) + "x" +
                                     std::to_string(k) + " does not fit");
  }

  auto block = Matrix::TryCreate(block_rows, cols);
  GALIGN_RETURN_NOT_OK(block.status());
  Matrix& buf = block.ValueOrDie();

  for (int64_t r0 = 0; r0 < rows; r0 += block_rows) {
    if (ctx.ShouldStop()) break;  // wind down with the rows finished so far
    const int64_t nrows = std::min(block_rows, rows - r0);
    if (nrows != buf.rows()) buf.Resize(nrows, cols);
    GALIGN_RETURN_NOT_OK(fill(r0, nrows, &buf));
    for (int64_t i = 0; i < nrows; ++i) {
      TopKSelect(buf.row_data(i), cols, k, &out.index[(r0 + i) * k],
                 &out.score[(r0 + i) * k]);
    }
    out.rows_computed = r0 + nrows;
  }
  return out;
}

RowBlockFiller MultiOrderBlockFiller(const std::vector<Matrix>& hs,
                                     const std::vector<Matrix>& ht,
                                     const std::vector<double>& theta,
                                     LayerBlockVisitor visit) {
  // One layer scratch and one source strip, reused across layers and
  // blocks; a block spanning every source row reads hs[l] in place.
  return [&hs, &ht, &theta, visit = std::move(visit), layer = Matrix(),
          strip = Matrix()](int64_t r0, int64_t nrows,
                            Matrix* block) mutable -> Status {
    block->Fill(0.0);
    for (size_t l = 0; l < hs.size(); ++l) {
      if (theta[l] == 0.0 && !visit) continue;
      const Matrix* a = &hs[l];
      if (nrows != hs[l].rows()) {
        strip.Resize(nrows, hs[l].cols());
        std::copy(hs[l].row_data(r0), hs[l].row_data(r0 + nrows),
                  strip.data());
        a = &strip;
      }
      MatMulTransposedBInto(*a, ht[l], &layer);
      if (visit) visit(l, r0, layer);
      if (theta[l] != 0.0) block->Axpy(theta[l], layer);
    }
    return Status::OK();
  };
}

Status CheckLayerStack(const std::vector<Matrix>& hs,
                       const std::vector<Matrix>& ht,
                       const std::vector<double>& theta,
                       const std::string& who) {
  if (hs.size() != ht.size() || hs.size() != theta.size()) {
    return Status::InvalidArgument(who + ": layer count mismatch");
  }
  if (hs.empty()) return Status::InvalidArgument(who + ": no layers");
  for (size_t l = 0; l < hs.size(); ++l) {
    if (hs[l].rows() != hs[0].rows() || ht[l].rows() != ht[0].rows() ||
        hs[l].cols() != ht[l].cols()) {
      return Status::InvalidArgument(
          who + ": inconsistent embedding shapes at layer " +
          std::to_string(l));
    }
  }
  return Status::OK();
}

Matrix AggregateAlignment(const std::vector<Matrix>& hs,
                          const std::vector<Matrix>& ht,
                          const std::vector<double>& theta) {
  GALIGN_DCHECK(hs.size() == ht.size());
  GALIGN_DCHECK(hs.size() == theta.size());
  Matrix s(hs[0].rows(), ht[0].rows());
  MultiOrderBlockFiller(hs, ht, theta)(0, s.rows(), &s).CheckOK();
  return s;
}

Result<TopKAlignment> ChunkedEmbeddingTopK(const std::vector<Matrix>& hs,
                                           const std::vector<Matrix>& ht,
                                           const std::vector<double>& theta,
                                           int64_t k, const RunContext& ctx) {
  GALIGN_RETURN_NOT_OK(
      CheckLayerStack(hs, ht, theta, "ChunkedEmbeddingTopK"));
  const int64_t n1 = hs[0].rows();
  const int64_t n2 = ht[0].rows();
  auto block_rows = BudgetedBlockRows(n1, k, ChunkedRowBytes(n2, hs), ctx);
  GALIGN_RETURN_NOT_OK(block_rows.status());
  return ChunkedTopK(n1, n2, k, block_rows.ValueOrDie(),
                     MultiOrderBlockFiller(hs, ht, theta), ctx);
}

Result<int64_t> BudgetedBlockRows(int64_t rows, int64_t k, uint64_t row_bytes,
                                  const RunContext& ctx) {
  if (!ctx.HasMemoryLimit()) return kScanBlockRows;
  const uint64_t fixed = TopKOutputBytes(rows, k);
  const uint64_t headroom = ctx.budget()->remaining();
  if (headroom <= fixed || row_bytes == 0 ||
      (headroom - fixed) / row_bytes == 0) {
    return Status::ResourceExhausted(
        "chunked scan: even a one-row block plus the top-k output does not "
        "fit the remaining memory budget");
  }
  return static_cast<int64_t>(std::min<uint64_t>(
      kScanBlockRows, (headroom - fixed) / row_bytes));
}

TopKAlignment TopKFromDense(const Matrix& s, int64_t k) {
  TopKAlignment out;
  out.rows = s.rows();
  out.cols = s.cols();
  out.k = std::min<int64_t>(std::max<int64_t>(k, 0), s.cols());
  out.rows_computed = out.rows;
  out.index.assign(static_cast<size_t>(out.rows) * out.k, -1);
  out.score.assign(static_cast<size_t>(out.rows) * out.k, kNoScore);
  if (out.k == 0) return out;
  for (int64_t r = 0; r < out.rows; ++r) {
    TopKSelect(s.row_data(r), s.cols(), out.k, &out.index[r * out.k],
               &out.score[r * out.k]);
  }
  return out;
}

uint64_t ChunkedRowBytes(int64_t cols, const std::vector<Matrix>& hs) {
  uint64_t dims = 0;
  for (const Matrix& h : hs) {
    dims = std::max<uint64_t>(dims, static_cast<uint64_t>(h.cols()));
  }
  return (2 * static_cast<uint64_t>(std::max<int64_t>(cols, 0)) + dims) *
         sizeof(double);
}

uint64_t TopKOutputBytes(int64_t rows, int64_t k) {
  return static_cast<uint64_t>(std::max<int64_t>(rows, 0)) *
         static_cast<uint64_t>(std::max<int64_t>(k, 0)) *
         (sizeof(int64_t) + sizeof(double));
}

}  // namespace galign
