// Row-blocked, top-k-streaming similarity computation (DESIGN.md §9).
//
// The dense alignment matrix S = sum_l theta_l H_s^(l) H_t^(l)T is the
// dominant memory cost of every embedding-based aligner: O(n1 * n2) doubles
// that exist only to be ranked row-by-row afterwards. When an n1 x n2
// materialization does not fit the run's MemoryBudget, these kernels
// compute S in row blocks sized to the remaining budget and keep only the
// top-k column indices/scores per row — O(n1 * k) output, O(block * n2)
// transient working set — which is exactly what Success@q, MAP@k, and
// anchor extraction consume. This is the standard implicit-similarity
// answer of the scalable-alignment literature (REGAL's xNetMF, GAlign
// §VI-C's O(n) space argument).
//
// AggregateAlignment, the chunked top-k and the Eq. 13 stability scan all
// fill S through MultiOrderBlockFiller: one accumulation order, so the
// chunked top-k equals TopKFromDense of the dense aggregation bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "la/matrix.h"

namespace galign {

/// \brief Compressed alignment: per source row, the k best target columns.
///
/// Rows beyond `rows_computed` (budget/deadline wind-down) and padding
/// entries within a row hold index -1. Scores are descending per row.
struct TopKAlignment {
  int64_t rows = 0;
  int64_t cols = 0;  ///< width of the implicit dense matrix
  int64_t k = 0;
  /// How many leading rows hold valid entries. Equal to `rows` on a
  /// complete run; smaller when the RunContext stopped the scan early.
  int64_t rows_computed = 0;
  std::vector<int64_t> index;  ///< rows * k, row-major, -1 = empty slot
  std::vector<double> score;   ///< rows * k, descending within a row

  /// Best target for `row` (-1 when the row has no entries).
  int64_t Top1(int64_t row) const;
  /// Rank (1-based) of `col` within the stored entries of `row`, or -1
  /// when the column did not make the row's top-k.
  int64_t RankOf(int64_t row, int64_t col) const;
  /// Materializes the dense matrix with `fill` in unstored cells (tests
  /// and small-scale interop only — this re-creates the O(rows*cols) cost
  /// the chunked path exists to avoid).
  [[nodiscard]] Result<Matrix> ToDense(double fill = 0.0) const;
};

/// Block height of a row-blocked scan that no memory budget constrains.
inline constexpr int64_t kScanBlockRows = 512;

/// Fills `block` (pre-shaped nrows x cols) with similarity rows
/// [row0, row0 + nrows). Returning non-OK aborts the scan.
using RowBlockFiller =
    std::function<Status(int64_t row0, int64_t nrows, Matrix* block)>;

/// Receives layer `layer`'s raw similarity rows [row0, row0 + block.rows())
/// of H_s^(l) H_t^(l)T before they are weighted into S.
using LayerBlockVisitor =
    std::function<void(size_t layer, int64_t row0, const Matrix& block)>;

/// \brief The one filler of S = sum_l theta_l hs[l] ht[l]^T (Eq. 12).
///
/// Zero-fills the block, then adds theta_l * (rows of hs[l] ht[l]^T) layer
/// by layer through one reused layer scratch, skipping layers with
/// theta_l == 0. When `visit` is set it also computes the theta_l == 0
/// layers and hands every raw layer block to it (the Eq. 13 statistics
/// need all layers). The filler keeps references to hs, ht and theta.
RowBlockFiller MultiOrderBlockFiller(const std::vector<Matrix>& hs,
                                     const std::vector<Matrix>& ht,
                                     const std::vector<double>& theta,
                                     LayerBlockVisitor visit = nullptr);

/// \brief Generic row-blocked top-k scan.
///
/// Streams the implicit rows x cols similarity matrix through a
/// block_rows x cols buffer produced by `fill`, keeping the top k entries
/// of each row. Reserves the buffer + output against ctx.budget() (when
/// set) and polls ctx.ShouldStop() between blocks: an expired context
/// returns the rows computed so far (rows_computed < rows), never an
/// error.
[[nodiscard]] Result<TopKAlignment> ChunkedTopK(int64_t rows, int64_t cols, int64_t k,
                                  int64_t block_rows,
                                  const RowBlockFiller& fill,
                                  const RunContext& ctx = RunContext());

/// InvalidArgument (prefixed by `who`) unless hs/ht/theta are one non-empty
/// layer stack: a weight per layer, one row count per side, equal widths.
[[nodiscard]] Status CheckLayerStack(const std::vector<Matrix>& hs,
                                     const std::vector<Matrix>& ht,
                                     const std::vector<double>& theta,
                                     const std::string& who);

/// Aggregated alignment matrix S = sum_l theta_l H_s^(l) H_t^(l)T (Eq. 12):
/// MultiOrderBlockFiller over all rows at once.
Matrix AggregateAlignment(const std::vector<Matrix>& hs,
                          const std::vector<Matrix>& ht,
                          const std::vector<double>& theta);

/// \brief Multi-order embedding alignment, chunked: the top-k of
/// S = sum_l theta_l hs[l] ht[l]^T without materializing any n1 x n2
/// matrix (Eq. 12 under a memory budget). ChunkedTopK over
/// MultiOrderBlockFiller, so its indices and scores equal
/// TopKFromDense(AggregateAlignment(hs, ht, theta), k) exactly.
///
/// The block size is derived from ctx.budget()'s remaining headroom (a
/// cache-friendly default when unbounded); fails with ResourceExhausted
/// only when even a single-row block plus the O(n1 * k) output does not
/// fit.
[[nodiscard]] Result<TopKAlignment> ChunkedEmbeddingTopK(const std::vector<Matrix>& hs,
                                           const std::vector<Matrix>& ht,
                                           const std::vector<double>& theta,
                                           int64_t k,
                                           const RunContext& ctx =
                                               RunContext());

/// Compresses an already-materialized dense matrix to its per-row top-k
/// (the degradation adapter for methods without a chunked kernel).
TopKAlignment TopKFromDense(const Matrix& s, int64_t k);

/// \brief Block height a budgeted scan over `rows` rows can afford when
/// each block row costs `row_bytes` of transient working set on top of the
/// fixed TopKOutputBytes(rows, k) output.
///
/// kScanBlockRows when ctx carries no finite budget;
/// ResourceExhausted when even a single-row block does not fit the
/// remaining headroom.
[[nodiscard]] Result<int64_t> BudgetedBlockRows(int64_t rows, int64_t k, uint64_t row_bytes,
                                  const RunContext& ctx);

/// Bytes of transient working set the chunked embedding scan needs per
/// block row: what MultiOrderBlockFiller holds — one row of S, one row of
/// the layer scratch and one row of the widest source strip.
uint64_t ChunkedRowBytes(int64_t cols, const std::vector<Matrix>& hs);

/// Bytes of the O(rows * k) top-k output (index + score arrays).
uint64_t TopKOutputBytes(int64_t rows, int64_t k);

}  // namespace galign
