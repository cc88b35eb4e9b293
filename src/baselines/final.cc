#include "baselines/final.h"

#include <cmath>

#include "common/fault.h"
#include "common/logging.h"
#include "la/ops.h"

namespace galign {

namespace {

// D^{-1/2} A D^{-1/2} without self loops (FINAL normalizes the plain
// adjacency; isolated nodes keep zero rows).
SparseMatrix SymmetricNormalized(const AttributedGraph& g) {
  SparseMatrix a = g.adjacency();
  std::vector<double> inv_sqrt(a.rows(), 0.0);
  for (int64_t r = 0; r < a.rows(); ++r) {
    double deg = a.RowSum(r);
    if (deg > 0.0) inv_sqrt[r] = 1.0 / std::sqrt(deg);
  }
  std::vector<Triplet> t;
  t.reserve(a.nnz());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      int64_t c = a.col_idx()[i];
      t.push_back({r, c, a.values()[i] * inv_sqrt[r] * inv_sqrt[c]});
    }
  }
  return SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(t));
}

}  // namespace

Result<Matrix> FinalAligner::Align(const AttributedGraph& source,
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

  Matrix h = supervision.seeds.empty()
                 ? AttributePrior(source, target)
                 : PriorFromSeeds(n1, n2, supervision);

  // Attribute agreement matrix N (uniform 1 when attributes are disabled or
  // incomparable).
  Matrix n(n1, n2, 1.0);
  if (config_.use_attributes &&
      source.num_attributes() == target.num_attributes()) {
    const Matrix& fs = source.attributes();
    const Matrix& ft = target.attributes();
    for (int64_t i = 0; i < n1; ++i) {
      for (int64_t j = 0; j < n2; ++j) {
        // Shift cosine into (0, 1] so disagreement dampens instead of
        // zeroing the propagation.
        n(i, j) = 0.5 * (1.0 + std::max(-1.0, RowCosine(fs, i, ft, j)));
      }
    }
  }

  SparseMatrix as = SymmetricNormalized(source);
  SparseMatrix at = SymmetricNormalized(target);
  SparseMatrix at_transposed = at.Transposed();

  Matrix s = h;
  report_ = ConvergenceReport{};
  for (int it = 0; it < config_.max_iterations; ++it) {
    if (ctx.ShouldStop()) {
      report_.degraded = true;  // best-so-far: the iteration is contractive
      break;
    }
    Matrix masked = Hadamard(n, s);
    Matrix left = as.Multiply(masked);
    Matrix propagated = Transpose(at_transposed.Multiply(Transpose(left)));
    Matrix next = Hadamard(n, propagated);
    next.Scale(config_.alpha);
    next.Axpy(1.0 - config_.alpha, h);
    double delta =
        fault::Perturb("solver.final.residual", Matrix::MaxAbsDiff(next, s));
    s = std::move(next);
    report_.iterations = it + 1;
    report_.residual = delta;
    if (delta < config_.tolerance) {
      report_.converged = true;
      break;
    }
  }
  if (!s.AllFinite()) {
    return Status::Internal("FINAL produced non-finite scores");
  }
  if (!report_.converged) {
    report_.degraded = true;
    GALIGN_LOG(Warning) << "FINAL: " << report_.ToString() << " (tolerance "
                        << config_.tolerance << "); using last iterate";
  }
  return s;
}

}  // namespace galign
