#include "baselines/isorank.h"

#include "common/fault.h"
#include "common/logging.h"
#include "la/ops.h"

namespace galign {

namespace {

// Row-stochastic random-walk matrix of the adjacency (rows with no edges
// stay zero; their similarity comes entirely from the prior).
SparseMatrix RowNormalizedAdjacency(const AttributedGraph& g) {
  SparseMatrix a = g.adjacency();
  for (int64_t r = 0; r < a.rows(); ++r) {
    double sum = a.RowSum(r);
    if (sum > 0.0) a.ScaleRow(r, 1.0 / sum);
  }
  return a;
}

}  // namespace

Result<Matrix> IsoRankAligner::Align(const AttributedGraph& source,
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

  Matrix prior = supervision.seeds.empty()
                     ? AttributePrior(source, target)
                     : PriorFromSeeds(n1, n2, supervision);

  SparseMatrix ps = RowNormalizedAdjacency(source);
  SparseMatrix pt = RowNormalizedAdjacency(target);
  SparseMatrix pt_transposed = pt.Transposed();

  Matrix r = prior;
  report_ = ConvergenceReport{};
  for (int it = 0; it < config_.max_iterations; ++it) {
    if (ctx.ShouldStop()) {
      // Best-so-far: each iterate contracts toward the fixed point, so the
      // latest one is the best available under the budget.
      report_.degraded = true;
      break;
    }
    // alpha * P_s^T R P_t: left multiply by P_s^T, then right multiply by
    // P_t via the transpose trick.
    Matrix left = ps.TransposedMultiply(r);
    Matrix next = Transpose(pt_transposed.Multiply(Transpose(left)));
    next.Scale(config_.alpha);
    next.Axpy(1.0 - config_.alpha, prior);
    double delta =
        fault::Perturb("solver.isorank.residual", Matrix::MaxAbsDiff(next, r));
    r = std::move(next);
    report_.iterations = it + 1;
    report_.residual = delta;
    if (delta < config_.tolerance) {
      report_.converged = true;
      break;
    }
  }
  if (!r.AllFinite()) {
    return Status::Internal("IsoRank produced non-finite scores");
  }
  if (!report_.converged) {
    // The iteration is a contraction toward the fixed point, so the last
    // iterate is the best estimate — return it, flagged degraded.
    report_.degraded = true;
    GALIGN_LOG(Warning) << "IsoRank: " << report_.ToString()
                        << " (tolerance " << config_.tolerance
                        << "); using last iterate";
  }
  return r;
}

}  // namespace galign
