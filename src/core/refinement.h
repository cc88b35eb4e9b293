// Alignment instantiation and stability-based refinement (paper §VI).
//
// Layer-wise alignment matrices S^(l) = H_s^(l) H_t^(l)T (Eq. 11) are
// aggregated by layer importances theta (Eq. 12). Refinement (Alg. 2)
// iteratively detects stable nodes (Eq. 13), amplifies their influence
// (Eq. 14) inside the propagation matrix (Eq. 15), re-embeds, and keeps the
// candidate with the best greedy score g(S) = sum_v max_u S(v, u).
//
// AggregateAlignment and ScanStability read S out through one row-block
// filler (graph/similarity_chunked), so refinement never materializes a
// layer-wise n1 x n2 matrix (the paper's O(n) space argument, §VI-C).
#pragma once

#include <vector>

#include "common/convergence.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/config.h"
#include "core/gcn.h"
#include "graph/ann/ann_index.h"
#include "graph/graph.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"

namespace galign {

/// Result of one streaming pass over all layer-wise alignment matrices.
struct StabilityScan {
  /// Source nodes satisfying Eq. 13 (consistent argmax across layers, all
  /// layer scores above lambda).
  std::vector<int64_t> stable_source;
  /// Target nodes satisfying the symmetric column-wise condition.
  std::vector<int64_t> stable_target;
  /// g(S) = sum_v max_u S(v, u) of the aggregated matrix.
  double aggregate_score = 0.0;
};

/// Single row-blocked pass computing stable nodes and g(S) without storing
/// any n1 x n2 matrix: ChunkedTopK(k = 1) over MultiOrderBlockFiller, whose
/// layer visitor feeds the Eq. 13 statistics. g(S) is the sum of the top-1
/// scores, bit-equal to summing the row maxima of AggregateAlignment. Runs
/// to completion: a scan cut short would mark the wrong nodes stable.
StabilityScan ScanStability(const std::vector<Matrix>& hs,
                            const std::vector<Matrix>& ht,
                            const std::vector<double>& theta, double lambda);

/// \brief Candidate-pair stability scan (DESIGN.md §11): O(n * k̃) instead
/// of O(n1 * n2).
///
/// Retrieves policy.refine_candidates targets per source row from an ANN
/// index over the concatenated target layers, then evaluates the per-layer
/// argmax statistics of Eq. 13 over those pairs only. Row statistics are
/// exact whenever the aggregate argmax is recalled; column statistics are
/// maxima over the retrieved pair set (the symmetric condition evaluated
/// on the same candidates, not a second index). Tie-breaking matches
/// ScanStability: first maximum wins, scanning ascending ids.
[[nodiscard]] Result<StabilityScan> ScanStabilityCandidates(
    const std::vector<Matrix>& hs, const std::vector<Matrix>& ht,
    const std::vector<double>& theta, double lambda, const AnnPolicy& policy,
    const RunContext& ctx);

/// Outcome of the refinement search.
struct RefinementResult {
  /// Best aggregated S found. Empty (0 x 0) when RefineAlignment was asked
  /// not to materialize it — budget-degraded callers rank the
  /// source/target_embeddings through the chunked top-k kernel instead.
  Matrix alignment;
  double best_score = 0.0;            ///< g of that S
  int best_iteration = 0;             ///< iteration it was found at
  std::vector<double> score_history;  ///< g(S) per iteration (index 0 = init)
  /// Layer embeddings (H^(0)..H^(k)) of the best-scoring iteration — the
  /// refined multi-order features (used e.g. by the Fig. 8 visualization).
  std::vector<Matrix> source_embeddings;
  std::vector<Matrix> target_embeddings;
  /// How the refinement loop exited: converged = the relative g(S)
  /// improvement fell below config.refinement_tolerance (always true at
  /// budget exhaustion when the tolerance is 0), residual = last relative
  /// improvement. degraded = influence compounding drove the embeddings
  /// non-finite and the loop fell back to the best finite iterate.
  ConvergenceReport report;
};

/// \brief Runs Alg. 2 with the trained GCN.
///
/// Re-embeds both networks every iteration under the updated influence
/// factors and returns the best-scoring aggregated alignment matrix. When
/// `ctx` carries a deadline/cancellation token, the iteration loop winds
/// down early and returns the best iterate found so far (report.degraded).
///
/// The refinement loop itself never holds an n1 x n2 matrix (ScanStability
/// streams in row blocks) and polls `ctx` once per iteration, between
/// scans; the only dense materialization is the final
/// aggregation, skipped when `materialize` is false (DESIGN.md §9's
/// budget-degraded path, which consumes the embeddings instead).
///
/// When `ann` is non-null and ShouldUseAnn admits the problem size, each
/// iteration's stability scan runs over retrieved candidate pairs
/// (ScanStabilityCandidates) instead of the full cross product; a scan
/// whose index cannot be admitted falls back to the exact pass.
[[nodiscard]] Result<RefinementResult> RefineAlignment(const MultiOrderGcn& gcn,
                                         const AttributedGraph& source,
                                         const AttributedGraph& target,
                                         const GAlignConfig& config,
                                         const RunContext& ctx = RunContext(),
                                         bool materialize = true,
                                         const AnnPolicy* ann = nullptr);

}  // namespace galign
