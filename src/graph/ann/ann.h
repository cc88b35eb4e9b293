// Routing from multi-order embedding similarity to ANN retrieval
// (DESIGN.md §11).
//
// The multi-order score S(v, u) = sum_l theta_l <H_s^(l)[v], H_t^(l)[u]>
// (Eq. 12) is a single inner product of concatenated rows once the query
// side is scaled by theta: q_v = [theta_0 H_s^(0)[v] | theta_1 H_s^(1)[v] |
// ...] against the unscaled base b_u = [H_t^(0)[u] | ...]. That reduction
// is what lets one AnnIndex serve arbitrary layer weightings — and since
// each layer's rows are unit-normalized, concatenated norms are constant
// per side, so inner-product order equals cosine order and the cosine-LSH
// index's assumption holds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "graph/ann/ann_index.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"

namespace galign {

/// The routing predicate of DESIGN.md §11: kOn always routes, kOff never,
/// kAuto requires both sides to reach policy.min_rows (below that the
/// O(n1 * n2) chunked scan wins — index construction cannot amortize).
bool ShouldUseAnn(const AnnPolicy& policy, int64_t n1, int64_t n2);

/// The policy's index config with search effort scaled to the recall
/// target (more probed buckets for tighter targets). The
/// recall property test measures what a scaled config actually achieves.
AnnConfig EffortScaledConfig(const AnnPolicy& policy);

/// Horizontally concatenates layer rows into one (n x sum dims) matrix,
/// optionally scaling layer l by scale[l] (pass nullptr for unscaled).
/// Budget-admitted via Matrix::TryCreate.
[[nodiscard]] Result<Matrix> ConcatLayerRows(const std::vector<Matrix>& layers,
                                             const std::vector<double>* scale,
                                             MemoryBudget* budget);

/// \brief ANN-routed drop-in for ChunkedEmbeddingTopK: same inputs, same
/// TopKAlignment output contract (descending scores, lowest-index ties,
/// -1 padding), approximate retrieval instead of the exact O(n1 * n2 * d)
/// scan.
///
/// Builds an index over the concatenated target layers and batch-queries
/// the theta-scaled source concatenation. Honors ctx deadlines (partial
/// rows_computed) and budget admission at both stages.
[[nodiscard]] Result<TopKAlignment> AnnEmbeddingTopK(
    const std::vector<Matrix>& hs, const std::vector<Matrix>& ht,
    const std::vector<double>& theta, int64_t k, const AnnPolicy& policy,
    const RunContext& ctx);

/// The one exact-or-approximate top-k router (DESIGN.md §11): ShouldUseAnn
/// on hs/ht's row counts ? AnnEmbeddingTopK : ChunkedEmbeddingTopK.
[[nodiscard]] Result<TopKAlignment> EmbeddingTopK(
    const std::vector<Matrix>& hs, const std::vector<Matrix>& ht,
    const std::vector<double>& theta, int64_t k, const AnnPolicy& policy,
    const RunContext& ctx);

}  // namespace galign
