// The network-alignment problem surface (paper §II-B): aligners consume a
// source/target pair of attributed graphs and produce an alignment matrix
// S in R^{n1 x n2} whose (v, v') entry is the matching degree.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/memory_budget.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "common/status.h"
#include "graph/ann/ann_index.h"
#include "graph/graph.h"
#include "graph/noise.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"

namespace galign {

/// \brief Optional supervision available to an aligner.
///
/// GAlign is fully unsupervised and ignores this. FINAL/IsoRank consume a
/// prior alignment matrix derived from the seeds; PALE/CENALP consume the
/// seed anchor links directly (paper §VII-A gives baselines 10% of the
/// ground truth to respect their original settings).
struct Supervision {
  /// (source node, target node) seed anchor links. Empty = unsupervised.
  std::vector<std::pair<int64_t, int64_t>> seeds;
};

/// \brief Interface implemented by every alignment technique in the repo.
class Aligner {
 public:
  virtual ~Aligner() = default;

  /// Human-readable method name ("GAlign", "FINAL", ...).
  virtual std::string name() const = 0;

  /// Computes the alignment matrix S (n_source x n_target). Implementations
  /// must return finite entries; higher = better match.
  ///
  /// Unbounded convenience entry point; forwards to the RunContext overload.
  /// Non-virtual on purpose: deadline behaviour belongs to one override,
  /// and a default argument on a virtual would be statically bound.
  [[nodiscard]] Result<Matrix> Align(const AttributedGraph& source,
                       const AttributedGraph& target,
                       const Supervision& supervision) {
    return Align(source, target, supervision, RunContext());
  }

  /// Deadline/cancellation-aware variant (DESIGN.md §8): implementations
  /// poll ctx.ShouldStop() at iteration granularity and degrade to their
  /// best-so-far alignment instead of running unbounded. A context that is
  /// already expired yields the cheapest meaningful result the method can
  /// produce (e.g. its prior or initial iterate) — still a valid matrix,
  /// never an error.
  ///
  /// Note for implementers: also add `using Aligner::Align;` so the
  /// three-argument convenience form stays visible on the derived type.
  [[nodiscard]] virtual Result<Matrix> Align(const AttributedGraph& source,
                               const AttributedGraph& target,
                               const Supervision& supervision,
                               const RunContext& ctx) = 0;

  /// \brief Estimated peak heap bytes Align() needs for an
  /// (n_source x n_target) problem with `dims`-dimensional attributes
  /// (DESIGN.md §9).
  ///
  /// Used as the pre-flight admission check against ctx.budget(): a run
  /// whose estimate does not fit is rejected with ResourceExhausted before
  /// any large allocation, so callers can degrade to AlignTopK instead of
  /// dying on bad_alloc mid-run. Estimates are deliberately coarse
  /// (order-of-magnitude upper bounds on the simultaneously-live dense
  /// matrices); the default covers methods whose footprint is a few
  /// n_source x n_target similarity matrices plus the inputs.
  virtual uint64_t EstimatePeakBytes(int64_t n_source, int64_t n_target,
                                     int64_t dims) const;

  /// \brief Budget-degraded entry point: computes only the top-k target
  /// columns per source row (DESIGN.md §9).
  ///
  /// The base implementation runs the dense Align() and compresses — no
  /// memory savings, but a uniform interface. Methods with a genuinely
  /// row-blocked kernel (GAlign, REGAL) override it so the transient
  /// working set stays within ctx.budget() and the O(n1 * n2) matrix is
  /// never materialized.
  [[nodiscard]] virtual Result<TopKAlignment> AlignTopK(const AttributedGraph& source,
                                          const AttributedGraph& target,
                                          const Supervision& supervision,
                                          const RunContext& ctx,
                                          int64_t k);

  /// \brief Candidate-retrieval policy consulted by AlignTopK overrides
  /// with an ANN route (GAlign, REGAL, DegreeRank, AttributeOnly —
  /// DESIGN.md §11).
  ///
  /// Defaults to AnnMode::kAuto: small problems keep the exact chunked
  /// scan, problems past policy.min_rows route through the index. Methods
  /// without an ANN route ignore it.
  void set_ann_policy(const AnnPolicy& policy) { ann_policy_ = policy; }
  const AnnPolicy& ann_policy() const { return ann_policy_; }

 protected:
  AnnPolicy ann_policy_;
};

/// \brief Pre-flight admission for one aligner run (DESIGN.md §9).
///
/// Reserves aligner.EstimatePeakBytes(...) against ctx.budget() into
/// *scope for the duration of the run. A no-op success when the context
/// carries no finite budget; ResourceExhausted (with the estimate and the
/// remaining headroom in the message) when the run cannot fit. Every
/// Aligner::Align implementation calls this first.
[[nodiscard]] Status ReserveAlignerBudget(const Aligner& aligner,
                            const AttributedGraph& source,
                            const AttributedGraph& target,
                            const RunContext& ctx, MemoryScope* scope);

/// Greedy anchor extraction: for each source node, the argmax target
/// (paper §VI-A one-to-one instantiation by ranking).
std::vector<int64_t> Top1Anchors(const Matrix& s);

/// One-to-one greedy matching: repeatedly takes the globally largest entry
/// whose row and column are both unused. Useful for strict 1-1 settings.
std::vector<int64_t> GreedyOneToOneAnchors(const Matrix& s);

/// One-to-many instantiation (paper §VI-A mentions this setting): for each
/// source node, the top-k candidate targets in descending score order.
std::vector<std::vector<int64_t>> TopKAnchors(const Matrix& s, int64_t k);

/// Soft one-to-many instantiation: all target nodes whose score exceeds
/// `threshold`, per source node, descending. Rows may be empty.
std::vector<std::vector<int64_t>> AnchorsAboveThreshold(const Matrix& s,
                                                        double threshold);

/// Draws `fraction` of the true anchors as supervision seeds.
Supervision SampleSeeds(const std::vector<int64_t>& ground_truth,
                        double fraction, Rng* rng);

/// InvalidArgument("seed anchor out of range: ...") naming the first seed
/// whose source id is outside [0, n1) or whose target id is outside [0, n2).
/// Every aligner that reads seeds calls this before indexing by them.
Status ValidateSeeds(const std::vector<std::pair<int64_t, int64_t>>& seeds,
                     int64_t n1, int64_t n2);

/// Builds a prior alignment matrix H (n1 x n2) from seeds: 1 at seed pairs,
/// uniform 1/n2 elsewhere, rows normalized (used by FINAL/IsoRank). The
/// seeds must have passed ValidateSeeds.
Matrix PriorFromSeeds(int64_t n1, int64_t n2, const Supervision& supervision);

/// Row-normalized attribute-similarity prior: N(v, v') = cosine between
/// attribute rows, clamped at 0 (used when no seeds are supplied).
Matrix AttributePrior(const AttributedGraph& source,
                      const AttributedGraph& target);

}  // namespace galign
