// Public entry point of the GAlign framework: an Aligner that runs the full
// unsupervised pipeline — multi-order GCN training with augmentation
// (Alg. 1) followed by alignment instantiation and stability refinement
// (Alg. 2). The ablation variants of Table IV are configuration presets.
//
// Align, AlignTopK, EmbedNetworks and AlignmentIndex::Build share one
// train-and-embed step (TrainAndEmbed) and keep only their admission and
// read-out: dense aggregation, routed top-k, concatenation, or artifact.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "align/alignment.h"
#include "core/config.h"
#include "core/gcn.h"
#include "core/trainer.h"

namespace galign {

/// \brief A trained GCN and the multi-order embeddings read out of it.
struct TrainedEmbeddings {
  std::unique_ptr<MultiOrderGcn> gcn;
  /// H^(0)..H^(k) of each network: the best refinement iterate when
  /// refinement ran, the plain forward pass otherwise.
  std::vector<Matrix> source_layers;
  std::vector<Matrix> target_layers;
  std::vector<double> loss_history;      ///< per-epoch training loss
  TrainReport train_report;              ///< training health record
  std::vector<double> refinement_scores; ///< g(S) per iteration, if refined
};

/// \brief The one train-and-embed step (Alg. 1, then Alg. 2 or a forward).
///
/// Seeds an Rng with config.seed, draws the GCN's weights from it and
/// trains them under `ctx` (seeds enter only when
/// config.seed_loss_weight > 0). Then, with `refine`, runs RefineAlignment
/// without materializing S (`ann` routes its stability scans); otherwise a
/// plain ForwardInference of both networks.
[[nodiscard]] Result<TrainedEmbeddings> TrainAndEmbed(
    const GAlignConfig& config, const AttributedGraph& source,
    const AttributedGraph& target,
    const std::vector<std::pair<int64_t, int64_t>>& seeds,
    const RunContext& ctx, bool refine, const AnnPolicy* ann = nullptr);

/// \brief GAlign: adaptive, fully unsupervised network alignment.
///
/// Usage:
///   GAlignAligner aligner(GAlignConfig{});
///   auto s = aligner.Align(source, target, /*supervision=*/{});
///
/// Supervision is accepted for interface compatibility and ignored — the
/// method is unsupervised (R3).
class GAlignAligner : public Aligner {
 public:
  explicit GAlignAligner(GAlignConfig config = {},
                         std::string name = "GAlign")
      : config_(std::move(config)), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  using Aligner::Align;
  [[nodiscard]] Result<Matrix> Align(const AttributedGraph& source,
                       const AttributedGraph& target,
                       const Supervision& supervision,
                       const RunContext& ctx) override;

  /// Training working set (augmented views, activations, optimizer state)
  /// plus the refinement scan chunks and the final dense aggregation.
  uint64_t EstimatePeakBytes(int64_t n_source, int64_t n_target,
                             int64_t dims) const override;

  /// Budget-degraded run (DESIGN.md §9): trains and refines exactly as
  /// Align(), then ranks the refined embeddings through EmbeddingTopK
  /// instead of materializing the n1 x n2 aggregation. Below the ANN
  /// threshold the result equals TopKFromDense(Align(...), k) bit for bit.
  [[nodiscard]] Result<TopKAlignment> AlignTopK(const AttributedGraph& source,
                                  const AttributedGraph& target,
                                  const Supervision& supervision,
                                  const RunContext& ctx, int64_t k) override;

  const GAlignConfig& config() const { return config_; }

  /// Per-epoch training loss of the most recent Align() call.
  const std::vector<double>& last_loss_history() const {
    return last_loss_history_;
  }
  /// Refinement g(S) trajectory of the most recent Align() call (empty when
  /// refinement is disabled).
  const std::vector<double>& last_refinement_scores() const {
    return last_refinement_scores_;
  }
  /// Numerical-health record of the most recent Align() training run
  /// (epochs, rollbacks, final loss/lr — see TrainReport).
  const TrainReport& last_train_report() const { return last_train_report_; }

  /// Ablation presets (Table IV).
  static GAlignConfig WithoutAugmentation(GAlignConfig base = {});  // GAlign-1
  static GAlignConfig WithoutRefinement(GAlignConfig base = {});    // GAlign-2
  static GAlignConfig FinalLayerOnly(GAlignConfig base = {});       // GAlign-3

 private:
  /// Peak bytes of the training + refinement phases alone (everything the
  /// chunked AlignTopK path keeps from EstimatePeakBytes).
  uint64_t EstimateTrainBytes(int64_t n_source, int64_t n_target,
                              int64_t dims) const;
  /// Keeps the loss, health and g(S) records of a finished run.
  void Remember(const TrainedEmbeddings& trained);

  GAlignConfig config_;
  std::string name_;
  std::vector<double> last_loss_history_;
  std::vector<double> last_refinement_scores_;
  TrainReport last_train_report_;
};

/// \brief Trained multi-order embeddings of a network pair.
///
/// The per-layer matrices are the GCN outputs H^(0)..H^(k) (row-normalized);
/// `*_concat` concatenates all layers row-wise into one feature matrix —
/// ready-made node features for downstream tasks (node classification, link
/// prediction) in the shared embedding space.
struct MultiOrderEmbeddings {
  std::vector<Matrix> source_layers;
  std::vector<Matrix> target_layers;
  Matrix source_concat;
  Matrix target_concat;
};

/// Runs Alg. 1 (training only) and returns the learnt multi-order
/// embeddings of both networks, without computing an alignment matrix.
[[nodiscard]] Result<MultiOrderEmbeddings> EmbedNetworks(const GAlignConfig& config,
                                           const AttributedGraph& source,
                                           const AttributedGraph& target);

}  // namespace galign
