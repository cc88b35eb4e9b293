#include "core/galign.h"

#include <algorithm>
#include <utility>

#include "core/refinement.h"
#include "graph/ann/ann.h"
#include "la/ops.h"

namespace galign {

namespace {

// Input checks Align and AlignTopK share; they run before any admission.
Status CheckPair(const GAlignConfig& config, const AttributedGraph& source,
                 const AttributedGraph& target) {
  GALIGN_RETURN_NOT_OK(config.Validate());
  if (source.num_nodes() == 0 || target.num_nodes() == 0) {
    return Status::InvalidArgument("empty network");
  }
  if (source.num_attributes() != target.num_attributes()) {
    return Status::InvalidArgument(
        "GAlign requires equal attribute dimensionality");
  }
  return Status::OK();
}

}  // namespace

Result<TrainedEmbeddings> TrainAndEmbed(
    const GAlignConfig& config, const AttributedGraph& source,
    const AttributedGraph& target,
    const std::vector<std::pair<int64_t, int64_t>>& seeds,
    const RunContext& ctx, bool refine, const AnnPolicy* ann) {
  TrainedEmbeddings out;
  Rng rng(config.seed);
  out.gcn = std::make_unique<MultiOrderGcn>(
      config.num_layers, source.num_attributes(), config.embedding_dim, &rng);
  Trainer trainer(config);
  // The paper's model is fully unsupervised and ignores supervision; seeds
  // only enter training when the semi-supervised extension is enabled
  // (seed_loss_weight > 0).
  GALIGN_RETURN_NOT_OK(trainer.Train(
      out.gcn.get(), source, target, &rng,
      config.seed_loss_weight > 0.0
          ? seeds
          : std::vector<std::pair<int64_t, int64_t>>{},
      ctx));
  out.loss_history = trainer.loss_history();
  out.train_report = trainer.report();

  if (refine) {
    auto refined = RefineAlignment(*out.gcn, source, target, config, ctx,
                                   /*materialize=*/false, ann);
    GALIGN_RETURN_NOT_OK(refined.status());
    RefinementResult& r = refined.ValueOrDie();
    out.refinement_scores = std::move(r.score_history);
    out.source_layers = std::move(r.source_embeddings);
    out.target_layers = std::move(r.target_embeddings);
    return out;
  }
  auto lap_s = source.NormalizedAdjacency();
  GALIGN_RETURN_NOT_OK(lap_s.status());
  auto lap_t = target.NormalizedAdjacency();
  GALIGN_RETURN_NOT_OK(lap_t.status());
  out.source_layers =
      out.gcn->ForwardInference(lap_s.ValueOrDie(), source.attributes());
  out.target_layers =
      out.gcn->ForwardInference(lap_t.ValueOrDie(), target.attributes());
  return out;
}

void GAlignAligner::Remember(const TrainedEmbeddings& trained) {
  last_loss_history_ = trained.loss_history;
  last_train_report_ = trained.train_report;
  last_refinement_scores_ = trained.refinement_scores;
}

Result<Matrix> GAlignAligner::Align(const AttributedGraph& source,
                                    const AttributedGraph& target,
                                    const Supervision& supervision,
                                    const RunContext& ctx) {
  GALIGN_RETURN_NOT_OK(CheckPair(config_, source, target));
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));
  auto trained = TrainAndEmbed(config_, source, target, supervision.seeds,
                               ctx, config_.use_refinement);
  GALIGN_RETURN_NOT_OK(trained.status());
  Remember(trained.ValueOrDie());
  // Eq. 12 over the refined (or, for GAlign-2, the trained) embeddings.
  return AggregateAlignment(trained.ValueOrDie().source_layers,
                            trained.ValueOrDie().target_layers,
                            config_.EffectiveLayerWeights());
}

uint64_t GAlignAligner::EstimateTrainBytes(int64_t n_source, int64_t n_target,
                                           int64_t dims) const {
  const int64_t d = std::max<int64_t>(config_.embedding_dim, dims);
  const int64_t layers = config_.num_layers + 1;
  // One set of per-layer embeddings for both networks.
  const uint64_t embeds = DenseBytes(n_source + n_target, d) *
                          static_cast<uint64_t>(layers);
  // Each training step embeds every (possibly augmented) view with forward
  // activations, gradients, and Adam moments alive together; refinement
  // keeps current + best embedding sets plus the stability scan's two
  // block buffers (the block of S and its layer scratch).
  const uint64_t views =
      config_.use_augmentation
          ? static_cast<uint64_t>(1 + config_.num_augmentations)
          : 1;
  return 4 * views * embeds + 4 * embeds +
         2 * DenseBytes(kScanBlockRows, n_target);
}

uint64_t GAlignAligner::EstimatePeakBytes(int64_t n_source, int64_t n_target,
                                          int64_t dims) const {
  return EstimateTrainBytes(n_source, n_target, dims) +
         DenseBytes(n_source, n_target);
}

Result<TopKAlignment> GAlignAligner::AlignTopK(const AttributedGraph& source,
                                               const AttributedGraph& target,
                                               const Supervision& supervision,
                                               const RunContext& ctx,
                                               int64_t k) {
  GALIGN_RETURN_NOT_OK(CheckPair(config_, source, target));
  // Admit only the training/refinement working set — this path never
  // materializes the n1 x n2 aggregation the dense estimate includes.
  MemoryScope train_scope;
  if (ctx.HasMemoryLimit()) {
    GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
        ctx.budget(),
        EstimateTrainBytes(source.num_nodes(), target.num_nodes(),
                           source.num_attributes()),
        name_ + " training admission", &train_scope));
  }
  auto trained = TrainAndEmbed(config_, source, target, supervision.seeds,
                               ctx, config_.use_refinement, &ann_policy_);
  GALIGN_RETURN_NOT_OK(trained.status());
  Remember(trained.ValueOrDie());
  const std::vector<Matrix>& hs = trained.ValueOrDie().source_layers;
  const std::vector<Matrix>& ht = trained.ValueOrDie().target_layers;

  // Training transients are gone; re-reserve only the surviving embeddings
  // so the chunked scan sizes its block from the true remaining headroom.
  train_scope.reset();
  MemoryScope embed_scope;
  if (ctx.HasMemoryLimit()) {
    uint64_t live = 0;
    for (const Matrix& h : hs) live += DenseBytes(h.rows(), h.cols());
    for (const Matrix& h : ht) live += DenseBytes(h.rows(), h.cols());
    GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
        ctx.budget(), live, name_ + " refined embeddings", &embed_scope));
  }
  return EmbeddingTopK(hs, ht, config_.EffectiveLayerWeights(), k,
                       ann_policy_, ctx);
}

Result<MultiOrderEmbeddings> EmbedNetworks(const GAlignConfig& config,
                                           const AttributedGraph& source,
                                           const AttributedGraph& target) {
  auto trained = TrainAndEmbed(config, source, target, /*seeds=*/{},
                               RunContext(), /*refine=*/false);
  GALIGN_RETURN_NOT_OK(trained.status());
  MultiOrderEmbeddings out;
  out.source_layers = std::move(trained.ValueOrDie().source_layers);
  out.target_layers = std::move(trained.ValueOrDie().target_layers);
  std::vector<const Matrix*> ps, pt;
  for (const Matrix& h : out.source_layers) ps.push_back(&h);
  for (const Matrix& h : out.target_layers) pt.push_back(&h);
  out.source_concat = ConcatCols(ps);
  out.target_concat = ConcatCols(pt);
  return out;
}

GAlignConfig GAlignAligner::WithoutAugmentation(GAlignConfig base) {
  base.use_augmentation = false;
  return base;
}

GAlignConfig GAlignAligner::WithoutRefinement(GAlignConfig base) {
  base.use_refinement = false;
  return base;
}

GAlignConfig GAlignAligner::FinalLayerOnly(GAlignConfig base) {
  base.final_layer_only = true;
  return base;
}

}  // namespace galign
