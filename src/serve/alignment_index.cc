#include "serve/alignment_index.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/durable_io.h"
#include "common/fault.h"
#include "core/galign.h"
#include "core/model_io.h"
#include "graph/ann/ann.h"
#include "graph/ann/ann_io.h"

namespace galign {

namespace {

constexpr char kArtifactMagic[] = "galign-aidx-v1";
constexpr char kManifestMagic[] = "galign-aidx-manifest-v1";

// Reads `key <nbytes>\n` then exactly nbytes of raw payload (the embedded
// model / ANN-recipe sections, whose bodies are not token streams).
Status ReadRawSection(std::istringstream* in, const char* key,
                      std::string* out, const std::string& context) {
  std::string tok;
  int64_t nbytes = -1;
  if (!(*in >> tok) || tok != key || !(*in >> nbytes) || nbytes < 0 ||
      nbytes > (int64_t{1} << 30)) {
    return Status::IOError("expected '" + std::string(key) +
                           " <nbytes>' in " + context);
  }
  if (in->get() != '\n') {
    return Status::IOError("missing newline after '" + std::string(key) +
                           "' header in " + context);
  }
  out->resize(static_cast<size_t>(nbytes));
  if (nbytes > 0 && !in->read(out->data(), nbytes)) {
    return Status::IOError("truncated '" + std::string(key) + "' section in " +
                           context);
  }
  return Status::OK();
}

void EmitRawSection(std::string* out, const char* key,
                    const std::string& payload) {
  *out += key;
  *out += ' ';
  *out += std::to_string(payload.size());
  *out += '\n';
  *out += payload;
  *out += '\n';
}

}  // namespace

Result<std::shared_ptr<const AlignmentIndex>> AlignmentIndex::Build(
    const GAlignConfig& config, const AttributedGraph& source,
    const AttributedGraph& target, const AlignmentIndexOptions& options,
    const RunContext& ctx) {
  GALIGN_RETURN_NOT_OK(config.Validate());
  if (options.anchor_k <= 0) {
    return Status::InvalidArgument("AlignmentIndex::Build: anchor_k must be > 0");
  }

  std::shared_ptr<AlignmentIndex> out(new AlignmentIndex());

  // Alg. 1 training; the artifact keeps the trained model itself so a
  // reload can verify (or re-derive) everything downstream of it.
  auto trained = TrainAndEmbed(config, source, target, /*seeds=*/{}, ctx,
                               /*refine=*/false);
  GALIGN_RETURN_NOT_OK(trained.status());
  if (ctx.ShouldStop()) {
    return Status::DeadlineExceeded(
        "AlignmentIndex::Build stopped during training — refusing to emit a "
        "partial artifact");
  }
  out->gcn_ = std::move(trained.ValueOrDie().gcn);
  out->source_layers_ = std::move(trained.ValueOrDie().source_layers);
  out->target_layers_ = std::move(trained.ValueOrDie().target_layers);
  out->theta_ = config.EffectiveLayerWeights();

  // Query side carries theta so the multi-order score is one inner product
  // (DESIGN.md §11); base side stays unscaled.
  auto queries =
      ConcatLayerRows(out->source_layers_, &out->theta_, ctx.budget());
  GALIGN_RETURN_NOT_OK(queries.status());
  out->queries_ = std::move(queries.ValueOrDie());
  auto base = ConcatLayerRows(out->target_layers_, nullptr, ctx.budget());
  GALIGN_RETURN_NOT_OK(base.status());

  out->ann_config_ = options.ann;
  auto ann = BuildAnnIndex(std::move(base.ValueOrDie()), options.ann, ctx);
  GALIGN_RETURN_NOT_OK(ann.status());
  out->ann_ = std::move(ann.ValueOrDie());
  if (out->ann_->truncated()) {
    return Status::DeadlineExceeded(
        "AlignmentIndex::Build stopped during ANN construction — refusing to "
        "emit a partial artifact");
  }
  out->ann_fingerprint_ = AnnIndexFingerprint(*out->ann_);

  const int64_t k = std::min(options.anchor_k, target.num_nodes());
  auto anchors = out->ann_->QueryBatch(out->queries_, std::max<int64_t>(1, k),
                                       ctx);
  GALIGN_RETURN_NOT_OK(anchors.status());
  out->anchors_ = std::move(anchors.ValueOrDie());
  if (out->anchors_.rows_computed < out->anchors_.rows) {
    return Status::DeadlineExceeded(
        "AlignmentIndex::Build stopped during anchor precomputation — "
        "refusing to emit a partial artifact");
  }
  return Result<std::shared_ptr<const AlignmentIndex>>(std::move(out));
}

uint64_t AlignmentIndex::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const Matrix& m : source_layers_) bytes += DenseBytes(m.rows(), m.cols());
  for (const Matrix& m : target_layers_) bytes += DenseBytes(m.rows(), m.cols());
  bytes += DenseBytes(queries_.rows(), queries_.cols());
  bytes += ann_->MemoryBytes();
  bytes += anchors_.index.size() * sizeof(int64_t) +
           anchors_.score.size() * sizeof(double);
  return bytes;
}

std::string AlignmentIndex::Serialize() const {
  const std::string model = SerializeGcnModel(*gcn_);
  const std::string ann = SerializeAnnRecipe(*ann_, ann_config_);
  // Sized up front (17 bytes per hex double, at most 21 per anchor id, and
  // room for headers plus the CRC trailer) so the multi-megabyte payload
  // is written once instead of regrown.
  size_t doubles = theta_.size() + anchors_.score.size();
  for (const auto* layers : {&source_layers_, &target_layers_}) {
    for (const Matrix& m : *layers) doubles += static_cast<size_t>(m.size());
  }
  std::string out;
  out.reserve(17 * doubles + 21 * anchors_.index.size() + model.size() +
              ann.size() +
              64 * (source_layers_.size() + target_layers_.size()) + 256);

  out += kArtifactMagic;
  out += "\ntheta ";
  out += std::to_string(theta_.size());
  if (theta_.empty()) {
    out += '\n';
  } else {
    out += ' ';
    AppendHexDoubles(&out, theta_.data(), theta_.size(), /*per_line=*/0);
  }
  EmitRawSection(&out, "model", model);
  EmitMatrixList(&out, "source_layers", source_layers_);
  EmitMatrixList(&out, "target_layers", target_layers_);
  EmitRawSection(&out, "ann", ann);
  out += "anchors";
  for (int64_t v : {anchors_.rows, anchors_.cols, anchors_.k,
                    anchors_.rows_computed}) {
    out += ' ';
    out += std::to_string(v);
  }
  out += '\n';
  for (size_t i = 0; i < anchors_.index.size(); ++i) {
    if (i) out += (i % 16 == 0 ? '\n' : ' ');
    out += std::to_string(anchors_.index[i]);
  }
  if (!anchors_.index.empty()) out += '\n';
  AppendHexDoubles(&out, anchors_.score.data(), anchors_.score.size(),
                   /*per_line=*/8);
  out += "end\n";
  return out;
}

Result<std::shared_ptr<const AlignmentIndex>> AlignmentIndex::Parse(
    std::string payload, const std::string& context, const RunContext& ctx) {
  // The stream takes the payload over; hex runs are decoded from its
  // buffer in place (ParseHexDoubles), so nothing here copies it again.
  std::istringstream in(std::move(payload));
  std::string tok;
  if (!(in >> tok) || tok != kArtifactMagic) {
    return Status::IOError("not an alignment artifact (bad magic) in " +
                           context);
  }

  std::shared_ptr<AlignmentIndex> out(new AlignmentIndex());

  size_t theta_count = 0;
  if (!(in >> tok) || tok != "theta" || !(in >> theta_count) ||
      theta_count == 0 || theta_count > 4096) {
    return Status::IOError("expected 'theta <count>' in " + context);
  }
  out->theta_.resize(theta_count);
  GALIGN_RETURN_NOT_OK(ParseHexDoubles(&in, out->theta_.data(), theta_count,
                                       "theta", context));

  std::string model_payload;
  GALIGN_RETURN_NOT_OK(ReadRawSection(&in, "model", &model_payload, context));
  auto gcn = ParseGcnModel(model_payload, context + " model section");
  GALIGN_RETURN_NOT_OK(gcn.status());
  out->gcn_ = std::make_unique<MultiOrderGcn>(std::move(gcn.ValueOrDie()));

  GALIGN_RETURN_NOT_OK(
      ParseMatrixList(&in, "source_layers", &out->source_layers_, context));
  GALIGN_RETURN_NOT_OK(
      ParseMatrixList(&in, "target_layers", &out->target_layers_, context));
  if (out->source_layers_.size() != theta_count ||
      out->target_layers_.size() != theta_count) {
    return Status::IOError(
        "layer count disagrees with theta width in " + context + ": theta " +
        std::to_string(theta_count) + ", source " +
        std::to_string(out->source_layers_.size()) + ", target " +
        std::to_string(out->target_layers_.size()));
  }

  std::string ann_payload;
  GALIGN_RETURN_NOT_OK(ReadRawSection(&in, "ann", &ann_payload, context));

  TopKAlignment& a = out->anchors_;
  if (!(in >> tok) || tok != "anchors" || !(in >> a.rows >> a.cols >> a.k >>
                                            a.rows_computed) ||
      a.rows < 0 || a.cols < 0 || a.k < 0 || a.rows_computed != a.rows ||
      a.rows > (int64_t{1} << 30) || a.k > (int64_t{1} << 20) ||
      a.rows * a.k > (int64_t{1} << 32)) {
    return Status::IOError("bad 'anchors' header in " + context);
  }
  a.index.resize(static_cast<size_t>(a.rows * a.k));
  a.score.resize(static_cast<size_t>(a.rows * a.k));
  for (size_t i = 0; i < a.index.size(); ++i) {
    if (!(in >> a.index[i]) || a.index[i] < -1 || a.index[i] >= a.cols) {
      return Status::IOError("bad anchor index in " + context);
    }
  }
  GALIGN_RETURN_NOT_OK(ParseHexDoubles(&in, a.score.data(), a.score.size(),
                                       "anchor scores", context));
  if (!(in >> tok) || tok != "end") {
    return Status::IOError("missing 'end' sentinel in " + context);
  }

  // Derived state: rebuild the query matrix and the ANN index from the
  // stored layers. The recipe's fingerprint check makes the rebuilt index
  // verify-or-reject against the one that was saved.
  auto queries =
      ConcatLayerRows(out->source_layers_, &out->theta_, ctx.budget());
  GALIGN_RETURN_NOT_OK(queries.status());
  out->queries_ = std::move(queries.ValueOrDie());
  auto base = ConcatLayerRows(out->target_layers_, nullptr, ctx.budget());
  GALIGN_RETURN_NOT_OK(base.status());
  auto ann = RebuildAnnIndex(ann_payload, std::move(base.ValueOrDie()), ctx,
                             context + " ann section", &out->ann_config_);
  GALIGN_RETURN_NOT_OK(ann.status());
  out->ann_ = std::move(ann.ValueOrDie());
  // RebuildAnnIndex verified the rebuilt index against the recipe's saved
  // fingerprint, so recomputing here records the proven-good value.
  out->ann_fingerprint_ = AnnIndexFingerprint(*out->ann_);
  if (out->anchors_.rows != out->queries_.rows() ||
      out->anchors_.cols != out->ann_->base().rows()) {
    return Status::IOError("anchor table shape disagrees with embeddings in " +
                           context);
  }
  return Result<std::shared_ptr<const AlignmentIndex>>(std::move(out));
}

AlignmentIndexStore::AlignmentIndexStore(std::string dir, int keep)
    : store_(std::move(dir), "aidx_", kManifestMagic, "artifact", keep) {}

Status AlignmentIndexStore::Save(const AlignmentIndex& index) {
  if (fault::ShouldFailIO("serve.artifact.save")) {
    return Status::IOError("injected fault: artifact save to " + dir());
  }
  return store_.Write(store_.Newest() + 1, index.Serialize());
}

Result<std::shared_ptr<const AlignmentIndex>>
AlignmentIndexStore::LoadGeneration(int gen, const RunContext& ctx) const {
  const std::string path = GenerationPath(gen);
  if (fault::ShouldFailIO("serve.artifact.load")) {
    return Status::IOError("injected fault: artifact load from " + path);
  }
  auto payload = store_.Read(gen);
  GALIGN_RETURN_NOT_OK(payload.status());
  return AlignmentIndex::Parse(payload.MoveValueOrDie(), path, ctx);
}

Result<std::shared_ptr<const AlignmentIndex>> AlignmentIndexStore::LoadLatest(
    const RunContext& ctx, int* loaded_generation) const {
  return store_.LoadNewest(
      [&](int gen) { return LoadGeneration(gen, ctx); }, loaded_generation);
}

}  // namespace galign
