// The immutable serving artifact (DESIGN.md §12).
//
// An AlignmentIndex is everything `galign_serve` needs to answer "which
// target nodes align with source node v?" without touching the training
// stack: the trained multi-order GCN, the per-layer embeddings of both
// networks, the theta layer weights, an ANN index over the concatenated
// target rows, and a precomputed top-k anchor table used for degraded-mode
// answers. Once built (or loaded) it is deeply immutable — every member is
// read-only after construction, so any number of serving threads may query
// it concurrently with no synchronization beyond the shared_ptr that keeps
// it alive across artifact swaps.
//
// Durability is the checkpoints' generation store (common/durable_io.h,
// DESIGN.md §8): one artifact generation per file (`aidx_<8-digit gen>`),
// AtomicWriteFile + CRC32 trailer, and verify-or-reject loading that falls
// back past torn generations. The ANN
// section is stored as a recipe and rebuilt+fingerprint-verified at load
// (graph/ann/ann_io.h), so a loaded artifact provably answers queries the
// way the saved one did.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/config.h"
#include "core/gcn.h"
#include "graph/ann/ann_index.h"
#include "graph/graph.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"

namespace galign {

/// Knobs of the artifact build that are not training configuration.
struct AlignmentIndexOptions {
  /// Width of the precomputed anchor table (degraded-mode answers return a
  /// prefix of this). Clamped to the target size.
  int64_t anchor_k = 10;
  /// Seed + effort baseline for the embedded ANN index.
  AnnConfig ann;
};

/// \brief Immutable, versioned alignment-serving artifact.
///
/// Build once (offline), serve forever: queries() row v against ann() is
/// the multi-order similarity argmax machinery of DESIGN.md §11, and
/// anchors() holds the full precomputed top-anchor_k table for requests
/// that must be answered after their query budget is gone.
class AlignmentIndex {
 public:
  /// \brief Trains Alg. 1 under `config` and assembles the artifact.
  ///
  /// Fails with DeadlineExceeded instead of emitting a partial artifact
  /// when `ctx` stops the build early — a half-built serving index is not
  /// a degraded answer, it is a wrong one.
  [[nodiscard]] static Result<std::shared_ptr<const AlignmentIndex>> Build(
      const GAlignConfig& config, const AttributedGraph& source,
      const AttributedGraph& target, const AlignmentIndexOptions& options,
      const RunContext& ctx = RunContext());

  int64_t num_source() const { return queries_.rows(); }
  int64_t num_target() const { return ann_->base().rows(); }
  int64_t anchor_k() const { return anchors_.k; }
  const std::vector<double>& theta() const { return theta_; }
  const MultiOrderGcn& model() const { return *gcn_; }
  /// Per-layer embeddings of each side, as the artifact stores them.
  const std::vector<Matrix>& source_layers() const { return source_layers_; }
  const std::vector<Matrix>& target_layers() const { return target_layers_; }
  /// Theta-scaled source concatenation: row v is the ready-made ANN query
  /// for source node v.
  const Matrix& queries() const { return queries_; }
  const AnnIndex& ann() const { return *ann_; }
  const AnnConfig& ann_config() const { return ann_config_; }
  /// Behavioral fingerprint of ann(): CRC32 over the answers to a fixed
  /// probe batch, recorded at Build and recomputed at Parse. Quarantine
  /// validation (serve/swap) replays the probes against this value to prove
  /// a candidate artifact answers the way the published one did.
  uint32_t ann_fingerprint() const { return ann_fingerprint_; }
  /// Precomputed top-anchor_k alignment of every source row (the
  /// degraded-mode answer table).
  const TopKAlignment& anchors() const { return anchors_; }
  /// Bytes held live by the artifact (embeddings + ANN + anchor table).
  uint64_t MemoryBytes() const;

  /// Text payload (no CRC trailer — the store frames it).
  std::string Serialize() const;

  /// \brief Verify-or-reject parse: every section is validated (shapes,
  /// hex payloads, ANN fingerprint) and any defect is a typed IOError
  /// naming `context` — never a partially-initialized artifact. Takes the
  /// payload by value: a moved-in payload is parsed without a copy.
  [[nodiscard]] static Result<std::shared_ptr<const AlignmentIndex>> Parse(
      std::string payload, const std::string& context,
      const RunContext& ctx = RunContext());

 private:
  AlignmentIndex() = default;

  std::vector<double> theta_;
  uint32_t ann_fingerprint_ = 0;
  std::unique_ptr<MultiOrderGcn> gcn_;
  std::vector<Matrix> source_layers_;
  std::vector<Matrix> target_layers_;
  Matrix queries_;
  AnnConfig ann_config_;
  std::unique_ptr<AnnIndex> ann_;
  TopKAlignment anchors_;
};

/// \brief Generation store for AlignmentIndex artifacts.
///
/// A typed front over GenerationStore (common/durable_io.h), the same
/// mechanism CheckpointManager uses: Save() atomically writes the next
/// generation file and prunes to `keep` survivors; LoadLatest() walks the
/// generations on disk newest-first, falling back past torn files, and
/// distinguishes "nothing published yet" (NotFound) from "every published
/// generation is torn" (IOError naming the generation count and newest
/// failure). Fault sites: "serve.artifact.save", "serve.artifact.load".
///
/// Retention (DESIGN.md §13): survivors are the `keep` newest CRC-valid
/// generations plus the pinned (last-good) generation; torn files are
/// garbage-collected once a valid generation exists to serve from.
/// LoadLatest() pins whatever it returns; the swap watcher re-pins each
/// generation it publishes, so the artifact a live server answers from is
/// never pruned out from under a restart.
class AlignmentIndexStore {
 public:
  explicit AlignmentIndexStore(std::string dir, int keep = 2);

  /// Durably publishes `index` as the next generation and applies the
  /// retention policy.
  [[nodiscard]] Status Save(const AlignmentIndex& index);

  /// Loads the newest generation that passes full verification. On success
  /// pins the returned generation (and reports it via `loaded_generation`
  /// when non-null).
  [[nodiscard]] Result<std::shared_ptr<const AlignmentIndex>> LoadLatest(
      const RunContext& ctx = RunContext(),
      int* loaded_generation = nullptr) const;

  /// \brief Loads exactly generation `gen`, verify-or-reject.
  ///
  /// Unlike LoadLatest there is no fallback and no pinning — this is the
  /// quarantine load: the candidate has not earned trust yet. Honors the
  /// "serve.artifact.load" fault site.
  [[nodiscard]] Result<std::shared_ptr<const AlignmentIndex>> LoadGeneration(
      int gen, const RunContext& ctx = RunContext()) const;

  /// Generations on disk, newest first (one directory scan).
  std::vector<int> Generations() const { return store_.Generations(); }

  /// Highest generation number on disk, or 0. The swap watcher polls this
  /// to detect new publications.
  int NewestGeneration() const { return store_.Newest(); }

  /// Last-good pinning: `gen` survives retention regardless of age.
  void SetPinnedGeneration(int gen) { store_.Pin(gen); }
  int pinned_generation() const { return store_.pinned(); }

  /// Runs the retention pass now (keep-last-N + pin + torn GC). Save() does
  /// this automatically; the swap watcher calls it after each publish.
  [[nodiscard]] Status ApplyRetention() { return store_.ApplyRetention(); }

  /// Path of generation `gen`'s artifact file (chaos/test tooling).
  std::string GenerationPath(int gen) const { return store_.PathOf(gen); }

  const std::string& dir() const { return store_.dir(); }

 private:
  GenerationStore store_;
};

}  // namespace galign
