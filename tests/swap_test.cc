// Hot-swap continuous-availability tests (DESIGN.md §13): the quarantine
// validation battery, AlignServer generation plumbing, the ArtifactWatcher
// detect → quarantine → validate → publish state machine, the poisoned-
// generation (never-retry) semantics, the health surface, and the shared
// keep-last-N + last-good-pin retention policy and directory-scan loading
// of the generation store behind AlignmentIndexStore and CheckpointManager.
// The invariant: a live server only ever answers from a
// generation that passed validation, and a bad publication costs a typed
// quarantine record, never availability.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/durable_io.h"
#include "common/fault.h"
#include "core/checkpoint.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "serve/alignment_index.h"
#include "serve/server.h"
#include "serve/swap/swap.h"

namespace galign {
namespace {

class SwapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(23);
    auto g = BarabasiAlbert(50, 3, &rng).MoveValueOrDie();
    g = g.WithAttributes(BinaryAttributes(50, 8, 0.3, &rng)).MoveValueOrDie();
    NoisyCopyOptions opts;
    opts.structural_noise = 0.05;
    auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
    GAlignConfig config;
    config.epochs = 3;
    config.embedding_dim = 16;
    AlignmentIndexOptions options;
    options.anchor_k = 4;
    auto built =
        AlignmentIndex::Build(config, pair.source, pair.target, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new std::shared_ptr<const AlignmentIndex>(built.ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
  }

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_swap_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  const std::shared_ptr<const AlignmentIndex>& Index() { return *index_; }
  std::string Dir(const std::string& name) { return (dir_ / name).string(); }

  ServeConfig SmallConfig() {
    ServeConfig config;
    config.workers = 1;
    config.queue_capacity = 4;
    config.default_deadline_ms = 2000.0;
    return config;
  }

  /// A fast-polling (test-driven) watcher config.
  SwapConfig FastConfig() {
    SwapConfig config;
    config.poll_interval_ms = 1.0;
    return config;
  }

  /// Writes `payload` (CRC-trailered) as generation `gen` of `store`,
  /// bypassing Save — the chaos publisher's path.
  void PublishRaw(const AlignmentIndexStore& store, int gen,
                  const std::string& payload) {
    ASSERT_TRUE(
        AtomicWriteFile(store.GenerationPath(gen), AppendCrc32Trailer(payload))
            .ok());
  }

  /// Golden payload with one hex digit of the recipe's recorded ANN
  /// fingerprint flipped: loads must reject with a fingerprint mismatch.
  std::string FingerprintTampered() {
    std::string payload = Index()->Serialize();
    const size_t fp = payload.find("fingerprint ");
    EXPECT_NE(fp, std::string::npos);
    const size_t p = fp + std::string("fingerprint ").size();
    payload[p] = payload[p] == '7' ? '3' : '7';
    return payload;
  }

  /// Golden payload with one hex digit of theta[0] flipped: still parses
  /// (valid hex, valid CRC) but the anchors disagree with the rebuilt
  /// queries — only the quarantine anchor spot check catches it.
  std::string ThetaTampered() {
    std::string payload = Index()->Serialize();
    const size_t theta = payload.find("\ntheta ");
    EXPECT_NE(theta, std::string::npos);
    const size_t p = payload.find(' ', theta + 7) + 1;
    payload[p] = payload[p] == '7' ? '3' : '7';
    return payload;
  }

  /// One typed front of the generation store, driven like the other:
  /// `save(g)` publishes generation g through the front's Save, `payload(g)`
  /// is a valid payload for g, and `load_latest()` reports the generation
  /// the front's LoadLatest returned.
  struct Front {
    std::string name;
    std::string dir;
    std::string prefix;
    std::function<Status(int)> save;
    std::function<std::string(int)> payload;
    std::function<Result<int>()> load_latest;

    std::string Path(int gen) const {
      char digits[16];
      std::snprintf(digits, sizeof(digits), "%08d", gen);
      return dir + "/" + prefix + digits;
    }
  };

  static TrainerCheckpoint SmallCheckpoint(int epoch) {
    TrainerCheckpoint ckpt;
    ckpt.epoch = epoch;
    ckpt.weights.push_back(Matrix(2, 2, 1.0));
    return ckpt;
  }

  /// The checkpoint and artifact fronts over fresh directories.
  std::vector<Front> BothFronts(const std::string& tag) {
    auto mgr = std::make_shared<CheckpointManager>(Dir(tag + "_ckpt"));
    auto store = std::make_shared<AlignmentIndexStore>(Dir(tag + "_aidx"));
    const std::shared_ptr<const AlignmentIndex> index = Index();
    return {
        {"checkpoint", mgr->dir(), "ckpt_",
         [mgr](int gen) { return mgr->Save(SmallCheckpoint(gen)); },
         [](int gen) { return SerializeCheckpoint(SmallCheckpoint(gen)); },
         [mgr]() -> Result<int> {
           auto loaded = mgr->LoadLatest();
           if (!loaded.ok()) return loaded.status();
           return loaded.ValueOrDie().epoch;
         }},
        {"artifact", store->dir(), "aidx_",
         [store, index](int) { return store->Save(*index); },
         [index](int) { return index->Serialize(); },
         [store]() -> Result<int> {
           int gen = 0;
           auto loaded = store->LoadLatest(RunContext(), &gen);
           if (!loaded.ok()) return loaded.status();
           return gen;
         }},
    };
  }

  std::filesystem::path dir_;
  static std::shared_ptr<const AlignmentIndex>* index_;
};

std::shared_ptr<const AlignmentIndex>* SwapTest::index_ = nullptr;

// --- Quarantine validation battery ---------------------------------------

TEST_F(SwapTest, ValidateCandidateAcceptsGoldenArtifact) {
  const ValidationOutcome verdict = ValidateCandidate(*Index(), SwapConfig{});
  EXPECT_TRUE(verdict.ok) << QuarantineReasonName(verdict.reason) << ": "
                          << verdict.detail;
  EXPECT_GT(verdict.latency_ms, 0.0);
}

TEST_F(SwapTest, ValidateCandidateCatchesAnchorDisagreement) {
  // A reload of a theta-tampered artifact: parses fine, answers wrong.
  auto tampered = AlignmentIndex::Parse(ThetaTampered(), "theta-tampered");
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  const ValidationOutcome verdict =
      ValidateCandidate(*tampered.ValueOrDie(), SwapConfig{});
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.reason, QuarantineReason::kAnchorMismatch);
  EXPECT_NE(verdict.detail.find("anchor row"), std::string::npos)
      << verdict.detail;
}

TEST_F(SwapTest, ValidateCandidateSmokeLatencyBound) {
  SwapConfig config;
  config.smoke_latency_ms = 0.0;  // nothing is fast enough
  const ValidationOutcome verdict = ValidateCandidate(*Index(), config);
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.reason, QuarantineReason::kSmokeLatency);
}

// --- AlignServer generation plumbing -------------------------------------

TEST_F(SwapTest, InFlightRequestsFinishOnAdmissionGeneration) {
  // Admit requests against generation 1, swap to generation 2 before any
  // worker runs: the queued requests must answer from (and be stamped
  // with) the artifact they were admitted against.
  auto second = AlignmentIndex::Parse(Index()->Serialize(), "gen2");
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  AlignServer server(Index(), SmallConfig(), /*generation=*/1);
  std::vector<std::future<QueryResponse>> queued;
  for (int i = 0; i < 3; ++i) {
    QueryRequest request;
    request.node = i;
    queued.push_back(server.Submit(request));
  }
  server.SwapIndex(second.ValueOrDie(), /*generation=*/2);
  EXPECT_EQ(server.serving_generation(), 2);
  EXPECT_EQ(server.Snapshot().swaps, 1u);
  server.Start();
  for (auto& future : queued) {
    QueryResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.generation, 1);
  }
  // New admissions see the new generation.
  QueryRequest request;
  request.node = 0;
  QueryResponse fresh = server.SubmitAndWait(request);
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_EQ(fresh.generation, 2);
}

TEST_F(SwapTest, SwapRetiresOldArtifactOnceInFlightDrains) {
  auto second = AlignmentIndex::Parse(Index()->Serialize(), "gen2");
  ASSERT_TRUE(second.ok());
  std::weak_ptr<const AlignmentIndex> old_alive;
  {
    std::shared_ptr<const AlignmentIndex> old_copy =
        AlignmentIndex::Parse(Index()->Serialize(), "gen1").ValueOrDie();
    old_alive = old_copy;
    AlignServer server(std::move(old_copy), SmallConfig(), 1);
    server.Start();
    QueryRequest request;
    request.node = 1;
    EXPECT_TRUE(server.SubmitAndWait(request).status.ok());
    EXPECT_FALSE(old_alive.expired());  // server still holds it
    server.SwapIndex(second.ValueOrDie(), 2);
    // No request in flight: the swap dropped the server's reference, and
    // the worker's transient Pending copy drains within moments.
    Timer wait;
    while (!old_alive.expired() && wait.Seconds() < 5.0) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(old_alive.expired());
    EXPECT_TRUE(server.SubmitAndWait(request).status.ok());
    server.Shutdown();
  }
}

// --- ArtifactWatcher: publish path ---------------------------------------

TEST_F(SwapTest, WatcherPublishesNewGenerationAndRecordsHistory) {
  AlignmentIndexStore store(Dir("aidx"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  int gen = 0;
  auto loaded = store.LoadLatest(RunContext(), &gen);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(gen, 1);

  AlignServer server(loaded.ValueOrDie(), SmallConfig(), gen);
  server.Start();
  ArtifactWatcher watcher(&server, &store, FastConfig());
  EXPECT_FALSE(watcher.PollOnce());  // nothing newer than serving

  ASSERT_TRUE(store.Save(*Index()).ok());  // generation 2 appears
  EXPECT_TRUE(watcher.PollOnce());
  EXPECT_EQ(server.serving_generation(), 2);
  EXPECT_EQ(store.pinned_generation(), 2);  // last-good re-pinned

  const SwapHealth health = watcher.Health();
  EXPECT_TRUE(health.ready);
  EXPECT_EQ(health.serving_generation, 2);
  EXPECT_EQ(health.newest_seen_generation, 2);
  EXPECT_EQ(health.candidate_generation, 0);
  ASSERT_EQ(health.swaps.size(), 1u);
  EXPECT_EQ(health.swaps[0].from_generation, 1);
  EXPECT_EQ(health.swaps[0].to_generation, 2);
  EXPECT_GE(health.swaps[0].quarantine_ms, 0.0);
  EXPECT_TRUE(health.quarantined.empty());
  EXPECT_EQ(health.stats.swaps, 1u);

  // Queries answer from the new generation.
  QueryRequest request;
  request.node = 3;
  QueryResponse response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.generation, 2);
  EXPECT_NE(FormatHealth(health).find("serving_generation: 2"),
            std::string::npos);
}

TEST_F(SwapTest, BackgroundWatcherThreadPublishes) {
  AlignmentIndexStore store(Dir("aidx"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  int gen = 0;
  auto loaded = store.LoadLatest(RunContext(), &gen);
  ASSERT_TRUE(loaded.ok());

  AlignServer server(loaded.ValueOrDie(), SmallConfig(), gen);
  server.Start();
  ArtifactWatcher watcher(&server, &store, FastConfig());
  watcher.Start();
  ASSERT_TRUE(store.Save(*Index()).ok());
  Timer wait;
  while (server.serving_generation() != 2 && wait.Seconds() < 10.0) {
    std::this_thread::yield();
  }
  watcher.Stop();
  EXPECT_EQ(server.serving_generation(), 2);
}

// --- ArtifactWatcher: quarantine + poisoned generations ------------------

TEST_F(SwapTest, TornCandidateIsPoisonedAndNeverRetried) {
  AlignmentIndexStore store(Dir("aidx"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  AlignServer server(loaded.ValueOrDie(), SmallConfig(), 1);
  server.Start();
  ArtifactWatcher watcher(&server, &store, FastConfig());

  {
    std::ofstream torn(store.GenerationPath(2),
                       std::ios::trunc | std::ios::binary);
    torn << "crashed mid-write";
  }
  EXPECT_FALSE(watcher.PollOnce());
  EXPECT_TRUE(watcher.IsPoisoned(2));
  EXPECT_EQ(server.serving_generation(), 1);  // still on last-good

  // Poisoned means *never retried*: subsequent passes do not reload it.
  const int loads_after_poison = fault::CallCount("serve.artifact.load");
  EXPECT_FALSE(watcher.PollOnce());
  EXPECT_FALSE(watcher.PollOnce());
  EXPECT_EQ(fault::CallCount("serve.artifact.load"), loads_after_poison);

  const SwapHealth health = watcher.Health();
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].generation, 2);
  EXPECT_EQ(health.quarantined[0].reason, QuarantineReason::kLoadFailed);
  EXPECT_FALSE(health.quarantined[0].detail.empty());

  // A good generation published *after* the poisoned one still lands.
  PublishRaw(store, 3, Index()->Serialize());
  EXPECT_TRUE(watcher.PollOnce());
  EXPECT_EQ(server.serving_generation(), 3);
}

TEST_F(SwapTest, FingerprintTamperedCandidateQuarantinedTyped) {
  AlignmentIndexStore store(Dir("aidx"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  AlignServer server(loaded.ValueOrDie(), SmallConfig(), 1);
  ArtifactWatcher watcher(&server, &store, FastConfig());

  PublishRaw(store, 2, FingerprintTampered());
  EXPECT_FALSE(watcher.PollOnce());
  const SwapHealth health = watcher.Health();
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].reason,
            QuarantineReason::kFingerprintMismatch);
  EXPECT_EQ(server.serving_generation(), 1);
}

TEST_F(SwapTest, AnchorDisagreementQuarantinedTyped) {
  AlignmentIndexStore store(Dir("aidx"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  AlignServer server(loaded.ValueOrDie(), SmallConfig(), 1);
  ArtifactWatcher watcher(&server, &store, FastConfig());

  PublishRaw(store, 2, ThetaTampered());
  EXPECT_FALSE(watcher.PollOnce());
  const SwapHealth health = watcher.Health();
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].reason, QuarantineReason::kAnchorMismatch);
  EXPECT_EQ(server.serving_generation(), 1);
}

TEST_F(SwapTest, SwapFaultSitesQuarantineTyped) {
  AlignmentIndexStore store(Dir("aidx"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  AlignServer server(loaded.ValueOrDie(), SmallConfig(), 1);
  ArtifactWatcher watcher(&server, &store, FastConfig());

  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;

  // Detect fault: the pass is skipped, nothing is poisoned, and the next
  // clean pass publishes — detection has no candidate to blame.
  PublishRaw(store, 2, Index()->Serialize());
  fault::Arm("serve.swap.detect", spec);
  EXPECT_FALSE(watcher.PollOnce());
  EXPECT_TRUE(watcher.Health().quarantined.empty());
  fault::DisarmAll();
  EXPECT_TRUE(watcher.PollOnce());
  EXPECT_EQ(server.serving_generation(), 2);

  // Validate fault poisons the candidate with its own typed reason.
  PublishRaw(store, 3, Index()->Serialize());
  fault::Arm("serve.swap.validate", spec);
  EXPECT_FALSE(watcher.PollOnce());
  fault::DisarmAll();
  ASSERT_TRUE(watcher.IsPoisoned(3));
  EXPECT_EQ(server.serving_generation(), 2);

  // Publish fault likewise; the server never saw either candidate.
  PublishRaw(store, 4, Index()->Serialize());
  fault::Arm("serve.swap.publish", spec);
  EXPECT_FALSE(watcher.PollOnce());
  fault::DisarmAll();
  ASSERT_TRUE(watcher.IsPoisoned(4));
  EXPECT_EQ(server.serving_generation(), 2);

  const SwapHealth health = watcher.Health();
  ASSERT_EQ(health.quarantined.size(), 2u);
  EXPECT_EQ(health.quarantined[0].reason, QuarantineReason::kValidateFault);
  EXPECT_EQ(health.quarantined[1].reason, QuarantineReason::kPublishFault);

  // A later good generation still publishes past both poisoned ones.
  PublishRaw(store, 5, Index()->Serialize());
  EXPECT_TRUE(watcher.PollOnce());
  EXPECT_EQ(server.serving_generation(), 5);
}

TEST_F(SwapTest, CandidateOverBudgetQuarantinedAsMemory) {
  AlignmentIndexStore store(Dir("aidx"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  AlignServer server(loaded.ValueOrDie(), SmallConfig(), 1);
  SwapConfig config = FastConfig();
  config.budget = std::make_shared<MemoryBudget>(uint64_t{1} << 10);  // 1 KiB
  ArtifactWatcher watcher(&server, &store, config);

  PublishRaw(store, 2, Index()->Serialize());
  EXPECT_FALSE(watcher.PollOnce());
  const SwapHealth health = watcher.Health();
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].reason, QuarantineReason::kMemoryBudget);
  EXPECT_EQ(server.serving_generation(), 1);
  // The rejected candidate's reservation was fully released.
  EXPECT_EQ(config.budget->reserved(), 0u);
}

// --- Retention: keep-last-N + last-good pin + torn GC --------------------

TEST_F(SwapTest, StoreRetentionKeepsNewestAndPinned) {
  AlignmentIndexStore store(Dir("aidx"), /*keep=*/2);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(store.Save(*Index()).ok());
  // keep=2, no pin: only generations 3 and 4 survive.
  EXPECT_FALSE(std::filesystem::exists(store.GenerationPath(1)));
  EXPECT_FALSE(std::filesystem::exists(store.GenerationPath(2)));
  EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(3)));
  EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(4)));

  // Pin 3 (the generation a live server answers from), publish two more:
  // 3 outlives the keep window.
  store.SetPinnedGeneration(3);
  ASSERT_TRUE(store.Save(*Index()).ok());
  ASSERT_TRUE(store.Save(*Index()).ok());
  EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(3)));
  EXPECT_FALSE(std::filesystem::exists(store.GenerationPath(4)));
  EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(5)));
  EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(6)));

  // The survivors all still load.
  auto latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
}

TEST_F(SwapTest, StoreRetentionCollectsTornOnlyWithValidSurvivor) {
  AlignmentIndexStore store(Dir("aidx"), /*keep=*/2);
  ASSERT_TRUE(store.Save(*Index()).ok());
  {
    std::ofstream torn(store.GenerationPath(2),
                       std::ios::trunc | std::ios::binary);
    torn << "bit rot";
  }
  // The next Save's retention pass garbage-collects the torn file because
  // generation 1 (and now 3) are valid survivors.
  ASSERT_TRUE(store.Save(*Index()).ok());
  EXPECT_FALSE(std::filesystem::exists(store.GenerationPath(2)));
  EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(1)));
  EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(3)));
  // The all-torn → IOError contract is untouched: LoadLatest never turns
  // "every generation torn" into a silent cold start (serve_test covers
  // that path; here every survivor is valid).
  EXPECT_TRUE(store.LoadLatest().ok());
}

TEST_F(SwapTest, CheckpointManagerSharesRetentionPolicy) {
  CheckpointManager mgr(Dir("ckpt"), /*keep=*/2);
  TrainerCheckpoint ckpt;
  ckpt.weights.push_back(Matrix(2, 2, 1.0));
  for (int epoch = 1; epoch <= 4; ++epoch) {
    ckpt.epoch = epoch;
    ASSERT_TRUE(mgr.Save(ckpt).ok());
  }
  EXPECT_FALSE(std::filesystem::exists(Dir("ckpt") + "/ckpt_00000001"));
  EXPECT_FALSE(std::filesystem::exists(Dir("ckpt") + "/ckpt_00000002"));
  EXPECT_TRUE(std::filesystem::exists(Dir("ckpt") + "/ckpt_00000003"));
  EXPECT_TRUE(std::filesystem::exists(Dir("ckpt") + "/ckpt_00000004"));

  // Pinned epoch survives past the keep window, exactly like the store.
  mgr.SetPinnedEpoch(3);
  for (int epoch = 5; epoch <= 6; ++epoch) {
    ckpt.epoch = epoch;
    ASSERT_TRUE(mgr.Save(ckpt).ok());
  }
  EXPECT_TRUE(std::filesystem::exists(Dir("ckpt") + "/ckpt_00000003"));
  EXPECT_FALSE(std::filesystem::exists(Dir("ckpt") + "/ckpt_00000004"));
  EXPECT_TRUE(std::filesystem::exists(Dir("ckpt") + "/ckpt_00000005"));
  EXPECT_TRUE(std::filesystem::exists(Dir("ckpt") + "/ckpt_00000006"));
  auto latest = mgr.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.ValueOrDie().epoch, 6);
  EXPECT_EQ(mgr.pinned_epoch(), 6);  // LoadLatest re-pins what it returned
}

// --- Loaders scan the directory, never the MANIFEST --------------------

TEST_F(SwapTest, LoadLatestTakesNewestValidGenerationWhateverTheManifest) {
  enum class Manifest { kMissing, kCorrupt, kStale };
  for (const Manifest manifest :
       {Manifest::kMissing, Manifest::kCorrupt, Manifest::kStale}) {
    const std::string tag = "manifest" + std::to_string(int(manifest));
    for (const Front& front : BothFronts(tag)) {
      SCOPED_TRACE(front.name + " " + tag);
      ASSERT_TRUE(front.save(1).ok());
      ASSERT_TRUE(front.save(2).ok());
      // Generation 3 as a crash between the generation write and the
      // retention pass leaves it: valid on disk, absent from the MANIFEST.
      ASSERT_TRUE(AtomicWriteFile(front.Path(3),
                                  AppendCrc32Trailer(front.payload(3)))
                      .ok());
      // A writer's temp file is never a generation, whatever its number.
      const std::string tmp = front.Path(9) + ".tmp.4242";
      std::ofstream(tmp, std::ios::binary) << "half-written";
      const std::string manifest_path = front.dir + "/MANIFEST";
      switch (manifest) {
        case Manifest::kMissing:
          ASSERT_TRUE(std::filesystem::remove(manifest_path));
          break;
        case Manifest::kCorrupt:
          std::ofstream(manifest_path, std::ios::trunc | std::ios::binary)
              << "bit rot";
          break;
        case Manifest::kStale:  // still lists generations 2 and 1 only
          break;
      }
      auto loaded = front.load_latest();
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded.ValueOrDie(), 3);

      // The next Save's retention pass keeps the pinned generation 3 and
      // leaves the temp file alone: it neither counts nor is collected.
      ASSERT_TRUE(front.save(4).ok());
      EXPECT_TRUE(std::filesystem::exists(front.Path(3)));
      EXPECT_TRUE(std::filesystem::exists(tmp));
    }
  }
}

TEST_F(SwapTest, CheckpointNameBeyondEightDigitsIsNotAGeneration) {
  std::filesystem::create_directories(Dir("ckpt"));
  // 4294967297 is 2^32 + 1: narrowed to 32 bits it would read as epoch 1.
  const std::string alien = Dir("ckpt") + "/ckpt_4294967297";
  std::ofstream(alien, std::ios::binary) << "not a checkpoint";
  CheckpointManager mgr(Dir("ckpt"));
  auto none = mgr.LoadLatest();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound)
      << none.status().ToString();

  for (int epoch = 1; epoch <= 3; ++epoch) {
    ASSERT_TRUE(mgr.Save(SmallCheckpoint(epoch)).ok());
  }
  auto latest = mgr.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.ValueOrDie().epoch, 3);
  EXPECT_TRUE(std::filesystem::exists(alien));  // retention never touched it

  // Nor is such a name ever written.
  EXPECT_EQ(mgr.Save(SmallCheckpoint(GenerationStore::kMaxGeneration + 1))
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace galign
