// The serving subsystem's contract tests (DESIGN.md §12): the immutable
// AlignmentIndex artifact (build / serialize / verify-or-reject load /
// generation fallback), AlignServer admission control and load shedding,
// degraded-mode answers, and the typed-failure surface of both under
// injected faults. The invariant every test circles back to: an admitted
// request always resolves — full answer, marked degraded answer, or typed
// rejection — and overload never crashes or hangs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/durable_io.h"
#include "common/fault.h"
#include "core/checkpoint.h"
#include "core/model_io.h"
#include "graph/ann/ann_io.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "serve/alignment_index.h"
#include "serve/client.h"
#include "serve/server.h"

namespace galign {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(11);
    auto g = BarabasiAlbert(60, 3, &rng).MoveValueOrDie();
    g = g.WithAttributes(BinaryAttributes(60, 8, 0.3, &rng)).MoveValueOrDie();
    NoisyCopyOptions opts;
    opts.structural_noise = 0.05;
    auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();

    GAlignConfig config;
    config.epochs = 4;
    config.embedding_dim = 16;
    AlignmentIndexOptions options;
    options.anchor_k = 5;
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
           ("galign_serve_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  const std::shared_ptr<const AlignmentIndex>& Index() { return *index_; }
  std::string Dir(const std::string& name) { return (dir_ / name).string(); }

  /// A small, fast server config: one worker so queue depth is
  /// controllable, degraded effort from half-full.
  ServeConfig SmallConfig() {
    ServeConfig config;
    config.workers = 1;
    config.queue_capacity = 4;
    config.default_deadline_ms = 2000.0;
    config.retry_after_ms = 5.0;
    return config;
  }

  std::filesystem::path dir_;
  static std::shared_ptr<const AlignmentIndex>* index_;
};

std::shared_ptr<const AlignmentIndex>* ServeTest::index_ = nullptr;

// --- Artifact ------------------------------------------------------------

TEST_F(ServeTest, BuildProducesCompleteArtifact) {
  const AlignmentIndex& index = *Index();
  EXPECT_EQ(index.num_source(), 60);
  EXPECT_EQ(index.num_target(), 60);
  EXPECT_EQ(index.anchor_k(), 5);
  EXPECT_EQ(index.anchors().rows_computed, index.num_source());
  EXPECT_FALSE(index.ann().truncated());
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST_F(ServeTest, SerializeIsDeterministic) {
  EXPECT_EQ(Index()->Serialize(), Index()->Serialize());
}

TEST_F(ServeTest, ParseRoundTripsBitExactly) {
  const std::string payload = Index()->Serialize();
  auto back = AlignmentIndex::Parse(payload, "round-trip");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const AlignmentIndex& a = *Index();
  const AlignmentIndex& b = *back.ValueOrDie();
  EXPECT_EQ(a.theta(), b.theta());
  EXPECT_EQ(a.anchors().index, b.anchors().index);
  EXPECT_EQ(a.anchors().score, b.anchors().score);
  ASSERT_EQ(a.queries().rows(), b.queries().rows());
  ASSERT_EQ(a.queries().cols(), b.queries().cols());
  for (int64_t i = 0; i < a.queries().size(); ++i) {
    EXPECT_EQ(a.queries().data()[i], b.queries().data()[i]);
  }
  // The rebuilt ANN index answers identically (that is what the recipe
  // fingerprint asserts; double-check through the public query surface).
  auto qa = a.ann().QueryBatch(a.queries(), 3);
  auto qb = b.ann().QueryBatch(b.queries(), 3);
  ASSERT_TRUE(qa.ok());
  ASSERT_TRUE(qb.ok());
  EXPECT_EQ(qa.ValueOrDie().index, qb.ValueOrDie().index);
  EXPECT_EQ(qa.ValueOrDie().score, qb.ValueOrDie().score);
  EXPECT_EQ(payload, b.Serialize());
}

TEST_F(ServeTest, ParseKeepsNonDefaultAnnConfig) {
  // A loaded artifact must re-serialize to the recipe it was loaded from:
  // with the default config restored instead, the recipe would name 16
  // probes and fail its own fingerprint check on the next load.
  Rng rng(13);
  auto g = BarabasiAlbert(40, 3, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(40, 8, 0.3, &rng)).MoveValueOrDie();
  auto pair = MakeNoisyCopyPair(g, NoisyCopyOptions(), &rng).MoveValueOrDie();
  GAlignConfig config;
  config.epochs = 2;
  config.embedding_dim = 8;
  AlignmentIndexOptions options;
  options.ann.seed = 7;
  options.ann.lsh_probes = 48;
  auto built = AlignmentIndex::Build(config, pair.source, pair.target, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string payload = built.ValueOrDie()->Serialize();
  auto back = AlignmentIndex::Parse(payload, "non-default ann");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie()->ann_config().seed, 7u);
  EXPECT_EQ(back.ValueOrDie()->ann_config().lsh_probes, 48);
  EXPECT_EQ(back.ValueOrDie()->Serialize(), payload);
}

// The artifact writer as it was before the hex-run codec: one HexDouble per
// value through an ostringstream. Serialize() must keep producing exactly
// these bytes, so artifacts stay loadable across versions.
std::string ReferenceSerialize(const AlignmentIndex& index) {
  std::ostringstream out;
  auto raw = [&out](const char* key, const std::string& payload) {
    out << key << " " << payload.size() << "\n" << payload << "\n";
  };
  auto matrices = [&out](const char* key, const std::vector<Matrix>& ms) {
    out << key << " " << ms.size() << "\n";
    for (const Matrix& m : ms) {
      out << m.rows() << " " << m.cols() << "\n";
      for (int64_t i = 0; i < m.size(); ++i) {
        if (i) out << (i % 8 == 0 ? "\n" : " ");
        out << HexDouble(m.data()[i]);
      }
      if (m.size()) out << "\n";
    }
  };
  out << "galign-aidx-v1\n";
  out << "theta " << index.theta().size();
  for (double t : index.theta()) out << " " << HexDouble(t);
  out << "\n";
  raw("model", SerializeGcnModel(index.model()));
  matrices("source_layers", index.source_layers());
  matrices("target_layers", index.target_layers());
  raw("ann", SerializeAnnRecipe(index.ann(), index.ann_config()));
  const TopKAlignment& a = index.anchors();
  out << "anchors " << a.rows << " " << a.cols << " " << a.k << " "
      << a.rows_computed << "\n";
  for (size_t i = 0; i < a.index.size(); ++i) {
    if (i) out << (i % 16 == 0 ? "\n" : " ");
    out << a.index[i];
  }
  if (!a.index.empty()) out << "\n";
  for (size_t i = 0; i < a.score.size(); ++i) {
    if (i) out << (i % 8 == 0 ? "\n" : " ");
    out << HexDouble(a.score[i]);
  }
  if (!a.score.empty()) out << "\n";
  out << "end\n";
  return out.str();
}

TEST_F(ServeTest, SerializeMatchesPerValueReferenceEmitter) {
  const std::string payload = Index()->Serialize();
  EXPECT_EQ(payload, ReferenceSerialize(*Index()));
  // And the framed file is what the store writes and reads back.
  AlignmentIndexStore store(Dir("ref"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  auto file = ReadFileToString(store.GenerationPath(1));
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.ValueOrDie(), AppendCrc32Trailer(ReferenceSerialize(*Index())));
  auto loaded = store.LoadGeneration(1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie()->Serialize(), payload);
}

TEST_F(ServeTest, ParseRejectsTamperedTargetLayers) {
  const std::string payload = Index()->Serialize();
  // Flip the leading hex digit (exponent bits) of target_layers[0](0,0):
  // still valid hex, so the matrix list parses, but the value changes by
  // orders of magnitude. Row 0 is one of the fingerprint's probe rows, so
  // the rebuilt ANN index answers differently and verify-or-reject fires.
  const size_t target_pos = payload.find("target_layers");
  ASSERT_NE(target_pos, std::string::npos);
  const size_t header_end = payload.find('\n', target_pos);
  ASSERT_NE(header_end, std::string::npos);
  const size_t shape_end = payload.find('\n', header_end + 1);
  ASSERT_NE(shape_end, std::string::npos);
  std::string tampered = payload;
  const size_t p = shape_end + 1;  // first hex digit of the first value
  tampered[p] = tampered[p] == '4' ? '5' : '4';
  auto r = AlignmentIndex::Parse(tampered, "tampered");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(ServeTest, ParseRejectsTamperedFingerprint) {
  const std::string payload = Index()->Serialize();
  const size_t fp_pos = payload.find("fingerprint ");
  ASSERT_NE(fp_pos, std::string::npos);
  std::string tampered = payload;
  const size_t p = fp_pos + std::string("fingerprint ").size();
  tampered[p] = tampered[p] == 'a' ? 'b' : 'a';
  auto r = AlignmentIndex::Parse(tampered, "tampered");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("fingerprint"), std::string::npos)
      << r.status().message();
}

TEST_F(ServeTest, ParseRejectsTruncation) {
  const std::string payload = Index()->Serialize();
  for (double frac : {0.1, 0.5, 0.9, 0.99}) {
    auto r = AlignmentIndex::Parse(
        payload.substr(0, static_cast<size_t>(payload.size() * frac)),
        "truncated");
    ASSERT_FALSE(r.ok()) << "at fraction " << frac;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
}

// --- Store ---------------------------------------------------------------

TEST_F(ServeTest, StoreRoundTripAndGenerations) {
  AlignmentIndexStore store(Dir("store"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  ASSERT_TRUE(store.Save(*Index()).ok());  // second generation
  EXPECT_TRUE(std::filesystem::exists(Dir("store") + "/aidx_00000002"));
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie()->Serialize(), Index()->Serialize());
}

TEST_F(ServeTest, StoreFallsBackPastTornNewestGeneration) {
  AlignmentIndexStore store(Dir("store"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  ASSERT_TRUE(store.Save(*Index()).ok());
  {
    std::ofstream torn(Dir("store") + "/aidx_00000002",
                       std::ios::trunc | std::ios::binary);
    torn << "torn write: not a valid artifact";
  }
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie()->Serialize(), Index()->Serialize());
}

TEST_F(ServeTest, StoreDistinguishesEmptyFromAllTorn) {
  AlignmentIndexStore empty(Dir("nothing"));
  std::filesystem::create_directories(Dir("nothing"));
  auto none = empty.LoadLatest();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);

  AlignmentIndexStore store(Dir("store"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  ASSERT_TRUE(store.Save(*Index()).ok());
  for (const char* name : {"/aidx_00000001", "/aidx_00000002"}) {
    std::ofstream torn(Dir("store") + name,
                       std::ios::trunc | std::ios::binary);
    torn << "bit rot";
  }
  auto all_torn = store.LoadLatest();
  ASSERT_FALSE(all_torn.ok());
  EXPECT_EQ(all_torn.status().code(), StatusCode::kIOError);
  EXPECT_NE(all_torn.status().message().find("artifact generations"),
            std::string::npos);
  EXPECT_NE(all_torn.status().message().find("newest error"),
            std::string::npos);
}

TEST_F(ServeTest, CheckpointManagerDistinguishesEmptyFromAllTorn) {
  // The same typed contract, retrofitted onto the trainer's checkpoint
  // loader.
  CheckpointManager empty(Dir("ckpt_none"));
  std::filesystem::create_directories(Dir("ckpt_none"));
  auto none = empty.LoadLatest();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);

  std::filesystem::create_directories(Dir("ckpt"));
  {
    std::ofstream torn(Dir("ckpt") + "/ckpt_00000003",
                       std::ios::trunc | std::ios::binary);
    torn << "garbage checkpoint bytes";
  }
  CheckpointManager mgr(Dir("ckpt"));
  auto r = mgr.LoadLatest();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("checkpoint generations"),
            std::string::npos);
}

TEST_F(ServeTest, StoreFaultSitesInjectTypedFailures) {
  AlignmentIndexStore store(Dir("store"));
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("serve.artifact.save", spec);
  Status saved = store.Save(*Index());
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kIOError);
  fault::DisarmAll();

  ASSERT_TRUE(store.Save(*Index()).ok());
  spec.repeat = 1000;  // every generation read fails
  fault::Arm("serve.artifact.load", spec);
  auto loaded = store.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  fault::DisarmAll();
  // And with the fault gone the same store loads fine — the failure was
  // injected, not persistent.
  EXPECT_TRUE(store.LoadLatest().ok());
}

// --- Server admission + shedding -----------------------------------------

TEST_F(ServeTest, AnswersMatchAnchorTableAtFullEffort) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  QueryRequest request;
  request.node = 7;
  request.k = Index()->anchor_k();
  QueryResponse response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.answer_source, "ann");
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.effort_step, 0);
  // An unloaded full-effort query reproduces the precomputed anchor row —
  // the degraded path serves stale-but-consistent data, not different data.
  const TopKAlignment& anchors = Index()->anchors();
  ASSERT_EQ(static_cast<int64_t>(response.targets.size()), anchors.k);
  for (int64_t j = 0; j < anchors.k; ++j) {
    EXPECT_EQ(response.targets[j], anchors.index[request.node * anchors.k + j]);
    EXPECT_EQ(response.scores[j], anchors.score[request.node * anchors.k + j]);
  }
}

TEST_F(ServeTest, RejectsMalformedRequestsTyped) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  QueryRequest bad_node;
  bad_node.node = Index()->num_source();  // one past the end
  QueryResponse r1 = server.SubmitAndWait(bad_node);
  EXPECT_EQ(r1.status.code(), StatusCode::kInvalidArgument);
  QueryRequest bad_k;
  bad_k.node = 0;
  bad_k.k = 0;
  QueryResponse r2 = server.SubmitAndWait(bad_k);
  EXPECT_EQ(r2.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Snapshot().invalid_argument, 2u);
}

TEST_F(ServeTest, ShedsTypedOverloadedWhenQueueIsFull) {
  ServeConfig config = SmallConfig();
  config.queue_capacity = 2;
  AlignServer server(Index(), config);
  // Not started: admitted requests stay queued, deterministically.
  std::vector<std::future<QueryResponse>> queued;
  QueryRequest request;
  request.node = 1;
  queued.push_back(server.Submit(request));
  queued.push_back(server.Submit(request));
  QueryResponse shed = server.SubmitAndWait(request);
  EXPECT_EQ(shed.status.code(), StatusCode::kOverloaded);
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_EQ(server.Snapshot().shed_queue_full, 1u);
  EXPECT_EQ(server.Snapshot().admitted, 2u);
  // The admitted requests still complete once workers run.
  server.Start();
  for (auto& future : queued) {
    QueryResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

TEST_F(ServeTest, ShedsTypedOverloadedOnBudgetExhaustion) {
  ServeConfig config = SmallConfig();
  config.budget = std::make_shared<MemoryBudget>(uint64_t{1} << 20);
  config.per_request_bytes = uint64_t{4} << 20;  // never fits
  AlignServer server(Index(), config);
  server.Start();
  QueryRequest request;
  request.node = 0;
  QueryResponse response = server.SubmitAndWait(request);
  EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(server.Snapshot().shed_budget, 1u);
  // The failed admission released its (never-taken) reservation.
  EXPECT_EQ(config.budget->reserved(), 0u);
}

TEST_F(ServeTest, AdmissionFaultSiteShedsTyped) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("serve.admit", spec);
  QueryRequest request;
  request.node = 0;
  QueryResponse response = server.SubmitAndWait(request);
  EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(server.Snapshot().shed_fault, 1u);
  fault::DisarmAll();
  EXPECT_TRUE(server.SubmitAndWait(request).status.ok());
}

TEST_F(ServeTest, RetryClientSurvivesTransientShed) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  spec.at_call = 0;
  spec.repeat = 1;  // only the first admission sheds
  fault::Arm("serve.admit", spec);
  QueryRequest request;
  request.node = 3;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.1;
  QueryResponse response = QueryWithRetry(&server, request, policy);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GE(fault::CallCount("serve.admit"), 2);
}

TEST_F(ServeTest, RetryBudgetExhaustsTypedUnderPersistentShed) {
  // Every admission sheds: the client must spend exactly its retry budget
  // (max_attempts submissions, not one more), honor the server's
  // retry-after hint as a floor on every backoff sleep, and hand back the
  // final typed kOverloaded — never a hang, never an untyped failure.
  ServeConfig config = SmallConfig();
  config.retry_after_ms = 5.0;
  AlignServer server(Index(), config);
  server.Start();
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  spec.repeat = 1000;  // persistent overload
  fault::Arm("serve.admit", spec);
  QueryRequest request;
  request.node = 3;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.1;  // schedule alone would barely sleep
  Timer timer;
  QueryResponse response = QueryWithRetry(&server, request, policy);
  const double elapsed_ms = timer.Seconds() * 1000.0;
  EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
  EXPECT_GT(response.retry_after_ms, 0.0);
  // Exactly the budget: three admissions, two sleeps between them.
  EXPECT_EQ(fault::CallCount("serve.admit"), 3);
  EXPECT_EQ(server.Snapshot().shed_fault, 3u);
  // Each sleep was floored by the 5 ms hint, so two sleeps bound the wall
  // time from below (slack for timer granularity).
  EXPECT_GE(elapsed_ms, 9.0);
}

// --- Degraded answers ----------------------------------------------------

TEST_F(ServeTest, ExpiredDeadlineFallsBackToAnchorTable) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  QueryRequest request;
  request.node = 9;
  request.k = 3;
  request.deadline_ms = 1e-6;  // expired by the time a worker sees it
  QueryResponse response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.answer_source, "anchor_table");
  const TopKAlignment& anchors = Index()->anchors();
  ASSERT_LE(static_cast<int64_t>(response.targets.size()), request.k);
  for (size_t j = 0; j < response.targets.size(); ++j) {
    EXPECT_EQ(response.targets[j],
              anchors.index[request.node * anchors.k + static_cast<int64_t>(j)]);
  }
  EXPECT_EQ(server.Snapshot().completed_anchor, 1u);
}

TEST_F(ServeTest, ExpiredDeadlineWithoutDegradedIsTyped) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  QueryRequest request;
  request.node = 9;
  request.deadline_ms = 1e-6;
  request.allow_degraded = false;
  QueryResponse response = server.SubmitAndWait(request);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.Snapshot().deadline_exceeded, 1u);
}

TEST_F(ServeTest, MidQueryCancellationFallsBackToAnchorTable) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("serve.query.cancel", spec);
  QueryRequest request;
  request.node = 2;
  QueryResponse response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.answer_source, "anchor_table");
  EXPECT_TRUE(response.degraded);
  EXPECT_GE(fault::CallCount("serve.query.cancel"), 1);
}

TEST_F(ServeTest, QueuePressureStepsEffortDown) {
  ServeConfig config = SmallConfig();
  config.queue_capacity = 8;
  config.degrade_watermark = 0.25;
  config.max_effort_step = 3;
  AlignServer server(Index(), config);
  // Fill the queue before starting the worker so early pops observe a
  // deep queue.
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    QueryRequest request;
    request.node = i;
    futures.push_back(server.Submit(request));
  }
  server.Start();
  int degraded_effort = 0;
  for (auto& future : futures) {
    QueryResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    if (response.effort_step > 0) {
      ++degraded_effort;
      EXPECT_TRUE(response.degraded);
      EXPECT_EQ(response.answer_source, "ann");
    }
  }
  EXPECT_GT(degraded_effort, 0);
  EXPECT_EQ(server.Snapshot().completed_reduced_effort,
            static_cast<uint64_t>(degraded_effort));
}

TEST_F(ServeTest, ShutdownResolvesQueuedRequestsTyped) {
  ServeConfig config = SmallConfig();
  AlignServer server(Index(), config);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    QueryRequest request;
    request.node = i;
    futures.push_back(server.Submit(request));
  }
  // Never started: Shutdown must still resolve every promise.
  server.Shutdown();
  for (auto& future : futures) {
    QueryResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
    EXPECT_NE(response.status.message().find("shutting down"),
              std::string::npos);
  }
  EXPECT_EQ(server.Snapshot().shed_shutdown, 4u);
  // Submit after shutdown sheds immediately instead of hanging.
  QueryRequest late;
  late.node = 0;
  EXPECT_EQ(server.SubmitAndWait(late).status.code(), StatusCode::kOverloaded);
}

TEST_F(ServeTest, QueryEffortParameterDegradesGracefully) {
  // The AnnIndex-level knob the server's pressure response rides on:
  // reduced effort still honors the TopKAlignment contract.
  const AlignmentIndex& index = *Index();
  for (double effort : {1.0, 0.5, 0.25, 0.05}) {
    auto got = index.ann().QueryBatch(index.queries(), 5, RunContext(), effort);
    ASSERT_TRUE(got.ok()) << "effort " << effort;
    const TopKAlignment& top = got.ValueOrDie();
    EXPECT_EQ(top.rows_computed, index.num_source());
    for (int64_t v = 0; v < top.rows; ++v) {
      for (int64_t j = 1; j < top.k; ++j) {
        if (top.index[v * top.k + j] < 0) break;
        EXPECT_LE(top.score[v * top.k + j], top.score[v * top.k + j - 1]);
      }
    }
  }
  // Full effort through the parameter equals the default-parameter path.
  auto a = index.ann().QueryBatch(index.queries(), 5);
  auto b = index.ann().QueryBatch(index.queries(), 5, RunContext(), 1.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().index, b.ValueOrDie().index);
}

}  // namespace
}  // namespace galign
