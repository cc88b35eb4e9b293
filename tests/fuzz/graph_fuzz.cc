// Structure-aware graph fuzzer (DESIGN.md §9).
//
// Each iteration draws a random graph recipe (generator family, size,
// attribute scheme, degenerate mutations), then drives it through the
// public surface: text loaders on hostile bytes, normalized propagation
// matrices, graph statistics, and a randomly chosen aligner under a random
// combination of memory budget, deadline, supervision, and armed fault.
//
// The invariant is the robustness contract: every call returns a valid
// finite result or a clean non-OK Status — never a crash, hang, NaN in a
// "successful" result, or UB (run under sanitizers in scripts/check.sh).
//
// Deterministic: `graph_fuzz --seed S --iters N` replays bit for bit, and a
// failure report prints the seed and iteration to reproduce.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "align/alignment.h"
#include "baselines/cenalp.h"
#include "baselines/deeplink.h"
#include "baselines/final.h"
#include "baselines/ione.h"
#include "baselines/isorank.h"
#include "baselines/naive.h"
#include "baselines/netalign.h"
#include "baselines/pale.h"
#include "baselines/regal.h"
#include "baselines/unialign.h"
#include "common/fault.h"
#include "core/galign.h"
#include "core/model_io.h"
#include "common/durable_io.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/noise.h"
#include "graph/stats.h"
#include "serve/alignment_index.h"
#include "serve/server.h"
#include "serve/swap/swap.h"

namespace galign {
namespace {

struct FuzzFailure {
  std::string stage;
  std::string detail;
};

// Forward readable failure context instead of assert(): the harness must
// keep the seed/iteration in the report so every finding replays.
#define FUZZ_CHECK(cond, stage_str, detail_str)            \
  do {                                                     \
    if (!(cond)) return FuzzFailure{(stage_str), (detail_str)}; \
  } while (0)

constexpr FuzzFailure kOk{"", ""};

bool Failed(const FuzzFailure& f) { return !f.stage.empty(); }

Matrix RandomAttributes(int64_t n, Rng* rng) {
  switch (rng->UniformInt(3)) {
    case 0:
      return Matrix();  // attribute-free graph
    case 1:
      return BinaryAttributes(n, 2 + rng->UniformInt(6), 0.05 + rng->Uniform() * 0.6,
                              rng);
    default: {
      // Binary attributes with some all-zero rows (degenerate cosine input).
      Matrix m = BinaryAttributes(n, 2 + rng->UniformInt(6), 0.3, rng);
      for (int64_t v = 0; v < n; ++v) {
        if (rng->Bernoulli(0.2)) {
          for (int64_t c = 0; c < m.cols(); ++c) m(v, c) = 0.0;
        }
      }
      return m;
    }
  }
}

Result<AttributedGraph> RandomGraph(Rng* rng) {
  const int64_t kind = rng->UniformInt(8);
  const int64_t n = 2 + rng->UniformInt(38);
  Matrix attrs = RandomAttributes(n, rng);
  switch (kind) {
    case 0:
      return ErdosRenyi(n, rng->Uniform() * 0.3, rng, std::move(attrs));
    case 1:
      return BarabasiAlbert(n, 1 + rng->UniformInt(3), rng, std::move(attrs));
    case 2:
      return WattsStrogatz(n, 2, rng->Uniform(), rng, std::move(attrs));
    case 3:
      return PowerLawGraph(n, n + rng->UniformInt(2 * n), 2.5, rng,
                           std::move(attrs));
    case 4:  // no edges at all
      return AttributedGraph::Create(n, {}, std::move(attrs));
    case 5:  // empty graph
      return AttributedGraph::Create(0, {}, Matrix(0, attrs.cols()));
    case 6:  // single node
      return AttributedGraph::Create(
          1, {}, attrs.rows() > 0 ? Matrix(1, attrs.cols(), 1.0) : Matrix());
    default: {  // star hub plus isolated tail nodes: degree skew + degree 0
      std::vector<Edge> edges;
      for (int64_t v = 1; v < n - 1 - rng->UniformInt(2); ++v) {
        edges.push_back({0, v});
      }
      return AttributedGraph::Create(n, std::move(edges), std::move(attrs));
    }
  }
}

// --- Stage 1: text loaders on hostile bytes --------------------------------

const char* const kHostileEdgeFiles[] = {
    "",                          // empty file
    "\n\n\n",                    // blank lines only
    "a b\n",                     // non-numeric
    "1\n",                       // truncated pair
    "1 2 3 4 5\n",               // too many fields
    "-5 2\n",                    // negative id
    "0 99999999999999999999\n",  // overflowing id
    "1 2\n1 2\n2 1\n",           // duplicates both directions
    "3 3\n",                     // self loop
    "0 1\x00trailing\n",         // embedded NUL (written via size below)
    "9223372036854775807 0\n",   // INT64_MAX id
};

const char* const kHostileAttrFiles[] = {
    "",
    "1.0\t2.0\n3.0\n",        // ragged rows
    "nan\tinf\n-inf\t1e999\n",  // non-finite and overflowing literals
    "1.0,2.0\n",              // wrong separator
    "\t\t\t\n",
};

FuzzFailure FuzzLoaders(const std::string& tmp_prefix, Rng* rng) {
  const std::string edge_path = tmp_prefix + ".edges";
  const std::string attr_path = tmp_prefix + ".attrs";
  // Hostile fixed corpus entry, occasionally bit-flipped.
  {
    const size_t pick =
        static_cast<size_t>(rng->UniformInt(std::size(kHostileEdgeFiles)));
    std::string bytes = kHostileEdgeFiles[pick];
    if (!bytes.empty() && rng->Bernoulli(0.5)) {
      bytes[static_cast<size_t>(rng->UniformInt(
          static_cast<int64_t>(bytes.size())))] ^=
          static_cast<char>(1 << rng->UniformInt(7));
    }
    std::ofstream(edge_path, std::ios::binary).write(bytes.data(),
                                                     static_cast<std::streamsize>(bytes.size()));
    auto g = LoadEdgeList(edge_path);
    if (g.ok()) {
      FUZZ_CHECK(g.ValueOrDie().num_nodes() >= 0, "loader.edges",
                 "negative node count from: " + bytes);
    }
  }
  {
    const size_t pick =
        static_cast<size_t>(rng->UniformInt(std::size(kHostileAttrFiles)));
    std::ofstream(attr_path, std::ios::binary) << kHostileAttrFiles[pick];
    auto m = LoadAttributes(attr_path);
    if (m.ok()) {
      FUZZ_CHECK(m.ValueOrDie().rows() >= 0, "loader.attrs", "negative rows");
    }
  }
  // Round-trip a valid graph, sometimes with an injected IO read fault:
  // the loader must surface a clean IOError, never a torn graph.
  auto g = RandomGraph(rng);
  if (g.ok() && g.ValueOrDie().num_nodes() > 0) {
    const AttributedGraph& graph = g.ValueOrDie();
    if (SaveEdgeList(graph, edge_path).ok()) {
      const bool inject = rng->Bernoulli(0.3);
      if (inject) {
        fault::Spec spec;
        spec.kind = fault::Kind::kFailIO;
        spec.at_call = rng->UniformInt(3);
        fault::Arm("io.edges.load", spec);
      }
      auto back = LoadEdgeList(edge_path);
      fault::DisarmAll();
      if (back.ok()) {
        FUZZ_CHECK(back.ValueOrDie().num_edges() == graph.num_edges(),
                   "loader.roundtrip", "edge count changed in round trip");
      } else {
        FUZZ_CHECK(inject, "loader.roundtrip",
                   "clean save failed to load: " + back.status().ToString());
      }
    }
  }
  std::remove(edge_path.c_str());
  std::remove(attr_path.c_str());
  return kOk;
}

// --- Stage 2: propagation matrices and statistics --------------------------

FuzzFailure FuzzPropagation(const AttributedGraph& g, Rng* rng) {
  auto norm = g.NormalizedAdjacency();
  if (norm.ok()) {
    for (double v : norm.ValueOrDie().values()) {
      FUZZ_CHECK(std::isfinite(v), "laplacian", "non-finite entry");
    }
  }
  std::vector<double> influence(static_cast<size_t>(g.num_nodes()), 1.0);
  for (double& x : influence) {
    // Includes zero and negative influence: must be a clean status, not UB.
    x = rng->Uniform(-0.5, 2.0);
  }
  auto weighted = g.NormalizedAdjacency(influence);
  if (weighted.ok()) {
    for (double v : weighted.ValueOrDie().values()) {
      FUZZ_CHECK(std::isfinite(v), "laplacian.influence", "non-finite entry");
    }
  }
  const GraphStats stats = ComputeStats(g, /*clustering_samples=*/64);
  FUZZ_CHECK(std::isfinite(stats.avg_degree) &&
                 std::isfinite(stats.avg_clustering) &&
                 std::isfinite(stats.degree_assortativity),
             "stats", "non-finite statistic");
  FUZZ_CHECK(stats.num_nodes == g.num_nodes(), "stats", "node count mismatch");
  return kOk;
}

// --- Stage 3: serving artifact bytes under corruption -----------------------

/// One small golden AlignmentIndex, trained once and reused: the stage
/// fuzzes the *decoder*, so only the serialized bytes vary per iteration.
const std::string& GoldenArtifactPayload() {
  static const std::string* payload = []() -> const std::string* {
    Rng rng(99);
    auto g = BarabasiAlbert(40, 2, &rng);
    if (!g.ok()) return new std::string();
    auto attributed =
        g.ValueOrDie().WithAttributes(BinaryAttributes(40, 6, 0.3, &rng));
    if (!attributed.ok()) return new std::string();
    NoisyCopyOptions opts;
    opts.structural_noise = 0.05;
    auto pair = MakeNoisyCopyPair(attributed.ValueOrDie(), opts, &rng);
    if (!pair.ok()) return new std::string();
    GAlignConfig config;
    config.epochs = 2;
    config.embedding_dim = 8;
    AlignmentIndexOptions options;
    options.anchor_k = 3;
    auto index = AlignmentIndex::Build(config, pair.ValueOrDie().source,
                                       pair.ValueOrDie().target, options);
    if (!index.ok()) return new std::string();
    return new std::string(index.ValueOrDie()->Serialize());
  }();
  return *payload;
}

// Bitwise equality of two double arrays; memcmp must not be handed the
// null data() of an empty container.
bool SameBits(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

// The single-token check as it was before the codec (find_first_not_of +
// strtoull), independent of the codec's tables.
Result<double> ReferenceParseHexToken(const std::string& tok,
                                      const std::string& context) {
  if (tok.size() != 16 ||
      tok.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return Status::IOError("bad double bit pattern '" + tok + "' in " +
                           context);
  }
  const uint64_t bits = std::strtoull(tok.c_str(), nullptr, 16);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// The matrix-list decoder as it was before the hex-run codec: one `>>`
/// token per value, each checked by ReferenceParseHexToken. Kept as the
/// reference the codec is fuzzed against, so the accepted format cannot
/// drift.
Status ReferenceParseMatrixList(std::istringstream* in, const char* key,
                                std::vector<Matrix>* out,
                                const std::string& context) {
  std::string tok;
  size_t count = 0;
  if (!(*in >> tok) || tok != key || !(*in >> count) || count > 4096) {
    return Status::IOError("expected '" + std::string(key) +
                           " <count>' in " + context);
  }
  out->clear();
  for (size_t k = 0; k < count; ++k) {
    int64_t rows = -1, cols = -1;
    if (!(*in >> rows >> cols) || rows < 0 || cols < 0 ||
        rows > (int64_t{1} << 30) || cols > (int64_t{1} << 30) ||
        rows * cols > (int64_t{1} << 32)) {
      return Status::IOError("bad matrix shape under '" + std::string(key) +
                             "' in " + context);
    }
    Matrix m(rows, cols);
    for (int64_t i = 0; i < m.size(); ++i) {
      if (!(*in >> tok)) {
        return Status::IOError("truncated matrix under '" + std::string(key) +
                               "' in " + context);
      }
      auto v = ReferenceParseHexToken(tok, context);
      if (!v.ok()) return v.status();
      m.data()[i] = v.ValueOrDie();
    }
    out->push_back(std::move(m));
  }
  return Status::OK();
}

/// After a decode from the same bytes, both streams must resume at the
/// same next token (or both be exhausted).
bool SameNextToken(std::istringstream* a, std::istringstream* b) {
  std::string ta, tb;
  const bool more_a = static_cast<bool>(*a >> ta);
  const bool more_b = static_cast<bool>(*b >> tb);
  return more_a == more_b && ta == tb;
}

/// Differential check of the codec on (possibly corrupted) artifact bytes:
/// the `key` matrix list at `offset` decoded by ParseMatrixList and by the
/// reference must agree on accept/reject (message included), on every
/// decoded bit, and on where the stream resumes.
FuzzFailure DiffMatrixList(const std::string& bytes, size_t offset,
                           const char* key) {
  std::istringstream codec_in(bytes);
  std::istringstream ref_in(bytes);
  codec_in.seekg(static_cast<std::streamoff>(offset));
  ref_in.seekg(static_cast<std::streamoff>(offset));
  std::vector<Matrix> got, want;
  const Status got_st = ParseMatrixList(&codec_in, key, &got, "fuzz");
  const Status want_st = ReferenceParseMatrixList(&ref_in, key, &want, "fuzz");
  FUZZ_CHECK(got_st.ToString() == want_st.ToString(), "artifact.diff",
             "codec says '" + got_st.ToString() + "', reference says '" +
                 want_st.ToString() + "'");
  if (!got_st.ok()) return kOk;
  FUZZ_CHECK(got.size() == want.size(), "artifact.diff", "matrix count");
  for (size_t k = 0; k < got.size(); ++k) {
    FUZZ_CHECK(got[k].rows() == want[k].rows() &&
                   got[k].cols() == want[k].cols() &&
                   SameBits(got[k].data(), want[k].data(),
                            static_cast<size_t>(got[k].size())),
               "artifact.diff", "decoded bits differ under " + std::string(key));
  }
  FUZZ_CHECK(SameNextToken(&codec_in, &ref_in), "artifact.diff",
             "streams resume at different tokens");
  return kOk;
}

/// Differential check of one raw hex run: `n` values from a seeded offset,
/// which may land mid-token, in the model section, or past the end.
FuzzFailure DiffHexRun(const std::string& bytes, Rng* rng) {
  const size_t offset = static_cast<size_t>(
      rng->UniformInt(static_cast<int64_t>(bytes.size()) + 1));
  const size_t n = static_cast<size_t>(1 + rng->UniformInt(64));
  std::istringstream codec_in(bytes);
  std::istringstream ref_in(bytes);
  codec_in.seekg(static_cast<std::streamoff>(offset));
  ref_in.seekg(static_cast<std::streamoff>(offset));
  std::vector<double> got(n), want(n);
  const Status got_st =
      ParseHexDoubles(&codec_in, got.data(), n, "run", "fuzz");
  Status want_st = Status::OK();
  std::string tok;
  for (size_t i = 0; i < n && want_st.ok(); ++i) {
    if (!(ref_in >> tok)) {
      want_st = Status::IOError("truncated run in fuzz");
      break;
    }
    auto v = ReferenceParseHexToken(tok, "fuzz");
    want_st = v.status();
    if (v.ok()) want[i] = v.ValueOrDie();
  }
  FUZZ_CHECK(got_st.ToString() == want_st.ToString(), "artifact.diff.run",
             "codec says '" + got_st.ToString() + "', reference says '" +
                 want_st.ToString() + "'");
  if (!got_st.ok()) return kOk;
  FUZZ_CHECK(SameBits(got.data(), want.data(), n),
             "artifact.diff.run", "decoded bits differ");
  FUZZ_CHECK(SameNextToken(&codec_in, &ref_in), "artifact.diff.run",
             "streams resume at different tokens");
  return kOk;
}

/// Truncates or bit-flips serialized artifact bytes at seeded offsets and
/// asserts the verify-or-reject contract: Parse / AlignmentIndexStore
/// either reject with a clean typed Status or accept a self-consistent
/// index — never crash, hang, or return a torn artifact. The corrupted
/// bytes are also decoded by the hex codec and by the token-loop reference
/// it replaced, which must agree exactly.
FuzzFailure FuzzArtifact(const std::string& tmp_prefix, Rng* rng) {
  const std::string& golden = GoldenArtifactPayload();
  if (golden.empty()) {
    return FuzzFailure{"artifact.golden", "failed to build golden artifact"};
  }

  std::string bytes = golden;
  const int64_t n = static_cast<int64_t>(bytes.size());
  if (rng->Bernoulli(0.5)) {
    bytes.resize(static_cast<size_t>(rng->UniformInt(n)));  // torn write
  } else {
    const int64_t flips = 1 + rng->UniformInt(8);
    for (int64_t i = 0; i < flips; ++i) {  // bit rot
      bytes[static_cast<size_t>(rng->UniformInt(n))] ^=
          static_cast<char>(1 << rng->UniformInt(8));
    }
  }
  if (rng->Bernoulli(0.5)) {
    // Respelled separators: runs of the other whitespace the `>>`
    // tokenizer skips, which the codec must skip identically.
    static const char* const kRuns[] = {"\t", "\v", "\f", "\r",
                                        "\r\n", "  ", " \v\n"};
    const int64_t respells = 1 + rng->UniformInt(32);
    for (int64_t i = 0; i < respells && !bytes.empty(); ++i) {
      const size_t at = bytes.find_first_of(
          " \n", static_cast<size_t>(rng->UniformInt(
                     static_cast<int64_t>(bytes.size()))));
      if (at == std::string::npos) continue;
      bytes.replace(at, 1, kRuns[rng->UniformInt(std::size(kRuns))]);
    }
  }

  for (const char* key : {"source_layers", "target_layers"}) {
    // The section where the corruption left it, else where it was.
    size_t offset = bytes.find(key);
    if (offset == std::string::npos) {
      offset = std::min(golden.find(key), bytes.size());
    }
    const FuzzFailure diff = DiffMatrixList(bytes, offset, key);
    if (Failed(diff)) return diff;
  }
  const FuzzFailure diff = DiffHexRun(bytes, rng);
  if (Failed(diff)) return diff;

  auto parsed = AlignmentIndex::Parse(bytes, "graph_fuzz artifact");
  if (parsed.ok()) {
    // Corruption that survives every check must still describe a complete,
    // self-consistent artifact (e.g. a mantissa-tail flip the behavioral
    // fingerprint legitimately cannot distinguish).
    const AlignmentIndex& index = *parsed.ValueOrDie();
    FUZZ_CHECK(index.num_source() > 0 && index.num_target() > 0,
               "artifact.parse", "accepted artifact with empty sides");
    FUZZ_CHECK(index.anchors().rows_computed == index.num_source(),
               "artifact.parse", "accepted artifact with partial anchors");
    FUZZ_CHECK(!index.Serialize().empty(), "artifact.parse",
               "accepted artifact does not re-serialize");
  }

  // File level: a corrupted generation behind a valid manifest. With a
  // valid CRC trailer *over the corrupted payload* the structural
  // validation after the CRC gate is exercised; without one the CRC gate
  // itself rejects. Either way LoadLatest must end typed.
  if (rng->Bernoulli(0.25)) {
    const std::string dir = tmp_prefix + "_aidx";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return FuzzFailure{"artifact.store", "tmp dir create failed"};
    AlignmentIndexStore store(dir, /*keep=*/1);
    const std::string trailed =
        rng->Bernoulli(0.5) ? AppendCrc32Trailer(bytes) : bytes;
    if (!AtomicWriteFile(store.GenerationPath(1), trailed).ok()) {
      return FuzzFailure{"artifact.store", "tmp write failed"};
    }
    if (!AtomicWriteFile(dir + "/MANIFEST",
                         AppendCrc32Trailer(
                             "galign-aidx-manifest-v1\naidx_00000001\n"))
             .ok()) {
      return FuzzFailure{"artifact.store", "tmp manifest write failed"};
    }
    auto loaded = store.LoadLatest();
    if (loaded.ok()) {
      FUZZ_CHECK(loaded.ValueOrDie()->anchors().rows_computed ==
                     loaded.ValueOrDie()->num_source(),
                 "artifact.store", "accepted torn generation");
    } else {
      FUZZ_CHECK(loaded.status().code() == StatusCode::kIOError ||
                     loaded.status().code() == StatusCode::kNotFound,
                 "artifact.store",
                 "untyped failure: " + loaded.status().ToString());
    }
    std::filesystem::remove_all(dir, ec);
  }
  return kOk;
}

// --- Stage 3b: hot-swap quarantine under corrupted candidates ---------------

/// The golden payload parsed back into a servable index, once.
const std::shared_ptr<const AlignmentIndex>& GoldenServingIndex() {
  static const auto* index =
      []() -> const std::shared_ptr<const AlignmentIndex>* {
    const std::string& payload = GoldenArtifactPayload();
    if (payload.empty()) {
      return new std::shared_ptr<const AlignmentIndex>();
    }
    auto parsed = AlignmentIndex::Parse(payload, "graph_fuzz golden");
    if (!parsed.ok()) return new std::shared_ptr<const AlignmentIndex>();
    return new std::shared_ptr<const AlignmentIndex>(parsed.ValueOrDie());
  }();
  return *index;
}

/// Publishes a seeded-corrupted candidate generation while a live
/// ArtifactWatcher polls a serving AlignServer, and asserts the DESIGN.md
/// §13 contract: the candidate is either published (it genuinely passed
/// quarantine) or poisoned with a typed record — and either way the server
/// keeps answering last-good with typed statuses, never an untyped failure
/// or a generation that was never published.
FuzzFailure FuzzHotSwap(const std::string& tmp_prefix, Rng* rng) {
  const std::shared_ptr<const AlignmentIndex>& golden_index =
      GoldenServingIndex();
  if (!golden_index) {
    return FuzzFailure{"swap.golden", "failed to parse golden artifact"};
  }
  const std::string& golden = GoldenArtifactPayload();

  const std::string dir = tmp_prefix + "_swap";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return FuzzFailure{"swap.store", "tmp dir create failed"};
  AlignmentIndexStore store(dir, /*keep=*/2);
  if (!store.Save(*golden_index).ok()) {
    return FuzzFailure{"swap.store", "golden save failed"};
  }

  FuzzFailure failure = kOk;
  {
    ServeConfig config;
    config.workers = 1;
    config.queue_capacity = 8;
    config.default_deadline_ms = 500.0;
    AlignServer server(golden_index, config, /*generation=*/1);
    server.Start();
    SwapConfig swap_config;
    swap_config.poll_interval_ms = 1.0;
    ArtifactWatcher watcher(&server, &store, swap_config);
    watcher.Start();  // candidate corruption lands under a live watcher

    // Corrupt the golden bytes (torn write or bit rot), sometimes behind a
    // valid CRC trailer so the post-CRC validation battery is what rejects.
    std::string bytes = golden;
    const int64_t n = static_cast<int64_t>(bytes.size());
    if (rng->Bernoulli(0.5)) {
      bytes.resize(static_cast<size_t>(rng->UniformInt(n)));
    } else {
      const int64_t flips = 1 + rng->UniformInt(8);
      for (int64_t i = 0; i < flips; ++i) {
        bytes[static_cast<size_t>(rng->UniformInt(n))] ^=
            static_cast<char>(1 << rng->UniformInt(8));
      }
    }
    const std::string framed =
        rng->Bernoulli(0.5) ? AppendCrc32Trailer(bytes) : bytes;
    if (!AtomicWriteFile(store.GenerationPath(2), framed).ok()) {
      return FuzzFailure{"swap.store", "candidate write failed"};
    }
    watcher.PollOnce();  // serialized with the background thread

    // The candidate's fate is decided and typed: published or poisoned.
    const bool poisoned = watcher.IsPoisoned(2);
    const int64_t serving = server.serving_generation();
    if (poisoned == (serving == 2)) {
      failure = {"swap.watcher",
                 "candidate neither quarantined nor published"};
    }
    if (!Failed(failure) && poisoned) {
      const SwapHealth health = watcher.Health();
      if (health.quarantined.size() != 1 ||
          health.quarantined[0].generation != 2 ||
          health.quarantined[0].detail.empty()) {
        failure = {"swap.health",
                   "poisoned generation lacks a typed quarantine record"};
      }
    }

    // Last-good keeps answering across (attempted) swaps.
    const int64_t num_source = golden_index->num_source();
    for (int i = 0; i < 8 && !Failed(failure); ++i) {
      QueryRequest request;
      request.node = rng->UniformInt(num_source);
      request.k = 3;
      const QueryResponse response = server.SubmitAndWait(request);
      switch (response.status.code()) {
        case StatusCode::kOk:
          if (response.generation != 1 && response.generation != 2) {
            failure = {"swap.serve", "answer from an unpublished generation"};
          } else if (poisoned && response.generation == 2) {
            failure = {"swap.serve", "answer from a poisoned generation"};
          }
          break;
        case StatusCode::kOverloaded:
        case StatusCode::kDeadlineExceeded:
          break;
        default:
          failure = {"swap.serve",
                     "untyped response: " + response.status.ToString()};
          break;
      }
    }
    watcher.Stop();
    server.Shutdown();
  }
  std::filesystem::remove_all(dir, ec);
  return failure;
}

// --- Stage 4: aligners under budget, deadline, and faults -------------------

std::unique_ptr<Aligner> PickAligner(Rng* rng) {
  switch (rng->UniformInt(13)) {
    case 0: {
      GAlignConfig cfg;
      cfg.epochs = 1 + rng->UniformInt(3);
      cfg.embedding_dim = 4 + 4 * rng->UniformInt(2);
      cfg.refinement_iterations = rng->UniformInt(2);
      cfg.use_augmentation = rng->Bernoulli(0.5);
      return std::make_unique<GAlignAligner>(cfg);
    }
    case 1:
      return std::make_unique<FinalAligner>();
    case 2:
      return std::make_unique<IsoRankAligner>();
    case 3:
      return std::make_unique<RegalAligner>();
    case 4:
      return std::make_unique<UniAlignAligner>();
    case 5:
      return std::make_unique<DegreeRankAligner>();
    case 6:
      return std::make_unique<AttributeOnlyAligner>();
    case 7:
      return std::make_unique<RandomAligner>();
    case 8: {
      PaleConfig cfg;
      cfg.embedding_dim = 8;
      cfg.embedding_epochs = 2;
      cfg.mapping_epochs = 5;
      return std::make_unique<PaleAligner>(cfg);
    }
    case 9: {
      DeepLinkConfig cfg;
      cfg.walks.walks_per_node = 2;
      cfg.walks.walk_length = 4;
      cfg.skipgram.dim = 8;
      cfg.skipgram.epochs = 1;
      cfg.mapping_epochs = 5;
      return std::make_unique<DeepLinkAligner>(cfg);
    }
    case 10: {
      IoneConfig cfg;
      cfg.dim = 8;
      cfg.epochs = 3;
      return std::make_unique<IoneAligner>(cfg);
    }
    case 11: {
      CenalpConfig cfg;
      cfg.walks.walks_per_node = 2;
      cfg.walks.walk_length = 4;
      cfg.skipgram.dim = 8;
      cfg.skipgram.epochs = 1;
      cfg.expansion_rounds = 1;
      return std::make_unique<CenalpAligner>(cfg);
    }
    default: {
      NetAlignConfig cfg;
      cfg.candidates_per_node = 3;
      cfg.iterations = 2;
      return std::make_unique<NetAlignAligner>(cfg);
    }
  }
}

const char* const kBufferFaultSites[] = {"train.grad"};
const char* const kScalarFaultSites[] = {"train.loss", "solver.final.residual",
                                         "solver.isorank.residual",
                                         "la.jacobi.residual"};

FuzzFailure FuzzAligner(const AttributedGraph& s, const AttributedGraph& t,
                        Rng* rng) {
  std::unique_ptr<Aligner> aligner = PickAligner(rng);

  Supervision sup;
  const int64_t max_seeds = std::min(s.num_nodes(), t.num_nodes());
  if (max_seeds > 0 && rng->Bernoulli(0.5)) {
    const int64_t count = 1 + rng->UniformInt(std::min<int64_t>(max_seeds, 5));
    for (int64_t v = 0; v < count; ++v) sup.seeds.emplace_back(v, v);
  }

  RunContext ctx;
  switch (rng->UniformInt(4)) {
    case 0:
      break;  // unbounded
    case 1:
      ctx = RunContext::WithMemoryBudget(
          static_cast<uint64_t>(1) << (12 + rng->UniformInt(12)));
      break;
    case 2:
      ctx = RunContext::WithTimeout(rng->Bernoulli(0.3) ? 0.0 : 0.25);
      break;
    default:
      ctx = RunContext::WithMemoryBudget(
          static_cast<uint64_t>(1) << (14 + rng->UniformInt(10)));
      ctx.SetToken(CancelToken());  // armed but never fired
      break;
  }

  const bool inject = rng->Bernoulli(0.4);
  if (inject) {
    fault::Spec spec;
    spec.at_call = rng->UniformInt(4);
    spec.seed = static_cast<uint64_t>(rng->UniformInt(1 << 20)) + 1;
    if (rng->Bernoulli(0.5)) {
      spec.kind = rng->Bernoulli(0.5) ? fault::Kind::kNaN : fault::Kind::kInf;
      fault::Arm(kBufferFaultSites[rng->UniformInt(
                     std::size(kBufferFaultSites))],
                 spec);
    } else {
      spec.kind = fault::Kind::kPerturb;
      spec.magnitude = std::pow(10.0, rng->Uniform(-2.0, 4.0));
      fault::Arm(kScalarFaultSites[rng->UniformInt(
                     std::size(kScalarFaultSites))],
                 spec);
    }
  }

  FuzzFailure failure = kOk;
  const std::string label = aligner->name();
  if (rng->Bernoulli(0.5)) {
    auto dense = aligner->Align(s, t, sup, ctx);
    if (dense.ok()) {
      const Matrix& m = dense.ValueOrDie();
      if (m.rows() != s.num_nodes() || m.cols() != t.num_nodes()) {
        failure = {"align." + label, "dense result has wrong shape"};
      } else if (!m.AllFinite()) {
        failure = {"align." + label, "dense result has non-finite scores"};
      }
    }
  } else {
    const int64_t k = 1 + rng->UniformInt(5);
    auto topk = aligner->AlignTopK(s, t, sup, ctx, k);
    if (topk.ok()) {
      const TopKAlignment& c = topk.ValueOrDie();
      if (c.rows != s.num_nodes() || c.cols != t.num_nodes()) {
        failure = {"topk." + label, "compressed result has wrong shape"};
      } else {
        for (size_t i = 0; i < c.score.size() && !Failed(failure); ++i) {
          if (c.index[i] >= 0 &&
              (c.index[i] >= c.cols || !std::isfinite(c.score[i]))) {
            failure = {"topk." + label, "invalid top-k slot"};
          }
        }
      }
    }
  }
  fault::DisarmAll();
  return failure;
}

// --- Driver -----------------------------------------------------------------

FuzzFailure RunIteration(uint64_t seed, int64_t iter,
                         const std::string& tmp_prefix) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(iter) + 1);

  FuzzFailure f = FuzzLoaders(tmp_prefix, &rng);
  if (Failed(f)) return f;

  // Serving-artifact decoder under seeded corruption, every iteration: the
  // hex-run codec made the full re-parse cheap next to the aligner stage.
  f = FuzzArtifact(tmp_prefix, &rng);
  if (Failed(f)) return f;

  // Hot-swap quarantine under a live watcher (every fourth iteration: it
  // spins up a server + watcher and reloads a full candidate artifact).
  if (rng.Bernoulli(0.25)) {
    f = FuzzHotSwap(tmp_prefix, &rng);
    if (Failed(f)) return f;
  }

  auto gs = RandomGraph(&rng);
  if (!gs.ok()) return kOk;  // a clean rejection is conforming
  AttributedGraph source = gs.MoveValueOrDie();

  f = FuzzPropagation(source, &rng);
  if (Failed(f)) return f;

  // Partner graph: a noisy copy when possible (realistic alignment input),
  // otherwise an independent draw (mismatched shapes, attribute dims...).
  AttributedGraph target = source;
  if (rng.Bernoulli(0.6) && source.num_nodes() > 2) {
    NoisyCopyOptions opts;
    opts.structural_noise = rng.Uniform() * 0.3;
    opts.attribute_noise = rng.Uniform() * 0.3;
    auto pair = MakeNoisyCopyPair(source, opts, &rng);
    if (pair.ok()) target = std::move(pair.ValueOrDie().target);
  } else {
    auto gt = RandomGraph(&rng);
    if (gt.ok()) target = gt.MoveValueOrDie();
  }

  return FuzzAligner(source, target, &rng);
}

int FuzzMain(int argc, char** argv) {
  uint64_t seed = 1;
  int64_t iters = 50;
  int64_t start = 0;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<uint64_t>(std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg.rfind("--iters=", 0) == 0) {
      iters = std::strtoll(arg.c_str() + 8, nullptr, 10);
    } else if (arg == "--iters" && i + 1 < argc) {
      iters = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg.rfind("--start=", 0) == 0) {
      // Direct replay of a reported iteration without re-running the ones
      // before it (every iteration draws an independent RNG stream).
      start = std::strtoll(arg.c_str() + 8, nullptr, 10);
    } else if (arg == "--start" && i + 1 < argc) {
      start = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: graph_fuzz [--seed N] [--iters M] [--start I] "
                   "[--verbose]\n");
      return 2;
    }
  }

  const std::string tmp_prefix =
      "graph_fuzz_tmp_" + std::to_string(seed);
  for (int64_t iter = start; iter < iters; ++iter) {
    const FuzzFailure f = RunIteration(seed, iter, tmp_prefix);
    if (Failed(f)) {
      std::fprintf(stderr,
                   "FUZZ FAILURE: stage=%s detail=%s\n"
                   "reproduce with: graph_fuzz --seed %" PRIu64
                   " --iters %" PRId64 "  (fails at iteration %" PRId64 ")\n",
                   f.stage.c_str(), f.detail.c_str(), seed, iter + 1, iter);
      return 1;
    }
    if (verbose && (iter + 1) % 10 == 0) {
      std::fprintf(stderr, "graph_fuzz: %" PRId64 "/%" PRId64 " iterations\n",
                   iter + 1, iters);
    }
  }
  std::printf("graph_fuzz: %" PRId64 " iterations, 0 failures (seed %" PRIu64
              ")\n",
              iters, seed);
  return 0;
}

}  // namespace
}  // namespace galign

int main(int argc, char** argv) { return galign::FuzzMain(argc, argv); }
