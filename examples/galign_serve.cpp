// Alignment serving daemon over the immutable AlignmentIndex artifact
// (DESIGN.md §12-13). Five modes:
//
//   --mode=export   Train and durably publish an artifact generation.
//                   Input: --source/--target edge lists (+ optional attrs),
//                   or --generate=N for a synthetic noisy-copy pair (smoke
//                   tests, demos). Writes into --artifact-dir.
//
//   --mode=serve    Load the newest valid artifact generation and answer
//                   "query <node> [k]" lines from stdin until EOF/"quit".
//                   Every line gets exactly one typed reply: a full answer,
//                   a degraded answer (marked), or a typed rejection. An
//                   ArtifactWatcher hot-swaps newly exported generations in
//                   behind the queries (--no-watch disables); "health"
//                   prints the swap/quarantine surface.
//
//   --mode=health   Offline readiness probe: run the quarantine validation
//                   battery (fingerprint probe replay, anchor spot check,
//                   smoke query) against every generation on disk and print
//                   a per-generation verdict. Exit 0 iff something is
//                   servable.
//
//   --mode=burst    In-process overload drill: hammer the server with
//                   --load-multiple times its queue capacity from
//                   --clients threads, then print admission/shed/latency
//                   stats. Exit code 0 iff the serving contract held: every
//                   request resolved with a typed response (OK, Overloaded,
//                   or DeadlineExceeded), no hang, no crash.
//
//   --mode=chaos    Hot-swap chaos drill: under continuous burst load,
//                   publish good / torn / bit-flipped / fingerprint-tampered
//                   / killed-mid-write generations into the live watcher and
//                   assert the §13 invariant — every response typed and
//                   correct for the generation that answered it, every bad
//                   generation quarantined with the right typed reason, the
//                   server ends on the newest good generation.
//
// Usage:
//   galign_serve --mode=export --artifact-dir=/tmp/aidx --generate=120
//   galign_serve --mode=serve  --artifact-dir=/tmp/aidx
//   galign_serve --mode=burst  --artifact-dir=/tmp/aidx --load-multiple=16
//   galign_serve --mode=chaos  --artifact-dir=/tmp/aidx --rounds=2
//
// Serving flags: [--workers=2] [--queue-capacity=64] [--deadline-ms=250]
//   [--mem-budget=512m] [--topk=10] [--retry] [--clients=4]
//   [--load-multiple=4] [--poll-ms=50] [--no-watch] [--rounds=2]
// Export flags: [--epochs=30] [--dim=128] [--anchor-k=10]
//   [--ann-recall-target=0.98]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_io.h"
#include "common/flag_validate.h"
#include "common/timer.h"
#include "core/galign.h"
#include "graph/ann/ann.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/noise.h"
#include "serve/alignment_index.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/swap/swap.h"

using namespace galign;

namespace {

struct ServeCliOptions {
  std::string mode = "serve";
  std::string artifact_dir;
  std::string source, target, source_attrs, target_attrs;
  int64_t generate = 0;  ///< synthetic pair size (export mode), 0 = off
  int epochs = 30;
  int64_t dim = 128;
  int64_t anchor_k = 10;
  double ann_recall_target = 0.98;
  int64_t topk = 10;
  uint64_t mem_budget = 0;
  bool retry = false;  ///< serve mode: retry sheds with backoff
  bool watch = true;   ///< serve mode: hot-swap watcher on by default
  double poll_ms = 50.0;
  ServeConfig serve;
  // Burst / chaos modes.
  int clients = 4;
  int64_t load_multiple = 4;
  int rounds = 2;  ///< chaos: publish cycles through the corruption kinds
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: galign_serve --mode=export|serve|health|burst|chaos"
      " --artifact-dir=<dir>\n"
      "  export: --source=<edges> --target=<edges> [--source-attrs=<tsv>]\n"
      "          [--target-attrs=<tsv>] | --generate=<n>\n"
      "          [--epochs=30] [--dim=128] [--anchor-k=10]\n"
      "          [--ann-recall-target=0.98]\n"
      "  serve:  [--workers=2] [--queue-capacity=64] [--deadline-ms=250]\n"
      "          [--mem-budget=512m] [--topk=10] [--retry] [--poll-ms=50]\n"
      "          [--no-watch]\n"
      "  health: validate every generation on disk, print verdicts\n"
      "  burst:  serve flags plus [--clients=4] [--load-multiple=4]\n"
      "  chaos:  burst flags plus [--rounds=2]\n");
  return 2;
}

Result<AttributedGraph> LoadNetwork(const std::string& edges,
                                    const std::string& attrs) {
  auto g = LoadEdgeList(edges);
  GALIGN_RETURN_NOT_OK(g.status());
  if (attrs.empty()) return g;
  auto f = LoadAttributes(attrs);
  GALIGN_RETURN_NOT_OK(f.status());
  return g.ValueOrDie().WithAttributes(f.MoveValueOrDie());
}

int RunExport(const ServeCliOptions& opt) {
  AttributedGraph source, target;
  if (opt.generate > 0) {
    // Synthetic noisy-copy fixture: enough to smoke-test the full
    // export → load → serve loop without real data.
    Rng rng(7);
    auto g = BarabasiAlbert(opt.generate, 3, &rng);
    if (!g.ok()) {
      std::fprintf(stderr, "generate: %s\n", g.status().ToString().c_str());
      return 1;
    }
    auto attributed = g.ValueOrDie().WithAttributes(
        BinaryAttributes(opt.generate, 8, 0.3, &rng));
    if (!attributed.ok()) {
      std::fprintf(stderr, "generate: %s\n",
                   attributed.status().ToString().c_str());
      return 1;
    }
    NoisyCopyOptions noise;
    noise.structural_noise = 0.05;
    auto pair = MakeNoisyCopyPair(attributed.ValueOrDie(), noise, &rng);
    if (!pair.ok()) {
      std::fprintf(stderr, "generate: %s\n", pair.status().ToString().c_str());
      return 1;
    }
    source = std::move(pair.ValueOrDie().source);
    target = std::move(pair.ValueOrDie().target);
  } else {
    if (opt.source.empty() || opt.target.empty()) return Usage();
    auto s = LoadNetwork(opt.source, opt.source_attrs);
    if (!s.ok()) {
      std::fprintf(stderr, "source: %s\n", s.status().ToString().c_str());
      return 1;
    }
    auto t = LoadNetwork(opt.target, opt.target_attrs);
    if (!t.ok()) {
      std::fprintf(stderr, "target: %s\n", t.status().ToString().c_str());
      return 1;
    }
    source = std::move(s.ValueOrDie());
    target = std::move(t.ValueOrDie());
  }

  GAlignConfig config;
  config.epochs = opt.epochs;
  config.embedding_dim = opt.dim;
  AlignmentIndexOptions options;
  options.anchor_k = opt.anchor_k;
  AnnPolicy recall_policy;
  recall_policy.recall_target = opt.ann_recall_target;
  options.ann = EffortScaledConfig(recall_policy);

  std::printf("training artifact over %lld x %lld nodes...\n",
              static_cast<long long>(source.num_nodes()),
              static_cast<long long>(target.num_nodes()));
  Timer timer;
  auto index = AlignmentIndex::Build(config, source, target, options);
  if (!index.ok()) {
    std::fprintf(stderr, "build: %s\n", index.status().ToString().c_str());
    return 1;
  }
  AlignmentIndexStore store(opt.artifact_dir);
  if (Status saved = store.Save(*index.ValueOrDie()); !saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("published artifact generation under %s in %.1fs (%.1f MiB)\n",
              opt.artifact_dir.c_str(), timer.Seconds(),
              static_cast<double>(index.ValueOrDie()->MemoryBytes()) /
                  (1 << 20));
  return 0;
}

void PrintResponse(int64_t node, const QueryResponse& response) {
  if (!response.status.ok()) {
    std::printf("node %lld: %s (retry after %.0f ms)\n",
                static_cast<long long>(node),
                response.status.ToString().c_str(), response.retry_after_ms);
    return;
  }
  std::printf("node %lld [%s%s, gen %lld, %.2f ms]:",
              static_cast<long long>(node), response.answer_source.c_str(),
              response.degraded ? ", degraded" : "",
              static_cast<long long>(response.generation),
              response.latency_ms);
  for (size_t j = 0; j < response.targets.size(); ++j) {
    std::printf(" %lld:%.4f", static_cast<long long>(response.targets[j]),
                response.scores[j]);
  }
  std::printf("\n");
}

int RunHealth(const ServeCliOptions& opt) {
  AlignmentIndexStore store(opt.artifact_dir);
  const std::vector<int> gens = store.Generations();
  if (gens.empty()) {
    std::printf("no artifact generations under %s\n", opt.artifact_dir.c_str());
    return 1;
  }
  SwapConfig config;
  config.budget = opt.serve.budget;
  int valid = 0, best = 0;
  for (const int gen : gens) {
    RunContext ctx;
    if (config.budget) ctx.SetBudget(config.budget);
    auto index = store.LoadGeneration(gen, ctx);
    if (!index.ok()) {
      std::printf("gen %d: REJECTED (load) — %s\n", gen,
                  index.status().ToString().c_str());
      continue;
    }
    const ValidationOutcome verdict =
        ValidateCandidate(*index.ValueOrDie(), config);
    if (!verdict.ok) {
      std::printf("gen %d: QUARANTINED (%s) — %s\n", gen,
                  QuarantineReasonName(verdict.reason), verdict.detail.c_str());
      continue;
    }
    std::printf("gen %d: OK (validated in %.2f ms, %.1f MiB)\n", gen,
                verdict.latency_ms,
                static_cast<double>(index.ValueOrDie()->MemoryBytes()) /
                    (1 << 20));
    ++valid;
    best = std::max(best, gen);
  }
  if (valid > 0) {
    std::printf("healthy: would serve generation %d\n", best);
    return 0;
  }
  std::printf("unhealthy: no generation passes validation\n");
  return 1;
}

int RunServe(const ServeCliOptions& opt,
             std::shared_ptr<const AlignmentIndex> index, int generation,
             AlignmentIndexStore* store) {
  AlignServer server(std::move(index), opt.serve, generation);
  server.Start();
  SwapConfig swap_config;
  swap_config.poll_interval_ms = opt.poll_ms;
  swap_config.budget = opt.serve.budget;
  std::unique_ptr<ArtifactWatcher> watcher;
  if (opt.watch) {
    watcher = std::make_unique<ArtifactWatcher>(&server, store, swap_config);
    watcher->Start();
  }
  std::printf(
      "serving %lld source nodes (generation %d%s); 'query <node> [k]', "
      "'health', or 'quit'\n",
      static_cast<long long>(server.index()->num_source()), generation,
      opt.watch ? ", hot-swap watcher on" : "");

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty()) continue;
    if (cmd == "quit") break;
    if (cmd == "health") {
      if (watcher) {
        std::printf("%s", FormatHealth(watcher->Health()).c_str());
      } else {
        std::printf("serving_generation: %lld (watcher off)\nqueue_depth: %lld\n",
                    static_cast<long long>(server.serving_generation()),
                    static_cast<long long>(server.queue_depth()));
      }
      continue;
    }
    if (cmd != "query") {
      std::printf("unknown command '%s' (query <node> [k] | health | quit)\n",
                  cmd.c_str());
      continue;
    }
    QueryRequest request;
    request.k = opt.topk;
    if (!(in >> request.node)) {
      std::printf("query needs a node id\n");
      continue;
    }
    in >> request.k;  // optional; keeps the default on failure
    const QueryResponse response =
        opt.retry ? QueryWithRetry(&server, request)
                  : server.SubmitAndWait(request);
    PrintResponse(request.node, response);
  }
  if (watcher) watcher->Stop();
  server.Shutdown();
  return 0;
}

int RunBurst(const ServeCliOptions& opt,
             std::shared_ptr<const AlignmentIndex> index, int generation) {
  AlignServer server(std::move(index), opt.serve, generation);
  server.Start();

  const int64_t total =
      std::max<int64_t>(1, opt.load_multiple * opt.serve.queue_capacity);
  const int clients = std::max(1, opt.clients);
  const int64_t n1 = server.index()->num_source();

  // Every thread counts its outcomes; any untyped status is a contract
  // violation.
  std::vector<int64_t> ok_count(clients, 0), overloaded(clients, 0),
      deadline(clients, 0), unexpected(clients, 0);
  std::vector<std::vector<double>> latencies(clients);
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Fire-then-collect: all of this client's requests hit admission
      // before any response is awaited, so the configured load multiple is
      // real concurrent pressure, not one-in-flight-per-client.
      std::vector<std::future<QueryResponse>> futures;
      for (int64_t i = c; i < total; i += clients) {
        QueryRequest request;
        request.node = i % n1;
        request.k = opt.topk;
        futures.push_back(server.Submit(request));
      }
      for (auto& future : futures) {
        const QueryResponse response = future.get();
        switch (response.status.code()) {
          case StatusCode::kOk:
            ++ok_count[c];
            latencies[c].push_back(response.latency_ms);
            break;
          case StatusCode::kOverloaded:
            ++overloaded[c];
            break;
          case StatusCode::kDeadlineExceeded:
            ++deadline[c];
            break;
          default:
            ++unexpected[c];
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.Seconds();
  server.Shutdown();

  int64_t answered = 0, shed = 0, missed = 0, bad = 0;
  std::vector<double> all_latencies;
  for (int c = 0; c < clients; ++c) {
    answered += ok_count[c];
    shed += overloaded[c];
    missed += deadline[c];
    bad += unexpected[c];
    all_latencies.insert(all_latencies.end(), latencies[c].begin(),
                         latencies[c].end());
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  auto pct = [&](double p) {
    if (all_latencies.empty()) return 0.0;
    const size_t i = std::min(
        all_latencies.size() - 1,
        static_cast<size_t>(p * static_cast<double>(all_latencies.size())));
    return all_latencies[i];
  };

  const ServerStats stats = server.Snapshot();
  std::printf("burst: %lld requests, %d clients, load %lldx capacity\n",
              static_cast<long long>(total), clients,
              static_cast<long long>(opt.load_multiple));
  std::printf(
      "answered %lld (full %llu, reduced-effort %llu, anchor %llu), "
      "shed %lld, deadline %lld, untyped %lld\n",
      static_cast<long long>(answered),
      static_cast<unsigned long long>(stats.completed_full),
      static_cast<unsigned long long>(stats.completed_reduced_effort),
      static_cast<unsigned long long>(stats.completed_anchor),
      static_cast<long long>(shed), static_cast<long long>(missed),
      static_cast<long long>(bad));
  std::printf("p50 %.2f ms, p99 %.2f ms, %.0f QPS answered\n", pct(0.50),
              pct(0.99), wall_s > 0 ? static_cast<double>(answered) / wall_s
                                    : 0.0);

  // Contract check: everything typed, everything resolved.
  if (bad != 0) {
    std::fprintf(stderr, "contract violated: %lld untyped responses\n",
                 static_cast<long long>(bad));
    return 1;
  }
  if (answered + shed + missed != total) {
    std::fprintf(stderr, "contract violated: %lld of %lld requests lost\n",
                 static_cast<long long>(total - answered - shed - missed),
                 static_cast<long long>(total));
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------------------------
// Chaos drill (DESIGN.md §13 acceptance): corrupted publications under burst.

/// Flips `payload[pos]` to a different hex digit (stays parseable hex, so
/// the corruption survives tokenizing and must be caught semantically).
void FlipHexDigit(std::string* payload, size_t pos) {
  (*payload)[pos] = (*payload)[pos] == '7' ? '3' : '7';
}

/// A CRC-valid artifact whose anchor table no longer matches what its ANN
/// index answers: one hex digit of theta[0] flipped. Parse rebuilds the
/// query matrix from theta, so the stored anchors silently disagree — only
/// the quarantine anchor spot check can catch it.
std::string BitFlippedArtifact(const std::string& golden) {
  const size_t theta = golden.find("\ntheta ");
  if (theta == std::string::npos) return golden;
  const size_t after_count = golden.find(' ', theta + 7);
  if (after_count == std::string::npos) return golden;
  std::string tampered = golden;
  FlipHexDigit(&tampered, after_count + 1);
  return tampered;
}

/// A CRC-valid artifact whose recorded ANN behavioral fingerprint was
/// tampered: the recipe's `fingerprint <8-hex>` digit flipped in place, so
/// the rebuilt index can no longer prove it answers like the saved one.
std::string FingerprintTamperedArtifact(const std::string& golden) {
  const size_t fp = golden.find("fingerprint ");
  if (fp == std::string::npos) return golden;
  std::string tampered = golden;
  FlipHexDigit(&tampered, fp + std::strlen("fingerprint "));
  return tampered;
}

struct BadPublication {
  int gen = 0;
  const char* kind = "";
  QuarantineReason expected = QuarantineReason::kLoadFailed;
};

int RunChaos(const ServeCliOptions& opt,
             std::shared_ptr<const AlignmentIndex> index, int generation,
             AlignmentIndexStore* store) {
  const std::string golden = index->Serialize();
  const TopKAlignment& anchors = index->anchors();
  const int64_t n1 = index->num_source();
  const int64_t anchor_k = index->anchor_k();

  AlignServer server(index, opt.serve, generation);
  server.Start();
  SwapConfig swap_config;
  swap_config.poll_interval_ms = std::min(5.0, opt.poll_ms);
  swap_config.budget = opt.serve.budget;
  ArtifactWatcher watcher(&server, store, swap_config);
  watcher.Start();

  // Every good publication carries the golden payload, so any valid
  // generation must answer exactly like the anchors of the loaded index.
  std::mutex truth_mu;
  std::set<int64_t> valid_gens{generation};

  std::atomic<bool> done{false};
  std::atomic<int64_t> answered{0}, shed{0}, missed{0}, untyped{0},
      mismatched{0}, bad_generation{0};

  const int clients = std::max(1, opt.clients);
  const int64_t batch = std::max<int64_t>(
      1, opt.load_multiple * opt.serve.queue_capacity / clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      int64_t round = 0;
      while (!done.load(std::memory_order_relaxed)) {
        // Fire-then-collect, continuously: the swap must land under real
        // admission pressure, not between tidy waves.
        std::vector<std::future<QueryResponse>> futures;
        std::vector<int64_t> nodes;
        futures.reserve(static_cast<size_t>(batch));
        for (int64_t i = 0; i < batch; ++i) {
          QueryRequest request;
          request.node = (round * 131 + c * 17 + i) % n1;
          request.k = anchor_k;
          nodes.push_back(request.node);
          futures.push_back(server.Submit(request));
        }
        ++round;
        for (size_t i = 0; i < futures.size(); ++i) {
          const QueryResponse r = futures[i].get();
          switch (r.status.code()) {
            case StatusCode::kOk: {
              ++answered;
              {
                std::lock_guard<std::mutex> lock(truth_mu);
                if (valid_gens.count(r.generation) == 0) ++bad_generation;
              }
              // Full-effort ANN answers and anchor-table fallbacks are
              // bit-exact against the golden anchor row; reduced-effort
              // answers are the only approximate ones.
              if ((r.answer_source == "ann" && r.effort_step == 0) ||
                  r.answer_source == "anchor_table") {
                for (size_t j = 0; j < r.targets.size(); ++j) {
                  const size_t at =
                      static_cast<size_t>(nodes[i] * anchors.k) + j;
                  if (r.targets[j] != anchors.index[at] ||
                      r.scores[j] != anchors.score[at]) {
                    ++mismatched;
                    break;
                  }
                }
              }
              break;
            }
            case StatusCode::kOverloaded:
              ++shed;
              break;
            case StatusCode::kDeadlineExceeded:
              ++missed;
              break;
            default:
              ++untyped;
              break;
          }
        }
      }
    });
  }

  // The publisher: cycle through one good publication and four distinct
  // corruptions per round, driving a watcher pass after each so every bad
  // generation is provably *attempted* (the background thread races along
  // for extra pressure). Good generations are recorded as valid before the
  // file exists, so a client can never observe an unlisted generation.
  std::vector<BadPublication> bad_pubs;
  std::vector<int> good_gens;
  int publish_failures = 0;
  for (int r = 0; r < std::max(1, opt.rounds); ++r) {
    for (int kind = 0; kind < 5; ++kind) {
      const int gen = store->NewestGeneration() + 1;
      const std::string path = store->GenerationPath(gen);
      Status wrote = Status::OK();
      switch (kind) {
        case 0: {  // good: byte-identical to the serving artifact
          {
            std::lock_guard<std::mutex> lock(truth_mu);
            valid_gens.insert(gen);
          }
          wrote = AtomicWriteFile(path, AppendCrc32Trailer(golden));
          if (wrote.ok()) good_gens.push_back(gen);
          break;
        }
        case 1: {  // torn: CRC'd payload truncated to a third
          const std::string full = AppendCrc32Trailer(golden);
          wrote = AtomicWriteFile(path, full.substr(0, full.size() / 3));
          bad_pubs.push_back({gen, "torn", QuarantineReason::kLoadFailed});
          break;
        }
        case 2: {  // bit-flip: valid CRC, anchors disagree with the ANN
          wrote = AtomicWriteFile(
              path, AppendCrc32Trailer(BitFlippedArtifact(golden)));
          bad_pubs.push_back(
              {gen, "bit-flip", QuarantineReason::kAnchorMismatch});
          break;
        }
        case 3: {  // fingerprint-tampered: valid CRC, recipe lies
          wrote = AtomicWriteFile(
              path, AppendCrc32Trailer(FingerprintTamperedArtifact(golden)));
          bad_pubs.push_back({gen, "fingerprint-tampered",
                              QuarantineReason::kFingerprintMismatch});
          break;
        }
        case 4: {  // exporter killed mid-publish: non-atomic partial write
          std::ofstream raw(path, std::ios::trunc | std::ios::binary);
          raw.write(golden.data(),
                    static_cast<std::streamsize>(golden.size() / 2));
          bad_pubs.push_back(
              {gen, "killed-exporter", QuarantineReason::kLoadFailed});
          break;
        }
      }
      if (!wrote.ok()) {
        std::fprintf(stderr, "chaos publish gen %d: %s\n", gen,
                     wrote.ToString().c_str());
        ++publish_failures;
      }
      watcher.PollOnce();
    }
  }

  // Convergence: the server must end up on the newest good generation —
  // poisoned generations above it must not wedge the watcher.
  const int want = good_gens.empty() ? generation : good_gens.back();
  Timer wait;
  while (server.serving_generation() != want && wait.Seconds() < 30.0) {
    watcher.PollOnce();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  for (std::thread& t : threads) t.join();
  watcher.Stop();
  const SwapHealth health = watcher.Health();
  server.Shutdown();

  std::printf("%s", FormatHealth(health).c_str());
  std::printf(
      "chaos: %zu published (%zu good, %zu bad), answered %lld, shed %lld, "
      "deadline %lld\n",
      good_gens.size() + bad_pubs.size(), good_gens.size(), bad_pubs.size(),
      static_cast<long long>(answered.load()),
      static_cast<long long>(shed.load()),
      static_cast<long long>(missed.load()));

  // The §13 invariant, as the exit code.
  int violations = publish_failures;
  if (untyped.load() != 0) {
    std::fprintf(stderr, "contract violated: %lld untyped responses\n",
                 static_cast<long long>(untyped.load()));
    ++violations;
  }
  if (mismatched.load() != 0) {
    std::fprintf(stderr,
                 "contract violated: %lld answers disagreed with their "
                 "generation's anchor table\n",
                 static_cast<long long>(mismatched.load()));
    ++violations;
  }
  if (bad_generation.load() != 0) {
    std::fprintf(stderr,
                 "contract violated: %lld responses stamped with a "
                 "generation that never passed validation\n",
                 static_cast<long long>(bad_generation.load()));
    ++violations;
  }
  if (server.serving_generation() != want) {
    std::fprintf(stderr,
                 "contract violated: serving generation %lld, newest good "
                 "is %d\n",
                 static_cast<long long>(server.serving_generation()), want);
    ++violations;
  }
  for (const BadPublication& bad : bad_pubs) {
    const QuarantineRecord* record = nullptr;
    for (const QuarantineRecord& q : health.quarantined) {
      if (q.generation == bad.gen) record = &q;
    }
    if (record == nullptr) {
      std::fprintf(stderr,
                   "contract violated: bad generation %d (%s) missing from "
                   "the quarantine list\n",
                   bad.gen, bad.kind);
      ++violations;
    } else if (record->reason != bad.expected) {
      std::fprintf(stderr,
                   "contract violated: generation %d (%s) quarantined as %s, "
                   "expected %s\n",
                   bad.gen, bad.kind, QuarantineReasonName(record->reason),
                   QuarantineReasonName(bad.expected));
      ++violations;
    }
  }
  if (health.swaps.size() != good_gens.size()) {
    std::fprintf(stderr,
                 "contract violated: %zu swaps recorded for %zu good "
                 "publications\n",
                 health.swaps.size(), good_gens.size());
    ++violations;
  }
  if (violations == 0) {
    std::printf("chaos drill passed: every response typed, every bad "
                "generation quarantined, serving generation %d\n",
                want);
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ServeCliOptions opt;
  std::string flag;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--mode", &opt.mode)) continue;
    if (ParseFlag(argv[i], "--artifact-dir", &opt.artifact_dir)) continue;
    if (ParseFlag(argv[i], "--source", &opt.source)) continue;
    if (ParseFlag(argv[i], "--target", &opt.target)) continue;
    if (ParseFlag(argv[i], "--source-attrs", &opt.source_attrs)) continue;
    if (ParseFlag(argv[i], "--target-attrs", &opt.target_attrs)) continue;
    if (std::strcmp(argv[i], "--retry") == 0) {
      opt.retry = true;
      continue;
    }
    if (std::strcmp(argv[i], "--no-watch") == 0) {
      opt.watch = false;
      continue;
    }
    if (std::strcmp(argv[i], "--health") == 0) {
      opt.mode = "health";
      continue;
    }
    if (ParseFlag(argv[i], "--poll-ms", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--poll-ms");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.poll_ms = static_cast<double>(v.ValueOrDie());
      continue;
    }
    if (ParseFlag(argv[i], "--rounds", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--rounds");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.rounds = static_cast<int>(v.ValueOrDie());
      continue;
    }
    if (ParseFlag(argv[i], "--generate", &flag)) {
      auto n = GALIGN_VALIDATE_POSITIVE_INT(flag, "--generate");
      if (!n.ok()) {
        std::fprintf(stderr, "%s\n", n.status().ToString().c_str());
        return 2;
      }
      opt.generate = n.ValueOrDie();
      continue;
    }
    if (ParseFlag(argv[i], "--epochs", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--epochs");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.epochs = static_cast<int>(v.ValueOrDie());
      continue;
    }
    if (ParseFlag(argv[i], "--dim", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--dim");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.dim = v.ValueOrDie();
      continue;
    }
    if (ParseFlag(argv[i], "--anchor-k", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--anchor-k");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.anchor_k = v.ValueOrDie();
      continue;
    }
    if (ParseFlag(argv[i], "--ann-recall-target", &flag)) {
      auto v = GALIGN_VALIDATE_UNIT_INTERVAL(flag, "--ann-recall-target");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.ann_recall_target = v.ValueOrDie();
      continue;
    }
    if (ParseFlag(argv[i], "--topk", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--topk");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.topk = v.ValueOrDie();
      continue;
    }
    if (ParseFlag(argv[i], "--mem-budget", &flag)) {
      auto v = GALIGN_VALIDATE_BYTE_SIZE(flag, "--mem-budget");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.mem_budget = v.ValueOrDie();
      continue;
    }
    if (ParseFlag(argv[i], "--workers", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--workers");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.serve.workers = static_cast<int>(v.ValueOrDie());
      continue;
    }
    if (ParseFlag(argv[i], "--queue-capacity", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--queue-capacity");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.serve.queue_capacity = v.ValueOrDie();
      continue;
    }
    if (ParseFlag(argv[i], "--deadline-ms", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--deadline-ms");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.serve.default_deadline_ms = static_cast<double>(v.ValueOrDie());
      continue;
    }
    if (ParseFlag(argv[i], "--clients", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--clients");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.clients = static_cast<int>(v.ValueOrDie());
      continue;
    }
    if (ParseFlag(argv[i], "--load-multiple", &flag)) {
      auto v = GALIGN_VALIDATE_POSITIVE_INT(flag, "--load-multiple");
      if (!v.ok()) {
        std::fprintf(stderr, "%s\n", v.status().ToString().c_str());
        return 2;
      }
      opt.load_multiple = v.ValueOrDie();
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
    return 2;
  }
  if (opt.artifact_dir.empty()) return Usage();

  if (opt.mem_budget > 0) {
    opt.serve.budget = std::make_shared<MemoryBudget>(opt.mem_budget);
  }

  if (opt.mode == "export") return RunExport(opt);
  if (opt.mode == "health") return RunHealth(opt);
  if (opt.mode != "serve" && opt.mode != "burst" && opt.mode != "chaos") {
    return Usage();
  }

  AlignmentIndexStore store(opt.artifact_dir);
  int generation = 0;
  auto index = store.LoadLatest(RunContext(), &generation);
  if (!index.ok()) {
    std::fprintf(stderr, "load: %s\n", index.status().ToString().c_str());
    return 1;
  }
  // Data-dependent bound: --topk cannot exceed the artifact's target side.
  if (Status bound = GALIGN_VALIDATE_TOPK_BOUND(
          opt.topk, index.ValueOrDie()->num_target(), "--topk");
      !bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.ToString().c_str());
    return 2;
  }
  if (opt.mode == "serve") {
    return RunServe(opt, std::move(index.ValueOrDie()), generation, &store);
  }
  if (opt.mode == "chaos") {
    return RunChaos(opt, std::move(index.ValueOrDie()), generation, &store);
  }
  return RunBurst(opt, std::move(index.ValueOrDie()), generation);
}
