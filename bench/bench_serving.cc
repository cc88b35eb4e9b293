// Google-benchmark suite for the serving layer (DESIGN.md §12): one
// immutable AlignmentIndex behind an AlignServer, burst at 1x / 4x / 16x
// the admission queue's capacity. Each entry records the numbers the
// overload contract is judged by:
//
//   * p50_ms / p99_ms  — admission-to-completion latency of answered
//     requests (queue wait included, since the deadline starts at
//     admission);
//   * qps              — answered requests per wall-clock second of the
//     burst;
//   * shed             — typed kOverloaded rejections (queue full or
//     budget exhausted), the load the server refused rather than queued;
//   * answered/degraded — resolved answers and how many of those were
//     less than full effort (reduced ANN effort or anchor-table rows).
//
// At 1x the queue absorbs everything and shed must be ~0; at 16x most of
// the load must shed — the interesting number is that p99 of what *was*
// answered stays bounded instead of growing with offered load.
//
// BM_ArtifactSave / BM_ArtifactLoad time the two artifact-I/O stages of a
// hot refresh (DESIGN.md §13) at the same index's shape. Run via
// bench/run_all.sh to record BENCH_serving.json with provenance stamps.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/gbench_main.h"
#include "common/durable_io.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/galign.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "serve/alignment_index.h"
#include "serve/server.h"

namespace galign {
namespace {

constexpr int64_t kNodes = 120;
constexpr int64_t kQueueCapacity = 16;
constexpr int kClients = 4;

/// One artifact shared by every load level: built once, immutable, so the
/// bench measures serving and not training.
std::shared_ptr<const AlignmentIndex> SharedIndex() {
  static const std::shared_ptr<const AlignmentIndex> index = [] {
    Rng rng(17);
    auto g = BarabasiAlbert(kNodes, 3, &rng).MoveValueOrDie();
    g = g.WithAttributes(BinaryAttributes(kNodes, 8, 0.3, &rng))
            .MoveValueOrDie();
    NoisyCopyOptions opts;
    opts.structural_noise = 0.05;
    auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();

    GAlignConfig config;
    config.epochs = 4;
    config.embedding_dim = 16;
    AlignmentIndexOptions options;
    options.anchor_k = 5;
    return AlignmentIndex::Build(config, pair.source, pair.target, options)
        .MoveValueOrDie();
  }();
  return index;
}

double Percentile(std::vector<double>* sorted_in_place, double q) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

/// One burst: `load_multiple * kQueueCapacity` requests fired from
/// kClients threads before any future is collected, so offered load
/// actually exceeds capacity instead of self-pacing at the answer rate.
void BM_ServingBurst(benchmark::State& state) {
  const int64_t load_multiple = state.range(0);
  std::shared_ptr<const AlignmentIndex> index = SharedIndex();
  const int64_t total = load_multiple * kQueueCapacity;

  uint64_t answered = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t untyped = 0;
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;

  for (auto _ : state) {
    ServeConfig config;
    config.workers = 2;
    config.queue_capacity = kQueueCapacity;
    config.default_deadline_ms = 2000.0;
    config.budget = std::make_shared<MemoryBudget>(uint64_t{256} << 20);
    AlignServer server(index, config);
    server.Start();

    std::vector<std::future<QueryResponse>> futures(total);
    Timer burst_timer;
    {
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (int64_t i = c; i < total; i += kClients) {
            QueryRequest request;
            request.node = i % index->num_source();
            request.k = 5;
            futures[i] = server.Submit(request);
          }
        });
      }
      for (std::thread& t : clients) t.join();
    }
    for (std::future<QueryResponse>& f : futures) {
      QueryResponse response = f.get();
      if (response.status.ok()) {
        ++answered;
        if (response.degraded) ++degraded;
        latencies_ms.push_back(response.latency_ms);
      } else if (response.status.code() == StatusCode::kOverloaded) {
        ++shed;
      } else if (response.status.code() != StatusCode::kDeadlineExceeded) {
        ++untyped;
      }
    }
    wall_seconds += burst_timer.Seconds();
    server.Shutdown();
  }

  const double iters = static_cast<double>(state.iterations());
  state.counters["offered"] = static_cast<double>(total);
  state.counters["answered"] = static_cast<double>(answered) / iters;
  state.counters["shed"] = static_cast<double>(shed) / iters;
  state.counters["degraded"] = static_cast<double>(degraded) / iters;
  // Any untyped resolution is a contract violation, not a perf number.
  state.counters["untyped"] = static_cast<double>(untyped) / iters;
  state.counters["p50_ms"] = Percentile(&latencies_ms, 0.50);
  state.counters["p99_ms"] = Percentile(&latencies_ms, 0.99);
  state.counters["qps"] =
      wall_seconds > 0.0 ? static_cast<double>(answered) / wall_seconds : 0.0;
}

BENCHMARK(BM_ServingBurst)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Single-client closed-loop latency at each effort step: what a degraded
/// answer costs relative to full effort, without queueing noise.
void BM_ServingQueryLatency(benchmark::State& state) {
  std::shared_ptr<const AlignmentIndex> index = SharedIndex();
  ServeConfig config;
  config.workers = 1;
  config.queue_capacity = kQueueCapacity;
  config.default_deadline_ms = 2000.0;
  AlignServer server(index, config);
  server.Start();

  int64_t node = 0;
  for (auto _ : state) {
    QueryRequest request;
    request.node = node;
    request.k = 5;
    node = (node + 1) % index->num_source();
    QueryResponse response = server.SubmitAndWait(request);
    if (!response.status.ok())
      state.SkipWithError(response.status.ToString().c_str());
    benchmark::DoNotOptimize(response.targets.data());
  }
  server.Shutdown();
}

BENCHMARK(BM_ServingQueryLatency)->Unit(benchmark::kMicrosecond);

/// The published artifact round-tripped through serialize/parse: what the
/// hot-swap watcher actually hands SwapIndex after quarantine. Built once.
std::shared_ptr<const AlignmentIndex> SharedReloadedIndex() {
  static const std::shared_ptr<const AlignmentIndex> index =
      AlignmentIndex::Parse(SharedIndex()->Serialize(), "bench swap clone")
          .MoveValueOrDie();
  return index;
}

/// Hot swap under load (DESIGN.md §13): clients run a closed query loop
/// while the serving artifact is swapped mid-burst. Recorded:
///
///   * p99_steady_ms — p99 of answers that ran on the old generation;
///   * p99_swap_ms   — p99 of answers on the new generation (the window
///     where retire-old overlaps serve-new), which must stay in the same
///     regime as steady state: a swap is one pointer store, not a pause;
///   * swap_to_first_new_ms — SwapIndex() call to the first answer stamped
///     with the new generation (zero-downtime refresh latency).
void BM_ServingHotSwap(benchmark::State& state) {
  std::shared_ptr<const AlignmentIndex> old_index = SharedIndex();
  std::shared_ptr<const AlignmentIndex> new_index = SharedReloadedIndex();
  constexpr int64_t kPerClient = 64;
  constexpr int64_t kSwapAfter = 16;  // per-client answers before the swap

  uint64_t answered = 0;
  uint64_t untyped = 0;
  std::vector<double> steady_ms;
  std::vector<double> swapped_ms;
  std::vector<double> first_new_ms;

  for (auto _ : state) {
    ServeConfig config;
    config.workers = 2;
    config.queue_capacity = kQueueCapacity;
    config.default_deadline_ms = 2000.0;
    AlignServer server(old_index, config, /*generation=*/1);
    server.Start();

    std::atomic<int64_t> old_gen_answers{0};
    std::atomic<bool> saw_new_gen{false};
    std::mutex mu;  // guards the latency vectors + first-answer stamp
    Timer swap_timer;
    std::atomic<bool> swap_started{false};

    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int64_t i = 0; i < kPerClient; ++i) {
          QueryRequest request;
          request.node = (c * kPerClient + i) % old_index->num_source();
          request.k = 5;
          QueryResponse response = server.SubmitAndWait(request);
          if (!response.status.ok()) {
            if (response.status.code() != StatusCode::kOverloaded &&
                response.status.code() != StatusCode::kDeadlineExceeded) {
              std::lock_guard<std::mutex> lock(mu);
              ++untyped;
            }
            continue;
          }
          std::lock_guard<std::mutex> lock(mu);
          ++answered;
          if (response.generation == 1) {
            old_gen_answers.fetch_add(1, std::memory_order_relaxed);
            steady_ms.push_back(response.latency_ms);
          } else {
            swapped_ms.push_back(response.latency_ms);
            if (!saw_new_gen.exchange(true) &&
                swap_started.load(std::memory_order_acquire)) {
              first_new_ms.push_back(swap_timer.Seconds() * 1000.0);
            }
          }
        }
      });
    }

    // Publish the new generation once the burst is demonstrably hot.
    while (old_gen_answers.load(std::memory_order_relaxed) <
           kSwapAfter * kClients) {
      std::this_thread::yield();
    }
    swap_timer = Timer();
    swap_started.store(true, std::memory_order_release);
    server.SwapIndex(new_index, /*generation=*/2);

    for (std::thread& t : clients) t.join();
    server.Shutdown();
  }

  const double iters = static_cast<double>(state.iterations());
  state.counters["answered"] = static_cast<double>(answered) / iters;
  state.counters["untyped"] = static_cast<double>(untyped) / iters;
  state.counters["p99_steady_ms"] = Percentile(&steady_ms, 0.99);
  state.counters["p99_swap_ms"] = Percentile(&swapped_ms, 0.99);
  state.counters["swap_to_first_new_ms"] = Percentile(&first_new_ms, 0.50);
}

BENCHMARK(BM_ServingHotSwap)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// A fresh per-process temporary directory for the artifact benches.
std::string ArtifactBenchDir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("galign_bench_") + name + "_" +
       std::to_string(static_cast<long>(::getpid())));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The publishing half of a refresh: what AlignmentIndexStore::Save writes
/// before its retention pass — Serialize, the CRC trailer, and the
/// fsync'd temp-and-rename.
void BM_ArtifactSave(benchmark::State& state) {
  std::shared_ptr<const AlignmentIndex> index = SharedIndex();
  const std::string dir = ArtifactBenchDir("artifact_save");
  const std::string path = AlignmentIndexStore(dir).GenerationPath(1);
  int64_t bytes = 0;
  for (auto _ : state) {
    const std::string framed = AppendCrc32Trailer(index->Serialize());
    const Status st = AtomicWriteFile(path, framed);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(framed.data());
    benchmark::ClobberMemory();
    bytes += static_cast<int64_t>(framed.size());
  }
  state.SetBytesProcessed(bytes);
  std::filesystem::remove_all(dir);
}

BENCHMARK(BM_ArtifactSave)->Unit(benchmark::kMicrosecond);

/// The loading half: AlignmentIndexStore::LoadGeneration — read, CRC
/// verify, Parse (hex decode plus the ANN rebuild and fingerprint check).
void BM_ArtifactLoad(benchmark::State& state) {
  const std::string dir = ArtifactBenchDir("artifact_load");
  AlignmentIndexStore store(dir, /*keep=*/1);
  const Status saved = store.Save(*SharedIndex());
  if (!saved.ok()) state.SkipWithError(saved.ToString().c_str());
  std::error_code ec;
  const int64_t file_bytes = static_cast<int64_t>(
      std::filesystem::file_size(store.GenerationPath(1), ec));
  for (auto _ : state) {
    auto loaded = store.LoadGeneration(1);
    if (!loaded.ok()) state.SkipWithError(loaded.status().ToString().c_str());
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(file_bytes * state.iterations());
  std::filesystem::remove_all(dir);
}

BENCHMARK(BM_ArtifactLoad)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace galign

GALIGN_BENCHMARK_MAIN()
