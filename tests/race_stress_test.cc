// Concurrency stress suite for the ThreadSanitizer gate (DESIGN.md §10).
//
// The parallel_for pool, the MemoryBudget/MemoryTracker atomics, the shared
// CancelToken, and the fault-injection registry are all assumed data-race
// free by the rest of the library; this suite hammers each one from many
// threads so a TSan build (scripts/check.sh tsan stage, -DGALIGN_TSAN=ON)
// turns any racy access into a hard failure. The tests also assert
// functional invariants (exact sums, balanced ledgers) so they earn their
// keep in plain builds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "core/galign.h"
#include "graph/ann/ann_index.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "la/matrix.h"
#include "serve/alignment_index.h"
#include "serve/server.h"

namespace galign {
namespace {

// ------------------------------------------------------------- ParallelFor

TEST(RaceStress, ParallelForManyConcurrentCallers) {
  // Several external threads issue ParallelFor calls into the shared pool
  // at once; every range must still be covered exactly once.
  constexpr int kCallers = 6;
  constexpr int64_t kRange = 200000;
  std::vector<std::thread> callers;
  std::vector<int64_t> sums(kCallers, 0);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &sums] {
      std::atomic<int64_t> sum{0};
      ParallelFor(0, kRange, [&sum](int64_t b, int64_t e) {
        int64_t local = 0;
        for (int64_t i = b; i < e; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      });
      sums[t] = sum.load();
    });
  }
  for (auto& th : callers) th.join();
  const int64_t expect = kRange * (kRange - 1) / 2;
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(sums[t], expect);
}

TEST(RaceStress, ParallelForNestedAndUnbalanced) {
  // Outer parallel loop spawning inner parallel loops with deliberately
  // unbalanced chunk work — the re-entrant path must neither deadlock nor
  // race on the pool's internal queue.
  std::atomic<int64_t> total{0};
  ParallelFor(
      0, 64,
      [&total](int64_t ob, int64_t oe) {
        for (int64_t o = ob; o < oe; ++o) {
          const int64_t inner = (o % 7 == 0) ? 20000 : 50;  // unbalanced
          ParallelFor(
              0, inner,
              [&total](int64_t b, int64_t e) {
                total.fetch_add(e - b, std::memory_order_relaxed);
              },
              /*min_chunk=*/16);
        }
      },
      /*min_chunk=*/1);
  int64_t expect = 0;
  for (int64_t o = 0; o < 64; ++o) expect += (o % 7 == 0) ? 20000 : 50;
  EXPECT_EQ(total.load(), expect);
}

// ------------------------------------- MemoryBudget / MemoryTracker gauge

TEST(RaceStress, BudgetReserveReleaseConcurrent) {
  // N threads fight over a budget that only fits a few reservations at a
  // time. Invariants: no thread ever observes success past the limit, and
  // the ledger drains back to zero when everyone is done.
  MemoryBudget budget(1 << 20);  // 1 MiB
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  constexpr uint64_t kChunk = 200 * 1024;  // five fit, eight don't
  std::atomic<int64_t> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MemoryScope scope;
        Status st = MemoryScope::Reserve(&budget, kChunk, "race", &scope);
        if (st.ok()) {
          admitted.fetch_add(1, std::memory_order_relaxed);
          EXPECT_LE(budget.reserved(), budget.limit());
        }
        // scope releases at end of iteration either way
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(admitted.load(), 0);
  EXPECT_EQ(budget.reserved(), 0u);
  EXPECT_LE(budget.reserved_peak(), budget.limit());
}

TEST(RaceStress, TrackerGaugeUnderConcurrentMatrixChurn) {
  // Matrix allocations feed the process-wide MemoryTracker through
  // TrackingAllocator from every thread; live bytes must return exactly to
  // the baseline once all matrices die.
  const uint64_t baseline = MemoryTracker::LiveBytes();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 200; ++i) {
        Matrix m(16 + t, 32 + i % 7, 1.0);
        ASSERT_GT(MemoryTracker::LiveBytes(), 0u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(MemoryTracker::LiveBytes(), baseline);
  EXPECT_GE(MemoryTracker::PeakBytes(), baseline);
}

// --------------------------------------- CancelToken + deadline polling

TEST(RaceStress, CancelTokenTripWhileManyPollers) {
  // Pollers spin on ShouldStop() while another thread trips the shared
  // token; every poller must observe the (sticky) cancellation.
  CancelToken token;
  RunContext ctx = RunContext::WithTimeout(30.0);
  ctx.SetToken(token);
  constexpr int kPollers = 8;
  std::atomic<int> seen{0};
  std::vector<std::thread> pollers;
  for (int t = 0; t < kPollers; ++t) {
    pollers.emplace_back([&] {
      while (!ctx.ShouldStop()) std::this_thread::yield();
      EXPECT_TRUE(ctx.Cancelled());
      EXPECT_FALSE(ctx.DeadlineExceeded());
      seen.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::thread tripper([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.Cancel();
    token.Cancel();  // idempotent from any thread
  });
  tripper.join();
  for (auto& th : pollers) th.join();
  EXPECT_EQ(seen.load(), kPollers);
}

TEST(RaceStress, DeadlinePollingFromManyThreads) {
  // An already-short deadline polled concurrently: RemainingSeconds() and
  // DeadlineExceeded() read the same immutable deadline from every thread.
  RunContext ctx = RunContext::WithTimeout(0.02);
  constexpr int kPollers = 8;
  std::vector<std::thread> pollers;
  std::atomic<int> expired{0};
  for (int t = 0; t < kPollers; ++t) {
    pollers.emplace_back([&] {
      while (!ctx.DeadlineExceeded()) std::this_thread::yield();
      EXPECT_LE(ctx.RemainingSeconds(), 0.0);
      expired.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : pollers) th.join();
  EXPECT_EQ(expired.load(), kPollers);
  EXPECT_TRUE(ctx.ShouldStop());
}

// ------------------------------------------------ fault-site registry

#ifndef GALIGN_DISABLE_FAULT_INJECTION
TEST(RaceStress, FaultRegistryConcurrentArmFireDisarm) {
  // Writers arm/disarm sites while readers hit the instrumentation points;
  // the registry must serialize internally without losing determinism for
  // a site armed and probed by a single thread.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const std::string site = "race.site." + std::to_string(t);
      fault::Spec spec;
      spec.kind = fault::Kind::kFailIO;
      spec.at_call = 3;
      for (int i = 0; i < 100; ++i) {
        fault::Arm(site, spec);
        int fired = 0;
        for (int c = 0; c < 6; ++c) {
          if (fault::ShouldFailIO(site.c_str())) ++fired;
        }
        EXPECT_EQ(fired, 1) << site;  // fires exactly at call 3
        EXPECT_EQ(fault::CallCount(site), 6);
        // Hammer a *shared* site concurrently with everyone else; only
        // the serialization matters here, not who wins.
        fault::Arm("race.shared", spec);
        (void)fault::ShouldFailIO("race.shared");
        (void)fault::CallCount("race.shared");
        fault::Disarm(site);
      }
    });
  }
  for (auto& th : threads) th.join();
  fault::DisarmAll();
}
#endif  // GALIGN_DISABLE_FAULT_INJECTION

// ----------------------------------------------------- shared ANN index

TEST(RaceStress, ConcurrentQueriesAgainstSharedAnnIndex) {
  // The serving contract of DESIGN.md §11: an AnnIndex is immutable after
  // construction and QueryBatch is const, so many threads may query one
  // shared index concurrently. Every thread must get the same answer as a
  // pre-computed serial baseline — and under TSan any mutation hiding in
  // the query path (scratch sharing, lazy caching) becomes a hard failure.
  Rng rng(77);
  Matrix base = Matrix::Gaussian(400, 12, &rng);
  base.NormalizeRows();
  Matrix queries = Matrix::Gaussian(64, 12, &rng);
  queries.NormalizeRows();
  auto index = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const AnnIndex& shared = *index.ValueOrDie();
  auto baseline = shared.QueryBatch(queries, 5);
  ASSERT_TRUE(baseline.ok());

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &queries, &baseline, &mismatches] {
      for (int round = 0; round < 4; ++round) {
        auto got = shared.QueryBatch(queries, 5);
        if (!got.ok() ||
            got.ValueOrDie().index != baseline.ValueOrDie().index ||
            got.ValueOrDie().score != baseline.ValueOrDie().score) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------- shared alignment server

TEST(RaceStress, ServingQueueUnderMixedClientPressure) {
  // The serving contract of DESIGN.md §12 under concurrency: many client
  // threads push through one bounded admission queue into one shared
  // immutable AlignmentIndex, with a mix of generous deadlines, already-
  // expired deadlines, cross-thread cancellations, and (when fault
  // injection is compiled in) an intermittently armed admission fault.
  // Invariants: every submitted request resolves with a typed status, the
  // budget ledger drains to zero, and under TSan any racy access in the
  // queue/worker/cancellation paths becomes a hard failure.
  Rng rng(5);
  auto g = BarabasiAlbert(50, 3, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(50, 8, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions noise;
  noise.structural_noise = 0.05;
  auto pair = MakeNoisyCopyPair(g, noise, &rng).MoveValueOrDie();
  GAlignConfig config;
  config.epochs = 3;
  config.embedding_dim = 16;
  AlignmentIndexOptions options;
  options.anchor_k = 4;
  auto built =
      AlignmentIndex::Build(config, pair.source, pair.target, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  ServeConfig serve_config;
  serve_config.workers = 3;
  serve_config.queue_capacity = 8;
  serve_config.default_deadline_ms = 500.0;
  serve_config.retry_after_ms = 1.0;
  serve_config.budget = std::make_shared<MemoryBudget>(uint64_t{8} << 20);
  serve_config.per_request_bytes = uint64_t{1} << 20;
  AlignServer server(built.ValueOrDie(), serve_config);
  server.Start();

  constexpr int kClients = 8;
  constexpr int kPerClient = 60;
  std::atomic<int64_t> resolved{0};
  std::atomic<int64_t> untyped{0};
  std::atomic<bool> stop_arming{false};

#ifndef GALIGN_DISABLE_FAULT_INJECTION
  // Overload injector: keeps re-arming the admission fault while clients
  // hammer the queue, so sheds interleave with every other outcome.
  std::thread arming([&stop_arming] {
    fault::Spec spec;
    spec.kind = fault::Kind::kFailIO;
    spec.at_call = 5;
    spec.repeat = 3;
    while (!stop_arming.load(std::memory_order_relaxed)) {
      fault::Arm("serve.admit", spec);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      fault::Disarm("serve.admit");
      std::this_thread::yield();
    }
    fault::Disarm("serve.admit");
  });
#endif

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        QueryRequest request;
        request.node = (c * kPerClient + i) % 50;
        request.k = 4;
        switch ((c + i) % 4) {
          case 0:
            break;  // generous default deadline
          case 1:
            request.deadline_ms = 1e-3;  // expired on arrival
            break;
          case 2:
            request.deadline_ms = 1e-2;
            request.allow_degraded = false;  // typed DeadlineExceeded path
            break;
          default:
            break;
        }
        CancelToken token = request.token;
        std::future<QueryResponse> future = server.Submit(request);
        if ((c + i) % 5 == 0) token.Cancel();  // cross-thread mid-flight
        const QueryResponse response = future.get();
        resolved.fetch_add(1, std::memory_order_relaxed);
        switch (response.status.code()) {
          case StatusCode::kOk:
          case StatusCode::kOverloaded:
          case StatusCode::kDeadlineExceeded:
            break;
          default:
            untyped.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
    });
  }
  for (auto& th : clients) th.join();
#ifndef GALIGN_DISABLE_FAULT_INJECTION
  stop_arming.store(true, std::memory_order_relaxed);
  arming.join();
  fault::DisarmAll();
#endif
  server.Shutdown();

  EXPECT_EQ(resolved.load(), int64_t{kClients} * kPerClient);
  EXPECT_EQ(untyped.load(), 0);
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kClients) * kPerClient);
  // Every admission reservation was released: the ledger is balanced even
  // though sheds, cancellations, and shutdown all raced with admission.
  EXPECT_EQ(serve_config.budget->reserved(), 0u);
}

TEST(RaceStress, HotSwapWhileQueryingAndCancelling) {
  // The continuous-availability contract of DESIGN.md §13 under TSan: a
  // swapper thread repeatedly republishes the serving artifact while client
  // threads query, expire deadlines, and cancel mid-flight. Invariants:
  // every response is typed; every OK response is stamped with a generation
  // that was actually published (never 0, never a retired half-state); the
  // old artifact's refcount plumbing never races worker reads; the budget
  // ledger drains to zero.
  Rng rng(7);
  auto g = BarabasiAlbert(50, 3, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(50, 8, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions noise;
  noise.structural_noise = 0.05;
  auto pair = MakeNoisyCopyPair(g, noise, &rng).MoveValueOrDie();
  GAlignConfig config;
  config.epochs = 3;
  config.embedding_dim = 16;
  AlignmentIndexOptions options;
  options.anchor_k = 4;
  auto built =
      AlignmentIndex::Build(config, pair.source, pair.target, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  // A second, behaviorally identical generation: a serialize/parse
  // round-trip, exactly what the watcher would load from disk.
  auto reloaded =
      AlignmentIndex::Parse(built.ValueOrDie()->Serialize(), "swap clone");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  ServeConfig serve_config;
  serve_config.workers = 3;
  serve_config.queue_capacity = 8;
  serve_config.default_deadline_ms = 500.0;
  serve_config.retry_after_ms = 1.0;
  serve_config.budget = std::make_shared<MemoryBudget>(uint64_t{8} << 20);
  serve_config.per_request_bytes = uint64_t{1} << 20;
  AlignServer server(built.ValueOrDie(), serve_config, /*generation=*/1);
  server.Start();

  constexpr int kClients = 6;
  constexpr int kPerClient = 50;
  constexpr int kSwaps = 40;
  std::atomic<int64_t> resolved{0};
  std::atomic<int64_t> untyped{0};
  std::atomic<int64_t> bad_generation{0};
  std::atomic<bool> clients_done{false};

  std::thread swapper([&] {
    // Alternate between the two artifacts, odd swaps publishing the
    // round-tripped clone as generations 2, 3, 4, ... while queries are in
    // flight on the previous one.
    for (int s = 0; s < kSwaps || !clients_done.load(std::memory_order_relaxed);
         ++s) {
      server.SwapIndex(s % 2 == 0 ? reloaded.ValueOrDie() : built.ValueOrDie(),
                       /*generation=*/s + 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (s > 10000) break;  // safety valve, never hit in practice
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        QueryRequest request;
        request.node = (c * kPerClient + i) % 50;
        request.k = 4;
        if ((c + i) % 3 == 1) request.deadline_ms = 1e-3;  // expired
        CancelToken token = request.token;
        std::future<QueryResponse> future = server.Submit(request);
        if ((c + i) % 5 == 0) token.Cancel();
        const QueryResponse response = future.get();
        resolved.fetch_add(1, std::memory_order_relaxed);
        switch (response.status.code()) {
          case StatusCode::kOk:
          case StatusCode::kOverloaded:
          case StatusCode::kDeadlineExceeded:
            break;
          default:
            untyped.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        // Every answer must name a generation that existed: the initial
        // one or one the swapper published. Zero or a future generation
        // would mean a torn snapshot of (index, generation).
        if (response.status.ok() &&
            (response.generation < 1 || response.generation > kSwaps + 10001)) {
          bad_generation.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  clients_done.store(true, std::memory_order_relaxed);
  swapper.join();
  server.Shutdown();

  EXPECT_EQ(resolved.load(), int64_t{kClients} * kPerClient);
  EXPECT_EQ(untyped.load(), 0);
  EXPECT_EQ(bad_generation.load(), 0);
  const ServerStats stats = server.Snapshot();
  EXPECT_GE(stats.swaps, static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(serve_config.budget->reserved(), 0u);
}

}  // namespace
}  // namespace galign
