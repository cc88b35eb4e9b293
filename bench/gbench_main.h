// Shared google-benchmark main for the JSON-recorded benches
// (bench_kernels, bench_ann, bench_serving): stamps the benchmark context
// with the galign build flavor, the git SHA handed in by bench/run_all.sh,
// the host's core count (nproc) and the galign thread-pool width, so every
// recorded BENCH_*.json carries provenance — which tree produced it, on how
// many cores, and whether the library was compiled with optimizations. run_all.sh
// reads the galign_build_type stamp back and refuses to record JSON
// snapshots from non-release builds (a debug-build perf snapshot would
// poison the cross-PR perf trajectory).
//
// The stock "library_build_type" context key reports how the *installed
// libbenchmark* was compiled, not this repository — hence the custom key.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/parallel.h"

namespace galign_bench {

inline const char* BuildType() {
#ifdef GALIGN_BUILD_TYPE_NAME
  // Stamped by bench/CMakeLists.txt from CMAKE_BUILD_TYPE — authoritative,
  // because the repo's Release flags ("-O3 -g") omit -DNDEBUG.
  return GALIGN_BUILD_TYPE_NAME;
#elif defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

}  // namespace galign_bench

#define GALIGN_BENCHMARK_MAIN()                                           \
  int main(int argc, char** argv) {                                       \
    for (int i = 1; i < argc; ++i) {                                      \
      if (std::strcmp(argv[i], "--galign_print_build_type") == 0) {       \
        std::puts(::galign_bench::BuildType());                           \
        return 0;                                                         \
      }                                                                   \
    }                                                                     \
    benchmark::AddCustomContext("galign_build_type",                      \
                                ::galign_bench::BuildType());             \
    const char* galign_sha = std::getenv("GALIGN_GIT_SHA");               \
    benchmark::AddCustomContext("git_sha",                                \
                                galign_sha ? galign_sha : "unknown");     \
    benchmark::AddCustomContext(                                          \
        "nproc", std::to_string(std::thread::hardware_concurrency()));    \
    benchmark::AddCustomContext(                                          \
        "galign_threads", std::to_string(::galign::ParallelismLevel()));  \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    return 0;                                                             \
  }
