// End-to-end integration test of the galign_cli tool: writes a dataset to
// disk, invokes the real binary, and validates the artifacts it produces.
// The binary path is injected by CMake as GALIGN_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "align/alignment_io.h"
#include "align/metrics.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/noise.h"

#ifndef GALIGN_CLI_PATH
#define GALIGN_CLI_PATH "galign_cli"
#endif

namespace galign {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    Rng rng(1);
    auto g = BarabasiAlbert(60, 3, &rng).MoveValueOrDie();
    g = g.WithAttributes(BinaryAttributes(60, 8, 0.3, &rng)).MoveValueOrDie();
    NoisyCopyOptions opts;
    opts.structural_noise = 0.05;
    pair_ = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
    std::filesystem::create_directories(dir_ / "data");
    ASSERT_TRUE(SaveEdgeList(pair_.source, Dir("data/source.edges")).ok());
    ASSERT_TRUE(
        SaveAttributes(pair_.source.attributes(), Dir("data/source.attrs"))
            .ok());
    ASSERT_TRUE(SaveEdgeList(pair_.target, Dir("data/target.edges")).ok());
    ASSERT_TRUE(
        SaveAttributes(pair_.target.attributes(), Dir("data/target.attrs"))
            .ok());
    ASSERT_TRUE(
        SaveGroundTruth(pair_.ground_truth, Dir("data/ground_truth.txt")).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Dir(const std::string& name) { return (dir_ / name).string(); }

  int RunCli(const std::string& extra) {
    std::string cmd = std::string(GALIGN_CLI_PATH) +
                      " --source=" + Dir("data/source.edges") +
                      " --target=" + Dir("data/target.edges") +
                      " --source-attrs=" + Dir("data/source.attrs") +
                      " --target-attrs=" + Dir("data/target.attrs") + " " +
                      extra + " > " + Dir("stdout.txt") + " 2>&1";
    return std::system(cmd.c_str());
  }

  std::string CapturedOutput() {
    std::ifstream in(Dir("stdout.txt"));
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  std::filesystem::path dir_;
  AlignmentPair pair_;
};

TEST_F(CliTest, GAlignProducesAccurateAnchors) {
  int rc = RunCli("--method=galign --epochs=20 --dim=32 --anchors-out=" +
                  Dir("anchors.txt"));
  ASSERT_EQ(rc, 0);
  auto anchors = LoadAnchors(Dir("anchors.txt"), pair_.source.num_nodes());
  ASSERT_TRUE(anchors.ok());
  int64_t correct = 0, total = 0;
  for (size_t v = 0; v < anchors.ValueOrDie().size(); ++v) {
    if (anchors.ValueOrDie()[v] == -1) continue;
    ++total;
    if (anchors.ValueOrDie()[v] == pair_.ground_truth[v]) ++correct;
  }
  EXPECT_GT(total, 0);
  EXPECT_GT(static_cast<double>(correct) / total, 0.5);
}

TEST_F(CliTest, MatrixOutputRoundTrips) {
  int rc = RunCli("--method=unialign --matrix-out=" + Dir("s.tsv"));
  ASSERT_EQ(rc, 0);
  auto s = LoadAlignmentMatrix(Dir("s.tsv"));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.ValueOrDie().rows(), pair_.source.num_nodes());
  EXPECT_EQ(s.ValueOrDie().cols(), pair_.target.num_nodes());
  EXPECT_TRUE(s.ValueOrDie().AllFinite());
}

TEST_F(CliTest, HungarianFlagWorks) {
  int rc = RunCli(
      "--method=galign --epochs=15 --dim=24 --hungarian --anchors-out=" +
      Dir("h.txt"));
  ASSERT_EQ(rc, 0);
  auto anchors = LoadAnchors(Dir("h.txt"), pair_.source.num_nodes());
  ASSERT_TRUE(anchors.ok());
  // Hungarian output is injective.
  std::vector<bool> used(pair_.target.num_nodes(), false);
  for (int64_t a : anchors.ValueOrDie()) {
    if (a == -1) continue;
    EXPECT_FALSE(used[a]);
    used[a] = true;
  }
}

TEST_F(CliTest, UnknownMethodFails) {
  EXPECT_NE(RunCli("--method=definitely_not_a_method"), 0);
}

TEST_F(CliTest, UnknownFlagRejected) {
  // --ann-backend is gone with the HNSW backend: it is now just unknown.
  for (const char* flag : {"--definitely-not-a-flag=1", "--ann-backend=hnsw"}) {
    const int rc = RunCli(std::string("--method=galign ") + flag);
    EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 2) << flag;
    EXPECT_NE(CapturedOutput().find("unknown flag"), std::string::npos)
        << flag;
  }
}

// Typed flag validation (DESIGN.md §12): each rejection exits nonzero and
// prints an InvalidArgument diagnostic that carries the flag name, the
// offending value, and the file:line of the validation site.

TEST_F(CliTest, MalformedMemBudgetSuffixRejectedTyped) {
  EXPECT_NE(RunCli("--method=unialign --mem-budget=512q"), 0);
  const std::string out = CapturedOutput();
  EXPECT_NE(out.find("--mem-budget=512q rejected"), std::string::npos) << out;
  EXPECT_NE(out.find("galign_cli.cpp:"), std::string::npos) << out;
}

TEST_F(CliTest, NonPositiveTopKRejectedTyped) {
  EXPECT_NE(RunCli("--method=unialign --topk=0"), 0);
  const std::string out = CapturedOutput();
  EXPECT_NE(out.find("--topk=0 rejected"), std::string::npos) << out;
}

TEST_F(CliTest, OversizedTopKRejectedTyped) {
  // 60-node target: a per-row top-1000 cannot exist; rejected after load
  // instead of silently clamped.
  EXPECT_NE(RunCli("--method=unialign --topk=1000 --anchors-out=" +
                   Dir("never.txt")),
            0);
  const std::string out = CapturedOutput();
  EXPECT_NE(out.find("--topk=1000 rejected"), std::string::npos) << out;
  EXPECT_NE(out.find("target nodes"), std::string::npos) << out;
  EXPECT_FALSE(std::filesystem::exists(Dir("never.txt")));
}

TEST_F(CliTest, AnnRecallTargetOutsideDomainRejectedTyped) {
  EXPECT_NE(RunCli("--method=galign --ann-recall-target=1.5"), 0);
  const std::string out = CapturedOutput();
  EXPECT_NE(out.find("--ann-recall-target=1.5 rejected"), std::string::npos)
      << out;
  EXPECT_NE(out.find("0 < value <= 1"), std::string::npos) << out;
}

TEST_F(CliTest, OutOfRangeSeedTargetRejectedTyped) {
  // The source id is valid, so the seeds file loads; the target id is not a
  // target node, which the seeded aligners must reject instead of indexing.
  std::ofstream(Dir("bad_seeds.txt")) << "0 100000000\n";
  for (const char* method : {"final", "isorank"}) {
    int rc = RunCli(std::string("--method=") + method +
                    " --topk=2 --seeds=" + Dir("bad_seeds.txt"));
    ASSERT_TRUE(WIFEXITED(rc)) << method << " died by a signal";
    EXPECT_NE(WEXITSTATUS(rc), 0) << method;
    const std::string out = CapturedOutput();
    EXPECT_NE(out.find("seed anchor out of range: (0, 100000000)"),
              std::string::npos)
        << method << ": " << out;
  }
}

TEST_F(CliTest, MissingInputFails) {
  std::string cmd = std::string(GALIGN_CLI_PATH) +
                    " --source=/nonexistent --target=/nonexistent > " +
                    Dir("out.txt") + " 2>&1";
  EXPECT_NE(std::system(cmd.c_str()), 0);
}

}  // namespace
}  // namespace galign
