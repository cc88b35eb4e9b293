#include "graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/fault.h"
#include "common/rng.h"
#include "graph/generators.h"

namespace galign {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  Rng rng(1);
  auto g = ErdosRenyi(40, 0.1, &rng).MoveValueOrDie();
  ASSERT_TRUE(SaveEdgeList(g, Path("g.edges")).ok());
  auto loaded = LoadEdgeList(Path("g.edges"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.ValueOrDie().edges(), g.edges());
}

TEST_F(IoTest, EdgeListPreservesIsolatedTrailingNodes) {
  auto g = AttributedGraph::Create(10, {{0, 1}}, Matrix()).MoveValueOrDie();
  ASSERT_TRUE(SaveEdgeList(g, Path("iso.edges")).ok());
  auto loaded = LoadEdgeList(Path("iso.edges"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie().num_nodes(), 10);
}

TEST_F(IoTest, EdgeListWithoutHeaderInfersNodeCount) {
  std::ofstream out(Path("raw.edges"));
  out << "0 3\n2 1\n";
  out.close();
  auto loaded = LoadEdgeList(Path("raw.edges"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie().num_nodes(), 4);
  EXPECT_EQ(loaded.ValueOrDie().num_edges(), 2);
}

TEST_F(IoTest, LoadEdgeListRejectsMalformed) {
  std::ofstream out(Path("bad.edges"));
  out << "0 not_a_number\n";
  out.close();
  EXPECT_FALSE(LoadEdgeList(Path("bad.edges")).ok());
}

TEST_F(IoTest, LoadEdgeListRejectsNegativeIds) {
  std::ofstream out(Path("neg.edges"));
  out << "-1 2\n";
  out.close();
  EXPECT_FALSE(LoadEdgeList(Path("neg.edges")).ok());
}

TEST_F(IoTest, LoadEdgeListMissingFile) {
  EXPECT_FALSE(LoadEdgeList(Path("nonexistent")).ok());
}

TEST_F(IoTest, LoadEdgeListRejectsMaxNodeId) {
  // Without a declared node count, num_nodes = max_id + 1, which would
  // overflow for an id of INT64_MAX (found by the fuzz-smoke gate).
  std::ofstream out(Path("huge.edges"));
  out << "0 9223372036854775807\n";
  out.close();
  EXPECT_FALSE(LoadEdgeList(Path("huge.edges")).ok());
}

TEST_F(IoTest, AttributesRoundTripExact) {
  Rng rng(2);
  Matrix f = Matrix::Gaussian(12, 5, &rng);
  ASSERT_TRUE(SaveAttributes(f, Path("f.tsv")).ok());
  auto loaded = LoadAttributes(Path("f.tsv"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT(Matrix::MaxAbsDiff(loaded.ValueOrDie(), f), 1e-15);
}

TEST_F(IoTest, LoadAttributesRejectsRagged) {
  std::ofstream out(Path("ragged.tsv"));
  out << "1 2 3\n4 5\n";
  out.close();
  EXPECT_FALSE(LoadAttributes(Path("ragged.tsv")).ok());
}

TEST_F(IoTest, GroundTruthRoundTrip) {
  std::vector<int64_t> gt{3, -1, 0, 2};
  ASSERT_TRUE(SaveGroundTruth(gt, Path("gt.txt")).ok());
  auto loaded = LoadGroundTruth(Path("gt.txt"), 4);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie(), gt);
}

TEST_F(IoTest, LoadGroundTruthRejectsOutOfRangeSource) {
  std::ofstream out(Path("gt_bad.txt"));
  out << "9 1\n";
  out.close();
  EXPECT_FALSE(LoadGroundTruth(Path("gt_bad.txt"), 4).ok());
}

TEST_F(IoTest, FullGraphRoundTripWithAttributes) {
  Rng rng(3);
  auto g = BarabasiAlbert(30, 2, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(30, 6, 0.3, &rng);
  g = g.WithAttributes(f).MoveValueOrDie();
  ASSERT_TRUE(SaveEdgeList(g, Path("g2.edges")).ok());
  ASSERT_TRUE(SaveAttributes(g.attributes(), Path("g2.attrs")).ok());

  auto edges = LoadEdgeList(Path("g2.edges"));
  auto attrs = LoadAttributes(Path("g2.attrs"));
  ASSERT_TRUE(edges.ok());
  ASSERT_TRUE(attrs.ok());
  auto rebuilt =
      edges.ValueOrDie().WithAttributes(attrs.MoveValueOrDie());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.ValueOrDie().num_edges(), g.num_edges());
  EXPECT_LT(
      Matrix::MaxAbsDiff(rebuilt.ValueOrDie().attributes(), g.attributes()),
      1e-15);
}

TEST_F(IoTest, LoadEdgeListFaultSiteRetriesThenFails) {
  Rng rng(7);
  auto g = BarabasiAlbert(10, 2, &rng).MoveValueOrDie();
  ASSERT_TRUE(SaveEdgeList(g, Path("f.edges")).ok());

  // Persistent: outlasts every retry, surfaces as a clean typed IOError.
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  spec.repeat = 1000;
  fault::Arm("io.edges.load", spec);
  auto failed = LoadEdgeList(Path("f.edges"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_NE(failed.status().message().find("injected fault"),
            std::string::npos)
      << failed.status().message();

  // Transient: the loader's bounded retry absorbs a single-shot fault.
  spec.repeat = 1;
  fault::Arm("io.edges.load", spec);
  auto retried = LoadEdgeList(Path("f.edges"));
  fault::DisarmAll();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.ValueOrDie().edges(), g.edges());
}

}  // namespace
}  // namespace galign
