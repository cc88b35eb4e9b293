#include "core/model_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/durable_io.h"
#include "core/trainer.h"
#include "graph/generators.h"

namespace galign {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_model_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(ModelIoTest, RoundTripPreservesEverything) {
  Rng rng(1);
  MultiOrderGcn gcn(3, 7, 12, &rng, Activation::kTanh);
  ASSERT_TRUE(SaveGcnModel(gcn, Path("m.txt")).ok());
  auto loaded = LoadGcnModel(Path("m.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const MultiOrderGcn& g = loaded.ValueOrDie();
  EXPECT_EQ(g.num_layers(), 3);
  EXPECT_EQ(g.input_dim(), 7);
  EXPECT_EQ(g.embedding_dim(), 12);
  EXPECT_EQ(g.activation(), Activation::kTanh);
  for (int l = 0; l < 3; ++l) {
    EXPECT_LT(Matrix::MaxAbsDiff(g.weights()[l], gcn.weights()[l]), 1e-15);
  }
}

TEST_F(ModelIoTest, ActivationSurvivesRoundTrip) {
  Rng rng(2);
  MultiOrderGcn gcn(2, 4, 8, &rng, Activation::kRelu);
  ASSERT_TRUE(SaveGcnModel(gcn, Path("relu.txt")).ok());
  EXPECT_EQ(LoadGcnModel(Path("relu.txt")).ValueOrDie().activation(),
            Activation::kRelu);
}

TEST_F(ModelIoTest, TrainedModelGivesIdenticalEmbeddingsAfterReload) {
  Rng rng(3);
  auto g = BarabasiAlbert(30, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(30, 5, 0.3, &rng)).MoveValueOrDie();
  GAlignConfig cfg;
  cfg.epochs = 10;
  cfg.embedding_dim = 8;
  MultiOrderGcn gcn(cfg.num_layers, 5, cfg.embedding_dim, &rng);
  Trainer trainer(cfg);
  trainer.Train(&gcn, g, g, &rng).CheckOK();
  ASSERT_TRUE(SaveGcnModel(gcn, Path("trained.txt")).ok());
  auto loaded = LoadGcnModel(Path("trained.txt")).MoveValueOrDie();

  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto h1 = gcn.ForwardInference(lap, g.attributes());
  auto h2 = loaded.ForwardInference(lap, g.attributes());
  for (size_t l = 0; l < h1.size(); ++l) {
    EXPECT_LT(Matrix::MaxAbsDiff(h1[l], h2[l]), 1e-12);
  }
}

TEST_F(ModelIoTest, RejectsCorruptFiles) {
  EXPECT_FALSE(LoadGcnModel(Path("missing.txt")).ok());
  std::ofstream(Path("garbage.txt")) << "not a model\n1 2 3\n";
  EXPECT_FALSE(LoadGcnModel(Path("garbage.txt")).ok());
  std::ofstream(Path("truncated.txt"))
      << "galign-gcn-v1 layers=2 input_dim=4 embedding_dim=8 "
         "activation=tanh\n4 8\n0.5\n";
  EXPECT_FALSE(LoadGcnModel(Path("truncated.txt")).ok());
}

TEST_F(ModelIoTest, RejectsBadHeaderValues) {
  std::ofstream(Path("bad.txt"))
      << "galign-gcn-v1 layers=0 input_dim=4 embedding_dim=8 "
         "activation=tanh\n";
  EXPECT_FALSE(LoadGcnModel(Path("bad.txt")).ok());
  std::ofstream(Path("badact.txt"))
      << "galign-gcn-v1 layers=1 input_dim=4 embedding_dim=8 "
         "activation=swish\n";
  EXPECT_FALSE(LoadGcnModel(Path("badact.txt")).ok());
}

// --- Matrix-list encoding ------------------------------------------------

// Bitwise equality of two double arrays; memcmp must not be handed the
// null data() of an empty container.
bool SameBits(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

// The matrix-list emitter as it was before the hex-run codec: one
// HexDouble per value through an ostringstream. The format must not move.
std::string ReferenceMatrixList(const char* key, const std::vector<Matrix>& ms) {
  std::ostringstream out;
  out << key << " " << ms.size() << "\n";
  for (const Matrix& m : ms) {
    out << m.rows() << " " << m.cols() << "\n";
    for (int64_t i = 0; i < m.size(); ++i) {
      if (i) out << (i % 8 == 0 ? "\n" : " ");
      out << HexDouble(m.data()[i]);
    }
    if (m.size()) out << "\n";
  }
  return out.str();
}

std::vector<Matrix> OddShapedMatrices() {
  std::vector<Matrix> ms;
  for (auto [rows, cols] : {std::pair<int64_t, int64_t>{3, 5},
                            {0, 4},
                            {1, 8},
                            {2, 9},
                            {4, 0},
                            {7, 3}}) {
    Matrix m(rows, cols);
    for (int64_t i = 0; i < m.size(); ++i) {
      m.data()[i] = (i % 3 == 0 ? -1.0 : 1.0) / (1.0 + static_cast<double>(i));
    }
    ms.push_back(std::move(m));
  }
  return ms;
}

TEST(MatrixListTest, EmitMatchesPerValueReferenceAndRoundTripsBitExactly) {
  const std::vector<Matrix> ms = OddShapedMatrices();
  std::string out = "head\n";
  EmitMatrixList(&out, "weights", ms);
  out += "end\n";
  EXPECT_EQ(out, "head\n" + ReferenceMatrixList("weights", ms) + "end\n");

  std::istringstream in(out);
  std::string tok;
  in >> tok;
  std::vector<Matrix> back;
  ASSERT_TRUE(ParseMatrixList(&in, "weights", &back, "t").ok());
  ASSERT_EQ(back.size(), ms.size());
  for (size_t k = 0; k < ms.size(); ++k) {
    ASSERT_EQ(back[k].rows(), ms[k].rows());
    ASSERT_EQ(back[k].cols(), ms[k].cols());
    EXPECT_TRUE(SameBits(back[k].data(), ms[k].data(),
                         static_cast<size_t>(ms[k].size())));
  }
  // The stream resumes right after the last value.
  ASSERT_TRUE(static_cast<bool>(in >> tok));
  EXPECT_EQ(tok, "end");
}

TEST(MatrixListTest, ParseKeepsTheTokenizerErrorMessages) {
  const std::vector<Matrix> ms = {Matrix(2, 2, 0.5)};
  std::string out;
  EmitMatrixList(&out, "snapshot", ms);
  std::vector<Matrix> back;

  // Truncated mid-body: the last value is missing.
  std::istringstream cut(out.substr(0, out.size() - 18));
  Status st = ParseMatrixList(&cut, "snapshot", &back, "ckpt");
  EXPECT_EQ(st.message(), "truncated matrix under 'snapshot' in ckpt");

  // Uppercase digits are not the format, even though strtoull took them.
  std::string upper = out;
  const size_t body = upper.find("3fe");
  upper[body + 1] = 'F';
  std::istringstream in(upper);
  st = ParseMatrixList(&in, "snapshot", &back, "ckpt");
  EXPECT_EQ(st.message(),
            "bad double bit pattern '3Fe0000000000000' in ckpt");

  // Separators may be any run of whitespace the `>>` tokenizer skipped.
  std::string spaced = out;
  for (char& c : spaced) {
    if (c == ' ') c = '\v';
  }
  std::istringstream sp(spaced + "\r\n");
  ASSERT_TRUE(ParseMatrixList(&sp, "snapshot", &back, "ckpt").ok());
  EXPECT_EQ(back[0](1, 1), 0.5);
}

}  // namespace
}  // namespace galign
