#include "baselines/pale.h"

#include <algorithm>
#include <cmath>

#include "autograd/adam.h"
#include "la/decomposition.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "la/ops.h"

namespace galign {

namespace {
inline double FastSigmoid(double x) {
  if (x > 8.0) return 1.0;
  if (x < -8.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}
}  // namespace

Matrix EmbedByEdges(const AttributedGraph& g, int64_t dim, int epochs,
                    int negatives, double lr, Rng* rng,
                    const RunContext* run_ctx) {
  const int64_t n = g.num_nodes();
  Matrix z = Matrix::Uniform(n, dim, rng, -0.5 / dim, 0.5 / dim);
  Matrix ctx(n, dim);
  // Degree^(3/4) negative-sampling table (word2vec-style).
  std::vector<int64_t> neg_table;
  neg_table.reserve(n * 4);
  for (int64_t v = 0; v < n; ++v) {
    int64_t copies = 1 + static_cast<int64_t>(
                             std::pow(static_cast<double>(g.Degree(v)), 0.75));
    for (int64_t i = 0; i < copies; ++i) neg_table.push_back(v);
  }
  std::vector<Edge> edges = g.edges();
  std::vector<double> grad(dim);
  const int64_t total_steps =
      std::max<int64_t>(1, static_cast<int64_t>(edges.size()) * epochs);
  int64_t step = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (run_ctx && run_ctx->ShouldStop()) break;
    rng->Shuffle(&edges);
    for (const auto& [u, v] : edges) {
      double cur_lr =
          lr * std::max(0.05, 1.0 - static_cast<double>(step++) / total_steps);
      // Update both directions of the undirected edge.
      for (int dir = 0; dir < 2; ++dir) {
        int64_t a = dir == 0 ? u : v;
        int64_t b = dir == 0 ? v : u;
        double* za = z.row_data(a);
        std::fill(grad.begin(), grad.end(), 0.0);
        for (int ns = 0; ns <= negatives; ++ns) {
          int64_t tgt =
              ns == 0 ? b
                      : neg_table[rng->UniformInt(
                            static_cast<int64_t>(neg_table.size()))];
          double label = ns == 0 ? 1.0 : 0.0;
          if (ns > 0 && tgt == b) continue;
          double* ct = ctx.row_data(tgt);
          double dot = 0.0;
          for (int64_t k = 0; k < dim; ++k) dot += za[k] * ct[k];
          double gcoef = (label - FastSigmoid(dot)) * cur_lr;
          for (int64_t k = 0; k < dim; ++k) {
            grad[k] += gcoef * ct[k];
            ct[k] += gcoef * za[k];
          }
        }
        for (int64_t k = 0; k < dim; ++k) za[k] += grad[k];
      }
    }
  }
  z.NormalizeRows();
  return z;
}

Result<Matrix> PaleAligner::Align(const AttributedGraph& source,
                                  const AttributedGraph& target,
                                  const Supervision& supervision,
                                  const RunContext& ctx) {
  if (supervision.seeds.empty()) {
    return Status::InvalidArgument(
        "PALE requires seed anchors to train its mapping function");
  }
  GALIGN_RETURN_NOT_OK(ValidateSeeds(supervision.seeds, source.num_nodes(),
                                     target.num_nodes()));
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));
  Rng rng(config_.seed);
  Matrix zs = EmbedByEdges(source, config_.embedding_dim,
                           config_.embedding_epochs, config_.negatives,
                           config_.embedding_lr, &rng, &ctx);
  Matrix zt = EmbedByEdges(target, config_.embedding_dim,
                           config_.embedding_epochs, config_.negatives,
                           config_.embedding_lr, &rng, &ctx);

  // Training pairs for the mapping.
  const int64_t num_seeds = static_cast<int64_t>(supervision.seeds.size());
  Matrix x(num_seeds, config_.embedding_dim);
  Matrix y(num_seeds, config_.embedding_dim);
  for (int64_t i = 0; i < num_seeds; ++i) {
    auto [s, t] = supervision.seeds[i];
    std::copy(zs.row_data(s), zs.row_data(s) + zs.cols(), x.row_data(i));
    std::copy(zt.row_data(t), zt.row_data(t) + zt.cols(), y.row_data(i));
  }

  if (!config_.mlp_mapping) {
    // Linear mapping solved in closed form as an orthogonal Procrustes
    // problem: M = argmin_{M orthogonal} ||X M - Y||_F = U V^T where
    // X^T Y = U S V^T. The orthogonality constraint keeps the mapping
    // well-posed even when seeds are far fewer than d^2 unknowns.
    Matrix xty = MatMulTransposedA(x, y);
    auto svd = ThinSVD(xty, 64, &ctx);
    GALIGN_RETURN_NOT_OK(svd.status());
    Matrix m = MatMulTransposedB(svd.ValueOrDie().u, svd.ValueOrDie().v);
    Matrix mapped_zs = MatMul(zs, m);
    mapped_zs.NormalizeRows();
    return MatMulTransposedB(mapped_zs, zt);
  }

  // MLP mapping trained with Adam on the seed pairs.
  const int64_t d = config_.embedding_dim;
  const int64_t hidden = config_.mlp_hidden;
  Matrix w1 = Matrix::Xavier(d, hidden, &rng);
  Matrix b1(1, hidden);
  Matrix w2 = Matrix::Xavier(hidden, d, &rng);
  Matrix b2(1, d);

  AdamOptimizer adam(AdamOptimizer::Options{.lr = config_.mapping_lr});
  std::vector<Matrix*> params{&w1, &b1, &w2, &b2};
  adam.Register(params);

  auto forward_mapping = [&](Tape* tape, const Matrix& input,
                             std::vector<Var>* leaves) {
    Var in = tape->Leaf(input, false);
    Var vw1 = tape->Leaf(w1, true), vb1 = tape->Leaf(b1, true);
    Var vw2 = tape->Leaf(w2, true), vb2 = tape->Leaf(b2, true);
    *leaves = {vw1, vb1, vw2, vb2};
    Var h = ag::Tanh(tape, ag::AddBias(tape, ag::MatMul(tape, in, vw1), vb1));
    return ag::AddBias(tape, ag::MatMul(tape, h, vw2), vb2);
  };

  for (int epoch = 0; epoch < config_.mapping_epochs; ++epoch) {
    if (ctx.ShouldStop()) break;  // best-so-far mapping weights
    Tape tape;
    std::vector<Var> leaves;
    Var pred = forward_mapping(&tape, x, &leaves);
    Var loss = ag::MSELoss(&tape, pred, y);
    tape.Backward(loss);
    std::vector<const Matrix*> grads;
    for (Var v : leaves) grads.push_back(&tape.grad(v));
    adam.Step(params, grads);
  }

  // Map all source embeddings and score against target embeddings.
  Tape tape;
  std::vector<Var> leaves;
  Var mapped = forward_mapping(&tape, zs, &leaves);
  Matrix mapped_zs = tape.value(mapped);
  mapped_zs.NormalizeRows();
  return MatMulTransposedB(mapped_zs, zt);
}

}  // namespace galign
