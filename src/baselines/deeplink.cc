#include "baselines/deeplink.h"

#include "autograd/adam.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "la/ops.h"

namespace galign {

namespace {

// Trains the MLP mapping x -> y on the given pairs and returns the mapped
// version of `all_inputs`.
Matrix TrainAndMap(const Matrix& x, const Matrix& y, const Matrix& all_inputs,
                   const DeepLinkConfig& cfg, Rng* rng,
                   const RunContext& ctx) {
  const int64_t d = x.cols();
  Matrix w1 = Matrix::Xavier(d, cfg.mlp_hidden, rng);
  Matrix b1(1, cfg.mlp_hidden);
  Matrix w2 = Matrix::Xavier(cfg.mlp_hidden, d, rng);
  Matrix b2(1, d);
  AdamOptimizer adam(AdamOptimizer::Options{.lr = cfg.mapping_lr});
  std::vector<Matrix*> params{&w1, &b1, &w2, &b2};
  adam.Register(params);

  auto forward = [&](Tape* tape, const Matrix& input,
                     std::vector<Var>* leaves) {
    Var in = tape->Leaf(input, false);
    Var vw1 = tape->Leaf(w1, true), vb1 = tape->Leaf(b1, true);
    Var vw2 = tape->Leaf(w2, true), vb2 = tape->Leaf(b2, true);
    *leaves = {vw1, vb1, vw2, vb2};
    Var h = ag::Tanh(tape, ag::AddBias(tape, ag::MatMul(tape, in, vw1), vb1));
    return ag::AddBias(tape, ag::MatMul(tape, h, vw2), vb2);
  };

  for (int epoch = 0; epoch < cfg.mapping_epochs; ++epoch) {
    if (ctx.ShouldStop()) break;  // best-so-far mapping weights
    Tape tape;
    std::vector<Var> leaves;
    Var pred = forward(&tape, x, &leaves);
    Var loss = ag::MSELoss(&tape, pred, y);
    tape.Backward(loss);
    std::vector<const Matrix*> grads;
    for (Var v : leaves) grads.push_back(&tape.grad(v));
    adam.Step(params, grads);
  }
  Tape tape;
  std::vector<Var> leaves;
  Var mapped = forward(&tape, all_inputs, &leaves);
  Matrix out = tape.value(mapped);
  out.NormalizeRows();
  return out;
}

}  // namespace

Result<Matrix> DeepLinkAligner::Align(const AttributedGraph& source,
                                      const AttributedGraph& target,
                                      const Supervision& supervision,
                                      const RunContext& ctx) {
  if (supervision.seeds.empty()) {
    return Status::InvalidArgument(
        "DeepLink requires seed anchors to train its mapping");
  }
  GALIGN_RETURN_NOT_OK(ValidateSeeds(supervision.seeds, source.num_nodes(),
                                     target.num_nodes()));
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));
  Rng rng(config_.seed);

  // (1) per-network DeepWalk embeddings.
  auto walks_s = UniformWalks(source, config_.walks, &rng);
  auto walks_t = UniformWalks(target, config_.walks, &rng);
  SkipGramConfig sg = config_.skipgram;
  Matrix zs = TrainSkipGram(walks_s, source.num_nodes(), sg);
  sg.seed += 1;
  Matrix zt = TrainSkipGram(walks_t, target.num_nodes(), sg);

  // (2) seed pairs.
  const int64_t num_seeds = static_cast<int64_t>(supervision.seeds.size());
  Matrix xs(num_seeds, zs.cols()), yt(num_seeds, zt.cols());
  for (int64_t i = 0; i < num_seeds; ++i) {
    auto [s, t] = supervision.seeds[i];
    std::copy(zs.row_data(s), zs.row_data(s) + zs.cols(), xs.row_data(i));
    std::copy(zt.row_data(t), zt.row_data(t) + zt.cols(), yt.row_data(i));
  }

  // Forward mapping source -> target space.
  Matrix mapped_s = TrainAndMap(xs, yt, zs, config_, &rng, ctx);
  Matrix score = MatMulTransposedB(mapped_s, zt);
  if (config_.dual) {
    // Backward mapping target -> source space; transpose its score matrix
    // and average (the dual-learning approximation).
    Matrix mapped_t = TrainAndMap(yt, xs, zt, config_, &rng, ctx);
    Matrix back = MatMulTransposedB(mapped_t, zs);  // n2 x n1
    score.Axpy(1.0, Transpose(back));
    score.Scale(0.5);
  }
  if (!score.AllFinite()) {
    return Status::Internal("DeepLink produced non-finite scores");
  }
  return score;
}

}  // namespace galign
