#include "baselines/ione.h"

#include <algorithm>
#include <cmath>

#include "la/ops.h"

namespace galign {

namespace {

inline double FastSigmoid(double x) {
  if (x > 8.0) return 1.0;
  if (x < -8.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

}  // namespace

Result<Matrix> IoneAligner::Align(const AttributedGraph& source,
                                  const AttributedGraph& target,
                                  const Supervision& supervision,
                                  const RunContext& ctx) {
  const int64_t n1 = source.num_nodes();
  const int64_t n2 = target.num_nodes();
  if (n1 == 0 || n2 == 0) {
    return Status::InvalidArgument("empty network");
  }
  if (supervision.seeds.empty()) {
    return Status::InvalidArgument(
        "IONE requires seed anchors to share embeddings across networks");
  }
  GALIGN_RETURN_NOT_OK(ValidateSeeds(supervision.seeds, n1, n2));
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));

  // Token space: source node v -> v; target node u -> n1 + u, EXCEPT
  // anchored targets, which share the source token (hard parameter tying —
  // IONE's mechanism for a common embedding space).
  std::vector<int64_t> target_token(n2, -1);
  for (int64_t u = 0; u < n2; ++u) target_token[u] = n1 + u;
  for (const auto& [s, t] : supervision.seeds) target_token[t] = s;
  const int64_t vocab = n1 + n2;

  Rng rng(config_.seed);
  const int64_t d = config_.dim;
  Matrix identity = Matrix::Uniform(vocab, d, &rng, -0.5 / d, 0.5 / d);
  Matrix ctx_in(vocab, d);
  Matrix ctx_out(vocab, d);

  // Union edge list in token space, tagged with graph side for negative
  // sampling (negatives are drawn within the edge's own network).
  struct Tok {
    int64_t a, b;
    bool from_source;
  };
  std::vector<Tok> edges;
  edges.reserve(source.num_edges() + target.num_edges());
  for (const auto& [u, v] : source.edges()) edges.push_back({u, v, true});
  for (const auto& [u, v] : target.edges()) {
    edges.push_back({target_token[u], target_token[v], false});
  }

  auto random_token = [&](bool from_source) {
    return from_source ? rng.UniformInt(n1)
                       : target_token[rng.UniformInt(n2)];
  };

  std::vector<double> grad(d);
  const int64_t total_steps =
      std::max<int64_t>(1, static_cast<int64_t>(edges.size()) *
                               config_.epochs);
  int64_t step = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    if (ctx.ShouldStop()) break;  // best-so-far token embeddings
    rng.Shuffle(&edges);
    for (const Tok& e : edges) {
      double lr = config_.lr *
                  std::max(0.05, 1.0 - static_cast<double>(step++) /
                                           total_steps);
      // Second-order updates in both directions: u predicts v's input
      // context; v predicts u's output context.
      for (int dir = 0; dir < 2; ++dir) {
        int64_t center = dir == 0 ? e.a : e.b;
        int64_t context = dir == 0 ? e.b : e.a;
        Matrix& ctx_mat = dir == 0 ? ctx_in : ctx_out;
        double* zc = identity.row_data(center);
        std::fill(grad.begin(), grad.end(), 0.0);
        for (int ns = 0; ns <= config_.negatives; ++ns) {
          int64_t tgt = ns == 0 ? context : random_token(e.from_source);
          if (ns > 0 && tgt == context) continue;
          double label = ns == 0 ? 1.0 : 0.0;
          double* ct = ctx_mat.row_data(tgt);
          double dot = 0.0;
          for (int64_t k = 0; k < d; ++k) dot += zc[k] * ct[k];
          double g = (label - FastSigmoid(dot)) * lr;
          for (int64_t k = 0; k < d; ++k) {
            grad[k] += g * ct[k];
            ct[k] += g * zc[k];
          }
        }
        for (int64_t k = 0; k < d; ++k) zc[k] += grad[k];
      }
    }
  }

  identity.NormalizeRows();
  Matrix zs = identity.Block(0, 0, n1, d);
  Matrix zt(n2, d);
  for (int64_t u = 0; u < n2; ++u) {
    std::copy(identity.row_data(target_token[u]),
              identity.row_data(target_token[u]) + d, zt.row_data(u));
  }
  Matrix s = MatMulTransposedB(zs, zt);
  if (!s.AllFinite()) {
    return Status::Internal("IONE produced non-finite scores");
  }
  return s;
}

}  // namespace galign
