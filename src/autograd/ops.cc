#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "la/ops.h"

namespace galign {
namespace ag {

namespace {
bool AnyRequiresGrad(const Tape& t, std::initializer_list<Var> vars) {
  for (Var v : vars) {
    if (t.requires_grad(v)) return true;
  }
  return false;
}

// Backward of scale * ||a(v) - b(u)|| / ||.||: ga(v) += scale (a(v) - b(u))
// and gb(u) -= the same, each skipped when null. Writes straight into the
// tape's gradient buffers, so the row-wise losses allocate nothing.
void AddRowDifference(const Matrix& a, int64_t v, const Matrix& b, int64_t u,
                      double scale, Matrix* ga, Matrix* gb) {
  const double* pa = a.row_data(v);
  const double* pb = b.row_data(u);
  if (ga != nullptr) {
    double* q = ga->row_data(v);
    for (int64_t k = 0; k < a.cols(); ++k) q[k] += scale * (pa[k] - pb[k]);
  }
  if (gb != nullptr) {
    double* q = gb->row_data(u);
    for (int64_t k = 0; k < a.cols(); ++k) q[k] -= scale * (pa[k] - pb[k]);
  }
}
}  // namespace

Var MatMul(Tape* t, Var a, Var b) {
  Matrix y = galign::MatMul(t->value(a), t->value(b));
  bool rg = AnyRequiresGrad(*t, {a, b});
  return t->Emit(
      std::move(y), {a, b},
      [a, b](Tape* tp, Var self) {
        const Matrix& g = tp->grad(self);
        if (tp->requires_grad(a)) {
          MatMulTransposedBInto(g, tp->value(b), tp->EnsureGrad(a),
                                /*accumulate=*/true);
        }
        if (tp->requires_grad(b)) {
          MatMulTransposedAInto(tp->value(a), g, tp->EnsureGrad(b),
                                /*accumulate=*/true);
        }
      },
      rg);
}

Var SpMM(Tape* t, const SparseMatrix* sparse, Var x) {
  GALIGN_DCHECK(sparse != nullptr);
  Matrix y = sparse->Multiply(t->value(x));
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [sparse, x](Tape* tp, Var self) {
        if (tp->requires_grad(x)) {
          sparse->TransposedMultiplyInto(tp->grad(self), tp->EnsureGrad(x),
                                         /*accumulate=*/true);
        }
      },
      rg);
}

Var Tanh(Tape* t, Var x) {
  Matrix y;
  TanhInto(t->value(x), &y);
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [x](Tape* tp, Var self) {
        if (!tp->requires_grad(x)) return;
        const Matrix& y = tp->value(self);
        const Matrix& g = tp->grad(self);
        double* gx = tp->EnsureGrad(x)->data();
        for (int64_t i = 0; i < y.size(); ++i) {
          gx[i] += g.data()[i] * (1.0 - y.data()[i] * y.data()[i]);
        }
      },
      rg);
}

Var Sigmoid(Tape* t, Var x) {
  Matrix y = Map(t->value(x),
                 [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [x](Tape* tp, Var self) {
        if (!tp->requires_grad(x)) return;
        const Matrix& y = tp->value(self);
        const Matrix& g = tp->grad(self);
        double* gx = tp->EnsureGrad(x)->data();
        for (int64_t i = 0; i < y.size(); ++i) {
          gx[i] += g.data()[i] * y.data()[i] * (1.0 - y.data()[i]);
        }
      },
      rg);
}

Var Relu(Tape* t, Var x) {
  Matrix y = Map(t->value(x), [](double v) { return v > 0.0 ? v : 0.0; });
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [x](Tape* tp, Var self) {
        if (!tp->requires_grad(x)) return;
        const Matrix& xv = tp->value(x);
        const Matrix& g = tp->grad(self);
        double* gx = tp->EnsureGrad(x)->data();
        for (int64_t i = 0; i < xv.size(); ++i) {
          if (xv.data()[i] > 0.0) gx[i] += g.data()[i];
        }
      },
      rg);
}

Var NormalizeRows(Tape* t, Var x, double eps) {
  const Matrix& xv = t->value(x);
  const int64_t cols = xv.cols();
  Matrix y;
  y.Resize(xv.rows(), cols);
  std::vector<double> inv_norm(xv.rows());
  // Rows are independent, so the result bits do not depend on the
  // partition (forward and backward alike).
  ParallelFor(
      0, xv.rows(),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          inv_norm[r] = 1.0 / std::max(xv.RowNorm(r), eps);
          const double* in = xv.row_data(r);
          double* out = y.row_data(r);
          for (int64_t c = 0; c < cols; ++c) out[c] = in[c] * inv_norm[r];
        }
      },
      /*min_chunk=*/64);
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [x, inv_norm = std::move(inv_norm)](Tape* tp, Var self) {
        if (!tp->requires_grad(x)) return;
        const Matrix& y = tp->value(self);
        const Matrix& g = tp->grad(self);
        Matrix* dx = tp->EnsureGrad(x);
        const int64_t cols = y.cols();
        ParallelFor(
            0, y.rows(),
            [&](int64_t r0, int64_t r1) {
              for (int64_t r = r0; r < r1; ++r) {
                const double* yr = y.row_data(r);
                const double* gr = g.row_data(r);
                double* dr = dx->row_data(r);
                double dot = 0.0;
                for (int64_t c = 0; c < cols; ++c) dot += yr[c] * gr[c];
                for (int64_t c = 0; c < cols; ++c) {
                  dr[c] += inv_norm[r] * (gr[c] - yr[c] * dot);
                }
              }
            },
            /*min_chunk=*/64);
      },
      rg);
}

Var Add(Tape* t, Var a, Var b) {
  Matrix y = t->value(a);
  y.Add(t->value(b));
  bool rg = AnyRequiresGrad(*t, {a, b});
  return t->Emit(
      std::move(y), {a, b},
      [a, b](Tape* tp, Var self) {
        tp->AccumulateGrad(a, tp->grad(self));
        tp->AccumulateGrad(b, tp->grad(self));
      },
      rg);
}

Var Sub(Tape* t, Var a, Var b) {
  Matrix y = t->value(a);
  y.Axpy(-1.0, t->value(b));
  bool rg = AnyRequiresGrad(*t, {a, b});
  return t->Emit(
      std::move(y), {a, b},
      [a, b](Tape* tp, Var self) {
        tp->AccumulateGrad(a, tp->grad(self));
        tp->AccumulateGrad(b, -1.0, tp->grad(self));
      },
      rg);
}

Var Scale(Tape* t, Var a, double alpha) {
  Matrix y = t->value(a);
  y.Scale(alpha);
  bool rg = t->requires_grad(a);
  return t->Emit(
      std::move(y), {a},
      [a, alpha](Tape* tp, Var self) {
        tp->AccumulateGrad(a, alpha, tp->grad(self));
      },
      rg);
}

Var AddBias(Tape* t, Var x, Var bias) {
  const Matrix& xv = t->value(x);
  const Matrix& bv = t->value(bias);
  GALIGN_DCHECK(bv.rows() == 1 && bv.cols() == xv.cols());
  Matrix y = xv;
  for (int64_t r = 0; r < y.rows(); ++r) {
    double* row = y.row_data(r);
    for (int64_t c = 0; c < y.cols(); ++c) row[c] += bv(0, c);
  }
  bool rg = AnyRequiresGrad(*t, {x, bias});
  return t->Emit(
      std::move(y), {x, bias},
      [x, bias](Tape* tp, Var self) {
        const Matrix& g = tp->grad(self);
        tp->AccumulateGrad(x, g);
        if (tp->requires_grad(bias)) {
          Matrix gb(1, g.cols());
          for (int64_t r = 0; r < g.rows(); ++r) {
            const double* row = g.row_data(r);
            for (int64_t c = 0; c < g.cols(); ++c) gb(0, c) += row[c];
          }
          tp->AccumulateGrad(bias, gb);
        }
      },
      rg);
}

Var WeightedSum(Tape* t, const std::vector<std::pair<Var, double>>& terms) {
  double total = 0.0;
  bool rg = false;
  std::vector<Var> parents;
  for (const auto& [v, w] : terms) {
    GALIGN_DCHECK(t->value(v).rows() == 1 && t->value(v).cols() == 1);
    total += w * t->value(v)(0, 0);
    rg = rg || t->requires_grad(v);
    parents.push_back(v);
  }
  Matrix y(1, 1, total);
  auto weights = terms;
  return t->Emit(
      std::move(y), std::move(parents),
      [weights](Tape* tp, Var self) {
        const double g = tp->grad(self)(0, 0);
        for (const auto& [v, w] : weights) {
          Matrix d(1, 1, g * w);
          tp->AccumulateGrad(v, d);
        }
      },
      rg);
}

Var FrobeniusNorm(Tape* t, Var a) {
  double norm = t->value(a).FrobeniusNorm();
  Matrix y(1, 1, norm);
  bool rg = t->requires_grad(a);
  return t->Emit(
      std::move(y), {a},
      [a](Tape* tp, Var self) {
        if (!tp->requires_grad(a)) return;
        const double g = tp->grad(self)(0, 0);
        const double norm = tp->value(self)(0, 0);
        if (norm < 1e-12) return;
        tp->AccumulateGrad(a, g / norm, tp->value(a));
      },
      rg);
}

Var MSELoss(Tape* t, Var pred, const Matrix& target) {
  const Matrix& p = t->value(pred);
  GALIGN_DCHECK(p.SameShape(target));
  double sum = 0.0;
  for (int64_t i = 0; i < p.size(); ++i) {
    double d = p.data()[i] - target.data()[i];
    sum += d * d;
  }
  const double inv_n = 1.0 / static_cast<double>(p.size());
  Matrix y(1, 1, sum * inv_n);
  bool rg = t->requires_grad(pred);
  Matrix target_copy = target;
  return t->Emit(
      std::move(y), {pred},
      [pred, target_copy = std::move(target_copy), inv_n](Tape* tp,
                                                          Var self) {
        if (!tp->requires_grad(pred)) return;
        const double g = tp->grad(self)(0, 0);
        const Matrix& p = tp->value(pred);
        Matrix d(p.rows(), p.cols());
        for (int64_t i = 0; i < p.size(); ++i) {
          d.data()[i] =
              2.0 * inv_n * g * (p.data()[i] - target_copy.data()[i]);
        }
        tp->AccumulateGrad(pred, d);
      },
      rg);
}

Var ConsistencyLoss(Tape* t, const SparseMatrix* c, Var h) {
  GALIGN_DCHECK(c != nullptr);
  const Matrix& hv = t->value(h);
  GALIGN_DCHECK(c->rows() == hv.rows() && c->cols() == hv.rows());

  // ||C||^2 over stored entries.
  double c_sq = 0.0;
  for (double v : c->values()) c_sq += v * v;

  // -2 sum_{(i,j) in C} C_ij <H_i, H_j>.
  double cross = 0.0;
  const auto& rp = c->row_ptr();
  const auto& ci = c->col_idx();
  const auto& cv = c->values();
  const int64_t d = hv.cols();
  for (int64_t r = 0; r < c->rows(); ++r) {
    const double* hr = hv.row_data(r);
    for (int64_t i = rp[r]; i < rp[r + 1]; ++i) {
      const double* hj = hv.row_data(ci[i]);
      double dot = 0.0;
      for (int64_t k = 0; k < d; ++k) dot += hr[k] * hj[k];
      cross += cv[i] * dot;
    }
  }

  // ||H^T H||^2 (d x d Gram).
  Matrix gram = MatMulTransposedA(hv, hv);
  double gram_sq = gram.SquaredNorm();

  double sq = c_sq - 2.0 * cross + gram_sq;
  if (sq < 0.0) sq = 0.0;  // numerical guard
  double norm = std::sqrt(sq);
  Matrix y(1, 1, norm);
  bool rg = t->requires_grad(h);
  return t->Emit(
      std::move(y), {h},
      [c, h, gram = std::move(gram)](Tape* tp, Var self) {
        if (!tp->requires_grad(h)) return;
        const double norm = tp->value(self)(0, 0);
        if (norm < 1e-12) return;
        const double g = tp->grad(self)(0, 0);
        const Matrix& hv = tp->value(h);
        // d||C - HH^T||^2 / dH = -2 (C + C^T) H + 4 H (H^T H)
        Matrix grad = c->Multiply(hv);
        c->TransposedMultiplyInto(hv, &grad, /*accumulate=*/true);
        grad.Scale(-2.0);
        grad.Axpy(4.0, galign::MatMul(hv, gram));
        // Chain rule for the sqrt: factor g / (2 norm).
        grad.Scale(g / (2.0 * norm));
        tp->AccumulateGrad(h, grad);
      },
      rg);
}

Var AdaptivityLoss(Tape* t, Var a, Var b,
                   const std::vector<int64_t>& correspondence,
                   double threshold) {
  const Matrix& av = t->value(a);
  const Matrix& bv = t->value(b);
  GALIGN_DCHECK(av.cols() == bv.cols());
  GALIGN_DCHECK(static_cast<int64_t>(correspondence.size()) == av.rows());

  double total = 0.0;
  std::vector<double> dist(av.rows());
  for (int64_t v = 0; v < av.rows(); ++v) {
    double d2 = RowSquaredDistance(av, v, bv, correspondence[v]);
    dist[v] = std::sqrt(d2);
    if (dist[v] < threshold) total += dist[v];
  }
  Matrix y(1, 1, total);
  bool rg = AnyRequiresGrad(*t, {a, b});
  auto corr = correspondence;
  return t->Emit(
      std::move(y), {a, b},
      [a, b, corr = std::move(corr), dist = std::move(dist),
       threshold](Tape* tp, Var self) {
        const double g = tp->grad(self)(0, 0);
        const Matrix& av = tp->value(a);
        const Matrix& bv = tp->value(b);
        Matrix* ga = tp->requires_grad(a) ? tp->EnsureGrad(a) : nullptr;
        Matrix* gb = tp->requires_grad(b) ? tp->EnsureGrad(b) : nullptr;
        for (int64_t v = 0; v < av.rows(); ++v) {
          if (dist[v] >= threshold || dist[v] < 1e-12) continue;
          AddRowDifference(av, v, bv, corr[v], g / dist[v], ga, gb);
        }
      },
      rg);
}

Var AnchorLoss(Tape* t, Var a, Var b,
               const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  const Matrix& av = t->value(a);
  const Matrix& bv = t->value(b);
  GALIGN_DCHECK(av.cols() == bv.cols());
  double total = 0.0;
  std::vector<double> dist(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto [v, u] = pairs[i];
    dist[i] = std::sqrt(RowSquaredDistance(av, v, bv, u));
    total += dist[i];
  }
  Matrix y(1, 1, total);
  bool rg = AnyRequiresGrad(*t, {a, b});
  auto pairs_copy = pairs;
  return t->Emit(
      std::move(y), {a, b},
      [a, b, pairs = std::move(pairs_copy),
       dist = std::move(dist)](Tape* tp, Var self) {
        const double g = tp->grad(self)(0, 0);
        const Matrix& av = tp->value(a);
        const Matrix& bv = tp->value(b);
        Matrix* ga = tp->requires_grad(a) ? tp->EnsureGrad(a) : nullptr;
        Matrix* gb = tp->requires_grad(b) ? tp->EnsureGrad(b) : nullptr;
        for (size_t i = 0; i < pairs.size(); ++i) {
          if (dist[i] < 1e-12) continue;
          auto [v, u] = pairs[i];
          AddRowDifference(av, v, bv, u, g / dist[i], ga, gb);
        }
      },
      rg);
}

}  // namespace ag
}  // namespace galign
