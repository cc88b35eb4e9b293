#include "la/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"

namespace galign {

namespace {

// ---------------------------------------------------------------------------
// Blocked GEMM engine.
//
// All three GEMM variants compute C(i, j) = sum_p opA(i, p) * opB(p, j) and
// differ only in how operand elements are gathered during packing, so they
// share one driver and one micro-kernel. Blocking parameters (doubles):
//   - micro-tile: kMr x kNr accumulators held in registers,
//   - A panel: kMc x kKc packed per tile (L2-resident),
//   - B panel: kKc x kNc packed per tile (streamed through the micro-kernel).
// Panels are zero-padded to multiples of kMr/kNr so the micro-kernel never
// branches on fringe logic; the write-back masks the padding out.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 8;
constexpr int64_t kMc = 96;    // multiple of kMr
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 1024;  // multiple of kNr

static_assert(kMc % kMr == 0 && kNc % kNr == 0, "panel/tile mismatch");

// Packed-panel workspaces, reused across calls so steady-state GEMMs do no
// heap allocation. Thread-local: each pool worker packs the panels for the
// output tiles it owns.
thread_local std::vector<double> t_apack;
thread_local std::vector<double> t_bpack;

enum class GemmKind {
  kNN,  // C = A   * B
  kNT,  // C = A   * B^T
  kTN,  // C = A^T * B
};

// Packs the logical block opA[i0 : i0+mc, p0 : p0+kc] as kMr-row strips,
// strip-major then p-major: pack[s * kc * kMr + p * kMr + ii]. Rows past mc
// are padded with zeros.
void PackA(GemmKind kind, const Matrix& a, int64_t i0, int64_t mc, int64_t p0,
           int64_t kc, double* pack) {
  const int64_t strips = (mc + kMr - 1) / kMr;
  if (kind == GemmKind::kTN) {
    // opA(i, p) = a(p, i): walk rows of `a` once, scattering into strips.
    std::fill(pack, pack + strips * kc * kMr, 0.0);
    for (int64_t p = 0; p < kc; ++p) {
      const double* arow = a.row_data(p0 + p) + i0;
      for (int64_t i = 0; i < mc; ++i) {
        pack[(i / kMr) * kc * kMr + p * kMr + (i % kMr)] = arow[i];
      }
    }
    return;
  }
  // opA(i, p) = a(i, p): each strip gathers kMr matrix rows.
  for (int64_t s = 0; s < strips; ++s) {
    double* dst = pack + s * kc * kMr;
    const int64_t rows = std::min<int64_t>(kMr, mc - s * kMr);
    for (int64_t ii = 0; ii < rows; ++ii) {
      const double* arow = a.row_data(i0 + s * kMr + ii) + p0;
      for (int64_t p = 0; p < kc; ++p) dst[p * kMr + ii] = arow[p];
    }
    for (int64_t ii = rows; ii < kMr; ++ii) {
      for (int64_t p = 0; p < kc; ++p) dst[p * kMr + ii] = 0.0;
    }
  }
}

// Packs the logical block opB[p0 : p0+kc, j0 : j0+nc] as kNr-column strips,
// strip-major then p-major: pack[s * kc * kNr + p * kNr + jj]. Columns past
// nc are padded with zeros.
void PackB(GemmKind kind, const Matrix& b, int64_t p0, int64_t kc, int64_t j0,
           int64_t nc, double* pack) {
  const int64_t strips = (nc + kNr - 1) / kNr;
  if (kind == GemmKind::kNT) {
    // opB(p, j) = b(j, p): each strip gathers kNr matrix rows of b.
    for (int64_t s = 0; s < strips; ++s) {
      double* dst = pack + s * kc * kNr;
      const int64_t cols = std::min<int64_t>(kNr, nc - s * kNr);
      for (int64_t jj = 0; jj < cols; ++jj) {
        const double* brow = b.row_data(j0 + s * kNr + jj) + p0;
        for (int64_t p = 0; p < kc; ++p) dst[p * kNr + jj] = brow[p];
      }
      for (int64_t jj = cols; jj < kNr; ++jj) {
        for (int64_t p = 0; p < kc; ++p) dst[p * kNr + jj] = 0.0;
      }
    }
    return;
  }
  // opB(p, j) = b(p, j): walk rows of `b` once, slicing into strips.
  std::fill(pack, pack + strips * kc * kNr, 0.0);
  for (int64_t p = 0; p < kc; ++p) {
    const double* brow = b.row_data(p0 + p) + j0;
    for (int64_t s = 0; s < strips; ++s) {
      double* dst = pack + s * kc * kNr + p * kNr;
      const int64_t cols = std::min<int64_t>(kNr, nc - s * kNr);
      for (int64_t jj = 0; jj < cols; ++jj) dst[jj] = brow[s * kNr + jj];
    }
  }
}

// Computes one kMr x kNr output tile from packed strips. The accumulators
// live in registers for the whole kc loop; the jj loop vectorizes (8 doubles
// = one AVX-512 / two AVX2 lanes). `overwrite` stores on the first k-panel
// and adds on subsequent ones, which is what lets the *Into callers skip
// zero-filling the output.
void MicroKernel(const double* __restrict ap, const double* __restrict bp,
                 int64_t kc, double* c, int64_t ldc, int64_t mrem,
                 int64_t nrem, bool overwrite) {
  double acc[kMr * kNr] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const double* __restrict a = ap + p * kMr;
    const double* __restrict b = bp + p * kNr;
    for (int64_t ii = 0; ii < kMr; ++ii) {
      const double av = a[ii];
      double* __restrict arow = acc + ii * kNr;
      for (int64_t jj = 0; jj < kNr; ++jj) arow[jj] += av * b[jj];
    }
  }
  const int64_t mlim = std::min<int64_t>(kMr, mrem);
  if (nrem >= kNr) {
    for (int64_t ii = 0; ii < mlim; ++ii) {
      double* crow = c + ii * ldc;
      const double* arow = acc + ii * kNr;
      if (overwrite) {
        for (int64_t jj = 0; jj < kNr; ++jj) crow[jj] = arow[jj];
      } else {
        for (int64_t jj = 0; jj < kNr; ++jj) crow[jj] += arow[jj];
      }
    }
    return;
  }
  for (int64_t ii = 0; ii < mlim; ++ii) {
    double* crow = c + ii * ldc;
    const double* arow = acc + ii * kNr;
    for (int64_t jj = 0; jj < nrem; ++jj) {
      crow[jj] = overwrite ? arow[jj] : crow[jj] + arow[jj];
    }
  }
}

void GemmBlocked(GemmKind kind, const Matrix& a, const Matrix& b, Matrix* out,
                 bool accumulate) {
  GALIGN_DCHECK(out != &a && out != &b);
  int64_t m = 0, k = 0, n = 0;
  switch (kind) {
    case GemmKind::kNN:
      GALIGN_DCHECK(a.cols() == b.rows());
      m = a.rows(), k = a.cols(), n = b.cols();
      break;
    case GemmKind::kNT:
      GALIGN_DCHECK(a.cols() == b.cols());
      m = a.rows(), k = a.cols(), n = b.rows();
      break;
    case GemmKind::kTN:
      GALIGN_DCHECK(a.rows() == b.rows());
      m = a.cols(), k = a.rows(), n = b.cols();
      break;
  }
  if (accumulate) {
    GALIGN_DCHECK(out->rows() == m && out->cols() == n);
  } else {
    out->Resize(m, n);
  }
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) out->Fill(0.0);
    return;
  }
  const int64_t mt = (m + kMc - 1) / kMc;
  const int64_t nt = (n + kNc - 1) / kNc;
  const int64_t ldc = out->cols();
  // 2D decomposition over output tiles. Each tile is written by exactly one
  // task and k-panels are consumed in a fixed order, so the result does not
  // depend on how ParallelFor partitions the tile range.
  ParallelFor(
      0, mt * nt,
      [&](int64_t t0, int64_t t1) {
        std::vector<double>& apack = t_apack;
        std::vector<double>& bpack = t_bpack;
        apack.resize(kMc * kKc);
        bpack.resize(kKc * kNc);
        for (int64_t t = t0; t < t1; ++t) {
          const int64_t ic = (t / nt) * kMc;
          const int64_t jc = (t % nt) * kNc;
          const int64_t mc = std::min<int64_t>(kMc, m - ic);
          const int64_t nc = std::min<int64_t>(kNc, n - jc);
          const int64_t mstrips = (mc + kMr - 1) / kMr;
          const int64_t nstrips = (nc + kNr - 1) / kNr;
          for (int64_t pc = 0; pc < k; pc += kKc) {
            const int64_t kc = std::min<int64_t>(kKc, k - pc);
            PackA(kind, a, ic, mc, pc, kc, apack.data());
            PackB(kind, b, pc, kc, jc, nc, bpack.data());
            const bool overwrite = !accumulate && pc == 0;
            for (int64_t js = 0; js < nstrips; ++js) {
              const double* bstrip = bpack.data() + js * kc * kNr;
              for (int64_t is = 0; is < mstrips; ++is) {
                MicroKernel(apack.data() + is * kc * kMr, bstrip, kc,
                            out->row_data(ic + is * kMr) + jc + js * kNr, ldc,
                            mc - is * kMr, nc - js * kNr, overwrite);
              }
            }
          }
        }
      },
      /*min_chunk=*/1);
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulInto(a, b, &c);
  return c;
}

Matrix MatMulTransposedB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransposedBInto(a, b, &c);
  return c;
}

Matrix MatMulTransposedA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransposedAInto(a, b, &c);
  return c;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                bool accumulate) {
  GemmBlocked(GemmKind::kNN, a, b, out, accumulate);
}

void MatMulTransposedBInto(const Matrix& a, const Matrix& b, Matrix* out,
                           bool accumulate) {
  GemmBlocked(GemmKind::kNT, a, b, out, accumulate);
}

void MatMulTransposedAInto(const Matrix& a, const Matrix& b, Matrix* out,
                           bool accumulate) {
  GemmBlocked(GemmKind::kTN, a, b, out, accumulate);
}

Matrix Transpose(const Matrix& a) {
  Matrix t;
  t.Resize(a.cols(), a.rows());
  constexpr int64_t kTb = 32;  // 32x32 doubles = two 4 KiB pages per block
  const int64_t rows = a.rows(), cols = a.cols();
  if (rows == 0 || cols == 0) return t;
  const int64_t cblocks = (cols + kTb - 1) / kTb;
  // Parallelize over column blocks of `a` (row blocks of the output) so each
  // task writes a disjoint set of output rows.
  ParallelFor(
      0, cblocks,
      [&](int64_t b0, int64_t b1) {
        for (int64_t cb = b0; cb < b1; ++cb) {
          const int64_t c0 = cb * kTb;
          const int64_t c1 = std::min<int64_t>(c0 + kTb, cols);
          for (int64_t r0 = 0; r0 < rows; r0 += kTb) {
            const int64_t r1 = std::min<int64_t>(r0 + kTb, rows);
            for (int64_t r = r0; r < r1; ++r) {
              const double* arow = a.row_data(r);
              for (int64_t c = c0; c < c1; ++c) {
                t(c, r) = arow[c];
              }
            }
          }
        }
      },
      /*min_chunk=*/1);
  return t;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  GALIGN_DCHECK(a.SameShape(b));
  Matrix c(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  for (int64_t i = 0; i < a.size(); ++i) pc[i] = pa[i] * pb[i];
  return c;
}

Matrix Map(const Matrix& a, const std::function<double(double)>& f) {
  Matrix c(a.rows(), a.cols());
  const double* pa = a.data();
  double* pc = c.data();
  for (int64_t i = 0; i < a.size(); ++i) pc[i] = f(pa[i]);
  return c;
}

void TanhInto(const Matrix& a, Matrix* out) {
  if (out != &a) out->Resize(a.rows(), a.cols());
  const double* pa = a.data();
  double* pc = out->data();
  ParallelFor(0, a.size(), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) pc[i] = std::tanh(pa[i]);
  });
}

double Dot(const Matrix& a, const Matrix& b) {
  GALIGN_DCHECK(a.SameShape(b));
  double s = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) s += pa[i] * pb[i];
  return s;
}

double RowSquaredDistance(const Matrix& a, int64_t i, const Matrix& b,
                          int64_t j) {
  GALIGN_DCHECK(a.cols() == b.cols());
  const double* pa = a.row_data(i);
  const double* pb = b.row_data(j);
  double s = 0.0;
  for (int64_t c = 0; c < a.cols(); ++c) {
    double d = pa[c] - pb[c];
    s += d * d;
  }
  return s;
}

double RowCosine(const Matrix& a, int64_t i, const Matrix& b, int64_t j) {
  GALIGN_DCHECK(a.cols() == b.cols());
  const double* pa = a.row_data(i);
  const double* pb = b.row_data(j);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int64_t c = 0; c < a.cols(); ++c) {
    dot += pa[c] * pb[c];
    na += pa[c] * pa[c];
    nb += pb[c] * pb[c];
  }
  if (na < 1e-24 || nb < 1e-24) return 0.0;
  return dot / std::sqrt(na * nb);
}

int64_t ArgMaxRow(const Matrix& m, int64_t r) {
  const double* p = m.row_data(r);
  int64_t best = 0;
  for (int64_t c = 1; c < m.cols(); ++c) {
    if (p[c] > p[best]) best = c;
  }
  return best;
}

double MaxRow(const Matrix& m, int64_t r) {
  return m(r, ArgMaxRow(m, r));
}

void TopKSelect(const double* values, int64_t n, int64_t k, int64_t* idx_out,
                double* score_out) {
  if (k <= 0) return;
  // Bounded min-heap over (value, column): the root is the worst retained
  // candidate (smallest value, with the larger index losing ties), so the
  // scan evicts in O(log k) without materializing an n-length index vector.
  // Eviction is strict (>), so among equal values the earliest-seen (lowest)
  // indices are retained — the "lowest index wins" determinism contract.
  using Entry = std::pair<double, int64_t>;  // (value, column)
  auto better = [](const Entry& a, const Entry& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  const int64_t kept = std::min<int64_t>(k, std::max<int64_t>(n, 0));
  std::vector<Entry> heap;
  heap.reserve(kept);
  for (int64_t c = 0; c < kept; ++c) heap.emplace_back(values[c], c);
  std::make_heap(heap.begin(), heap.end(), better);
  for (int64_t c = kept; c < n; ++c) {
    Entry cand{values[c], c};
    if (better(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  std::sort(heap.begin(), heap.end(), better);
  for (int64_t j = 0; j < k; ++j) {
    if (j < kept) {
      idx_out[j] = heap[j].second;
      score_out[j] = heap[j].first;
    } else {
      idx_out[j] = -1;
      score_out[j] = -std::numeric_limits<double>::infinity();
    }
  }
}

std::vector<int64_t> TopKRow(const Matrix& m, int64_t r, int64_t k) {
  const int64_t n = m.cols();
  k = std::min<int64_t>(k, n);
  if (k <= 0) return {};
  std::vector<int64_t> idx(k);
  std::vector<double> score(k);
  TopKSelect(m.row_data(r), n, k, idx.data(), score.data());
  return idx;
}

int64_t RankInRow(const Matrix& m, int64_t r, int64_t col) {
  const double* p = m.row_data(r);
  const double target = p[col];
  int64_t greater = 0, equal_others = 0;
  for (int64_t c = 0; c < m.cols(); ++c) {
    if (c == col) continue;
    if (p[c] > target) {
      ++greater;
    } else if (p[c] == target) {
      ++equal_others;
    }
  }
  return 1 + greater + equal_others / 2;
}

Matrix ConcatCols(const std::vector<const Matrix*>& parts) {
  GALIGN_DCHECK(!parts.empty());
  int64_t rows = parts[0]->rows();
  int64_t cols = 0;
  for (const Matrix* p : parts) {
    GALIGN_DCHECK(p->rows() == rows);
    cols += p->cols();
  }
  Matrix out(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    double* orow = out.row_data(r);
    int64_t off = 0;
    for (const Matrix* p : parts) {
      const double* prow = p->row_data(r);
      std::copy(prow, prow + p->cols(), orow + off);
      off += p->cols();
    }
  }
  return out;
}

namespace reference {

Matrix MatMul(const Matrix& a, const Matrix& b) {
  GALIGN_DCHECK(a.cols() == b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (int64_t i = 0; i < m; ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (int64_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b.row_data(p);
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix MatMulTransposedB(const Matrix& a, const Matrix& b) {
  GALIGN_DCHECK(a.cols() == b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  for (int64_t i = 0; i < m; ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (int64_t j = 0; j < n; ++j) {
      const double* brow = b.row_data(j);
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
  return c;
}

Matrix MatMulTransposedA(const Matrix& a, const Matrix& b) {
  GALIGN_DCHECK(a.rows() == b.rows());
  const int64_t m = a.cols(), k = a.rows(), n = b.cols();
  Matrix c(m, n);
  for (int64_t p = 0; p < k; ++p) {
    const double* arow = a.row_data(p);
    const double* brow = b.row_data(p);
    for (int64_t i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* crow = c.row_data(i);
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

}  // namespace reference

}  // namespace galign
