// Cosine LSH via signed random projections (Charikar 2002), multi-table
// with multiprobe (Lv et al. 2007).
//
// Build: every indexed row is projected onto `tables * bits` Gaussian
// hyperplanes with one blocked GEMM (the PR-1 kernel — hashing is a matrix
// product, not n scalar loops); the sign pattern of each `bits`-wide slice
// is that table's bucket signature. Each table freezes into a
// direct-addressed CSR layout — bucket_starts (2^bits + 1 offsets) plus a
// packed id array ordered by (signature, id) — so probing a bucket is two
// array reads, not a binary search over the whole table (the searches were
// the dominant query cost: ~15 dependent cache misses per probed bucket,
// per table). Iteration inside a bucket is ascending id (determinism).
//
// Query: signatures come from the same GEMM over the query block. Per
// table the exact bucket is probed first, then buckets at Hamming
// distance 1, 2, ... obtained by flipping the lowest-|projection| bits
// (the bits most likely to disagree across the boundary). The union of
// probed buckets, deduped with a stamp array, is re-ranked exactly against
// the stored base rows through a bounded (score desc, id asc) heap — the
// same total order TopKSelect uses — so the output contract (descending
// score, lowest index wins) is identical to the exact chunked scan and
// recall is the only difference.
//
// This is the only AnnIndex implementation (the graph/ann/ann_index.h
// entry points live here too).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "common/status.h"
#include "graph/ann/ann_index.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"
#include "la/ops.h"

namespace galign {
namespace {

// Rows hashed (build) or queried per outer block: bounds the transient
// projection buffer and sets the deadline-poll granularity.
constexpr int64_t kHashBlockRows = 4096;
constexpr int64_t kQueryBlockRows = 256;

constexpr double kNoScore = -std::numeric_limits<double>::infinity();

// Allocates the -1 / -inf padded TopKAlignment skeleton (rows_computed
// stays 0 for the caller to advance).
Result<TopKAlignment> MakeEmptyTopK(int64_t rows, int64_t cols, int64_t k) {
  TopKAlignment out;
  out.rows = rows;
  out.cols = cols;
  out.k = k;
  out.rows_computed = 0;
  try {
    out.index.assign(static_cast<size_t>(rows) * k, -1);
    out.score.assign(static_cast<size_t>(rows) * k, kNoScore);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "AnnIndex: top-k output of " + std::to_string(rows) + "x" +
        std::to_string(k) + " does not fit");
  }
  return out;
}

// Plain inner product of two length-d rows (the re-ranking metric).
inline double RowDot(const double* a, const double* b, int64_t d) {
  double acc = 0.0;
  for (int64_t i = 0; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

using SigEntry = std::pair<uint32_t, int32_t>;  // (signature, base row id)

class LshIndex final : public AnnIndex {
 public:
  LshIndex(Matrix base, Matrix planes, int64_t bits, int64_t probes,
           MemoryScope scope)
      : base_(std::move(base)),
        planes_(std::move(planes)),
        bits_(bits),
        probes_(probes),
        scope_(std::move(scope)),
        bucket_starts_(static_cast<size_t>(kLshTables)),
        bucket_ids_(static_cast<size_t>(kLshTables)) {}

  int64_t size() const override { return indexed_; }
  int64_t dim() const override { return base_.cols(); }
  bool truncated() const override { return indexed_ < base_.rows(); }
  const Matrix& base() const override { return base_; }

  uint64_t MemoryBytes() const override {
    uint64_t bytes = DenseBytes(base_.rows(), base_.cols()) +
                     DenseBytes(planes_.rows(), planes_.cols());
    for (const auto& t : bucket_starts_) bytes += t.size() * sizeof(int32_t);
    for (const auto& t : bucket_ids_) bytes += t.size() * sizeof(int32_t);
    return bytes;
  }

  [[nodiscard]] Result<TopKAlignment> QueryBatch(
      const Matrix& queries, int64_t k, const RunContext& ctx,
      double effort) const override;

  /// Hashes rows [0, n) of the base into the tables, winding down at the
  /// deadline with the prefix inserted so far.
  Status BuildTables(const RunContext& ctx);

  /// Signature of `bits_`-wide projection slice `t` in `proj` row `r`.
  uint32_t Signature(const Matrix& proj, int64_t r, int64_t t) const {
    uint32_t sig = 0;
    const double* p = proj.row_data(r) + t * bits_;
    for (int64_t b = 0; b < bits_; ++b) {
      if (p[b] >= 0.0) sig |= (uint32_t{1} << b);
    }
    return sig;
  }

 private:
  // Appends candidate ids from the bucket `sig` of table `t`, deduping via
  // the epoch-stamped scratch array. Direct-addressed: two offset reads
  // bound the bucket's slice of the packed id array. Each fresh candidate's
  // base row is prefetched here — by the time the re-rank loop reads it the
  // line is resident, which matters because candidate rows are scattered
  // across a base that far outgrows L2 (the gathers, not the dot products,
  // bound re-rank throughput).
  void ProbeBucket(int64_t t, uint32_t sig, int32_t epoch,
                   std::vector<int32_t>* stamp,
                   std::vector<int32_t>* cand) const {
    const auto& starts = bucket_starts_[static_cast<size_t>(t)];
    const auto& ids = bucket_ids_[static_cast<size_t>(t)];
    const int32_t b = starts[sig];
    const int32_t e = starts[sig + 1];
    for (int32_t j = b; j < e; ++j) {
      const int32_t id = ids[static_cast<size_t>(j)];
      if ((*stamp)[id] != epoch) {
        (*stamp)[id] = epoch;
        __builtin_prefetch(base_.row_data(id));
        cand->push_back(id);
      }
    }
  }

  Matrix base_;
  Matrix planes_;  // (kLshTables * bits) x dim hyperplane normals
  int64_t bits_;
  int64_t probes_;
  int64_t indexed_ = 0;
  MemoryScope scope_;  // index-lifetime budget reservation
  // Per-table CSR buckets: starts has 2^bits + 1 offsets into ids, which
  // holds the indexed row ids ordered by (signature, id).
  std::vector<std::vector<int32_t>> bucket_starts_;
  std::vector<std::vector<int32_t>> bucket_ids_;
};

Status LshIndex::BuildTables(const RunContext& ctx) {
  const int64_t n = base_.rows();
  const int64_t sig_cols = kLshTables * bits_;
  const size_t nbuckets = size_t{1} << bits_;
  if (n == 0) {
    try {
      for (auto& t : bucket_starts_) t.assign(nbuckets + 1, 0);
    } catch (const std::bad_alloc&) {
      return Status::ResourceExhausted("LshIndex: bucket offsets do not fit");
    }
    return Status::OK();
  }

  // Transient per-table (signature, id) pairs; frozen into CSR below.
  std::vector<std::vector<SigEntry>> entries(static_cast<size_t>(kLshTables));
  try {
    for (auto& t : entries) t.reserve(static_cast<size_t>(n));
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("LshIndex: bucket arrays for " +
                                     std::to_string(n) + " rows do not fit");
  }

  auto proj = Matrix::TryCreate(std::min(kHashBlockRows, n), sig_cols);
  GALIGN_RETURN_NOT_OK(proj.status());
  Matrix& p = proj.ValueOrDie();

  for (int64_t r0 = 0; r0 < n; r0 += kHashBlockRows) {
    if (ctx.ShouldStop()) break;  // truncated index over the prefix
    const int64_t nrows = std::min(kHashBlockRows, n - r0);
    const Matrix strip = base_.Block(r0, 0, nrows, base_.cols());
    if (p.rows() != nrows) p.Resize(nrows, sig_cols);
    MatMulTransposedBInto(strip, planes_, &p);
    for (int64_t i = 0; i < nrows; ++i) {
      for (int64_t t = 0; t < kLshTables; ++t) {
        entries[static_cast<size_t>(t)].emplace_back(
            Signature(p, i, t), static_cast<int32_t>(r0 + i));
      }
    }
    indexed_ = r0 + nrows;
  }

  // Freeze: sort by (signature, id), then prefix-sum bucket counts into
  // the direct-addressed offset arrays.
  try {
    for (int64_t t = 0; t < kLshTables; ++t) {
      auto& ent = entries[static_cast<size_t>(t)];
      std::sort(ent.begin(), ent.end());
      auto& starts = bucket_starts_[static_cast<size_t>(t)];
      auto& ids = bucket_ids_[static_cast<size_t>(t)];
      starts.assign(nbuckets + 1, 0);
      ids.resize(ent.size());
      for (const SigEntry& e : ent) ++starts[e.first + 1];
      for (size_t s = 1; s <= nbuckets; ++s) starts[s] += starts[s - 1];
      for (size_t j = 0; j < ent.size(); ++j) ids[j] = ent[j].second;
      ent.clear();
      ent.shrink_to_fit();
    }
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("LshIndex: bucket offsets for " +
                                     std::to_string(kLshTables) + " x 2^" +
                                     std::to_string(bits_) +
                                     " buckets do not fit");
  }
  return Status::OK();
}

Result<TopKAlignment> LshIndex::QueryBatch(const Matrix& queries, int64_t k,
                                           const RunContext& ctx,
                                           double effort) const {
  if (queries.cols() != base_.cols()) {
    return Status::InvalidArgument(
        "LshIndex::QueryBatch: query dim " + std::to_string(queries.cols()) +
        " != index dim " + std::to_string(base_.cols()));
  }
  if (k <= 0) {
    return Status::InvalidArgument("LshIndex::QueryBatch: k must be > 0");
  }
  const int64_t rows = queries.rows();
  const int64_t kq = std::min(k, indexed_);
  auto out_r = MakeEmptyTopK(rows, base_.rows(), kq);
  GALIGN_RETURN_NOT_OK(out_r.status());
  TopKAlignment& out = out_r.ValueOrDie();
  if (rows == 0 || kq == 0) {
    out.rows_computed = rows;  // nothing retrievable: all rows are -1 padded
    return out_r;
  }

  // Degraded effort visits fewer buckets per table; the exact bucket is
  // always probed, so effort only trims the multiprobe expansion.
  const double eff = std::clamp(effort, 0.0, 1.0);
  const int64_t eff_probes = std::max<int64_t>(
      1, std::llround(static_cast<double>(probes_) * eff));
  const int64_t sig_cols = kLshTables * bits_;
  const int64_t qblock = std::min(kQueryBlockRows, rows);
  MemoryScope scope;
  GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
      ctx.budget(),
      TopKOutputBytes(rows, kq) + DenseBytes(qblock, sig_cols) +
          static_cast<uint64_t>(ParallelismLevel()) *
              static_cast<uint64_t>(indexed_) * sizeof(int32_t),
      "lsh query batch", &scope));

  auto proj = Matrix::TryCreate(qblock, sig_cols);
  GALIGN_RETURN_NOT_OK(proj.status());
  Matrix& p = proj.ValueOrDie();

  for (int64_t r0 = 0; r0 < rows; r0 += qblock) {
    if (ctx.ShouldStop()) break;  // wind down with the rows finished so far
    const int64_t nrows = std::min(qblock, rows - r0);
    const Matrix strip = queries.Block(r0, 0, nrows, queries.cols());
    if (p.rows() != nrows) p.Resize(nrows, sig_cols);
    MatMulTransposedBInto(strip, planes_, &p);

    ParallelFor(
        0, nrows,
        [&](int64_t cb, int64_t ce) {
          // Per-chunk scratch; the epoch stamp makes dedupe O(1) per id
          // without clearing between queries.
          std::vector<int32_t> stamp(static_cast<size_t>(base_.rows()), -1);
          std::vector<int32_t> cand;
          std::vector<int32_t> order(static_cast<size_t>(bits_));
          // Bounded top-k heap over (score, id), worst kept entry on top.
          // Candidates stream through in bucket order — no sort, no dense
          // score array — and the (descending score, ascending id) total
          // order makes the kept set and its output order identical to the
          // exact path's TopKSelect contract.
          struct Ent {
            double score;
            int32_t id;
          };
          auto better = [](const Ent& a, const Ent& b) {
            return a.score != b.score ? a.score > b.score : a.id < b.id;
          };
          std::vector<Ent> heap;
          heap.reserve(static_cast<size_t>(kq));
          for (int64_t i = cb; i < ce; ++i) {
            const int32_t epoch = static_cast<int32_t>(i);
            cand.clear();
            for (int64_t t = 0; t < kLshTables; ++t) {
              const uint32_t sig = Signature(p, i, t);
              ProbeBucket(t, sig, epoch, &stamp, &cand);
              if (eff_probes <= 1) continue;
              // Flip order: least-confident bits (smallest |projection|)
              // first — those are the likeliest to differ from a true
              // neighbor's signature.
              const double* pr = p.row_data(i) + t * bits_;
              for (int64_t b = 0; b < bits_; ++b)
                order[static_cast<size_t>(b)] = static_cast<int32_t>(b);
              std::sort(order.begin(), order.end(),
                        [&](int32_t a, int32_t b) {
                          const double fa = std::fabs(pr[a]);
                          const double fb = std::fabs(pr[b]);
                          return fa != fb ? fa < fb : a < b;
                        });
              int64_t emitted = 1;
              for (int64_t a = 0; a < bits_ && emitted < eff_probes; ++a) {
                ProbeBucket(t, sig ^ (uint32_t{1} << order[a]), epoch,
                            &stamp, &cand);
                ++emitted;
              }
              for (int64_t a = 0; a < bits_ && emitted < eff_probes; ++a) {
                for (int64_t b = a + 1; b < bits_ && emitted < eff_probes;
                     ++b) {
                  ProbeBucket(t,
                              sig ^ (uint32_t{1} << order[a]) ^
                                  (uint32_t{1} << order[b]),
                              epoch, &stamp, &cand);
                  ++emitted;
                }
              }
            }
            const int64_t csize = static_cast<int64_t>(cand.size());
            const double* qr = queries.row_data(r0 + i);
            heap.clear();
            for (int64_t c = 0; c < csize; ++c) {
              const int32_t id = cand[static_cast<size_t>(c)];
              const Ent e{RowDot(qr, base_.row_data(id), base_.cols()), id};
              if (static_cast<int64_t>(heap.size()) < kq) {
                heap.push_back(e);
                std::push_heap(heap.begin(), heap.end(), better);
              } else if (better(e, heap.front())) {
                std::pop_heap(heap.begin(), heap.end(), better);
                heap.back() = e;
                std::push_heap(heap.begin(), heap.end(), better);
              }
            }
            // Drain worst-first, filling the row back-to-front; slots past
            // the kept count keep their -1 / -inf padding.
            while (!heap.empty()) {
              std::pop_heap(heap.begin(), heap.end(), better);
              const Ent e = heap.back();
              heap.pop_back();
              const int64_t j = static_cast<int64_t>(heap.size());
              out.index[(r0 + i) * kq + j] = e.id;
              out.score[(r0 + i) * kq + j] = e.score;
            }
          }
        },
        /*min_chunk=*/16);
    out.rows_computed = r0 + nrows;
  }
  return out_r;
}

}  // namespace

int64_t EffectiveLshBits(int64_t n) {
  // ~1 point per bucket (2^bits >= n), clamped. Dense signatures keep
  // probed buckets thin on clustered data — with coarser buckets every
  // probe drags in whole near-duplicate groups and query cost scales with
  // group size instead of k.
  int64_t bits = 4;
  while (bits < kLshMaxBits && (int64_t{1} << bits) < n) ++bits;
  return bits;
}

uint64_t EstimateAnnIndexBytes(int64_t n, int64_t dim) {
  const uint64_t un = static_cast<uint64_t>(std::max<int64_t>(n, 0));
  const int64_t bits = EffectiveLshBits(n);
  const uint64_t tables = static_cast<uint64_t>(kLshTables);
  // Base copy + hyperplanes + per-table direct-addressed bucket offsets
  // (2^bits + 1) and packed id arrays, + the transient sorted
  // (signature, id) pairs and projection block used while hashing.
  return DenseBytes(n, dim) + DenseBytes(kLshTables * bits, dim) +
         tables * ((uint64_t{1} << bits) + 1 + un) * sizeof(int32_t) +
         un * (sizeof(uint32_t) + sizeof(int32_t)) +
         DenseBytes(kHashBlockRows, kLshTables * bits);
}

Result<std::unique_ptr<AnnIndex>> BuildAnnIndex(Matrix base,
                                                const AnnConfig& config,
                                                const RunContext& ctx) {
  if (base.rows() < 0 || base.cols() < 0) {
    return Status::InvalidArgument("BuildAnnIndex: negative base extents");
  }
  const int64_t n = base.rows();
  const int64_t d = base.cols();
  const int64_t bits = EffectiveLshBits(n);
  const int64_t probes = std::max<int64_t>(1, config.lsh_probes);

  MemoryScope scope;
  GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
      ctx.budget(), EstimateAnnIndexBytes(n, d), "lsh index", &scope));

  // Hyperplane normals: shape is bounded by the constants (kLshTables *
  // kLshMaxBits = 160 rows), so the throwing constructor is fine per
  // DESIGN.md §9.
  Rng rng(config.seed);
  Matrix planes = Matrix::Gaussian(kLshTables * bits, d, &rng);

  auto index = std::make_unique<LshIndex>(std::move(base), std::move(planes),
                                          bits, probes, std::move(scope));
  GALIGN_RETURN_NOT_OK(index->BuildTables(ctx));
  return Result<std::unique_ptr<AnnIndex>>(std::move(index));
}

}  // namespace galign
