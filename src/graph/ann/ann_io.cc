#include "graph/ann/ann_io.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "common/durable_io.h"
#include "common/parse.h"

namespace galign {

namespace {

constexpr char kRecipeMagic[] = "galign-ann-recipe-v1";

// The v1 layout dates from when a second (HNSW) backend existed: it names
// the backend, carries the table count and an explicit signature-width
// override, and three HNSW knobs. The writer emits them as these fixed
// values so artifact bytes stay identical to earlier builds, and earlier
// builds (which parse every line) still load new artifacts. The reader
// rejects any other backend / tables / bits value and discards the HNSW
// knobs, whatever their values.
constexpr char kRecipeBackend[] = "lsh";
constexpr int64_t kRecipeLshBits = 0;  // 0 = the auto width rule
constexpr int64_t kLegacyHnswDegree = 12;
constexpr int64_t kLegacyHnswEfConstruction = 96;
constexpr int64_t kLegacyHnswEfSearch = 96;

}  // namespace

uint32_t AnnIndexFingerprint(const AnnIndex& index) {
  const Matrix& base = index.base();
  const int64_t probes = std::min<int64_t>(16, index.size());
  const int64_t k = std::min<int64_t>(8, index.size());
  if (probes == 0 || k == 0) return Crc32("empty-ann-index");
  const Matrix probe_rows = base.Block(0, 0, probes, base.cols());
  // Unbounded context: the probe batch is tiny and must never be truncated
  // by an ambient deadline — a partial probe would change the fingerprint.
  auto got = index.QueryBatch(probe_rows, k, RunContext());
  if (!got.ok()) return Crc32("ann-probe-failed");
  const TopKAlignment& t = got.ValueOrDie();
  std::string bytes;
  bytes.reserve(t.index.size() * (sizeof(int64_t) + sizeof(double)));
  for (size_t i = 0; i < t.index.size(); ++i) {
    int64_t id = t.index[i];
    uint64_t score_bits = 0;
    std::memcpy(&score_bits, &t.score[i], sizeof(score_bits));
    bytes.append(reinterpret_cast<const char*>(&id), sizeof(id));
    bytes.append(reinterpret_cast<const char*>(&score_bits),
                 sizeof(score_bits));
  }
  return Crc32(bytes);
}

std::string SerializeAnnRecipe(const AnnIndex& index,
                               const AnnConfig& config) {
  std::ostringstream out;
  out << kRecipeMagic << "\n";
  out << "backend " << kRecipeBackend << "\n";
  out << "seed " << config.seed << "\n";
  out << "lsh_tables " << kLshTables << "\n";
  out << "lsh_bits " << kRecipeLshBits << "\n";
  out << "lsh_probes " << config.lsh_probes << "\n";
  out << "hnsw_degree " << kLegacyHnswDegree << "\n";
  out << "hnsw_ef_construction " << kLegacyHnswEfConstruction << "\n";
  out << "hnsw_ef_search " << kLegacyHnswEfSearch << "\n";
  out << "rows " << index.base().rows() << "\n";
  out << "dim " << index.dim() << "\n";
  char fp[16];
  std::snprintf(fp, sizeof(fp), "%08x", AnnIndexFingerprint(index));
  out << "fingerprint " << fp << "\n";
  out << "end\n";
  return out.str();
}

Result<std::unique_ptr<AnnIndex>> RebuildAnnIndex(const std::string& payload,
                                                  Matrix base,
                                                  const RunContext& ctx,
                                                  const std::string& context,
                                                  AnnConfig* config_out) {
  std::istringstream in(payload);
  std::string tok;
  if (!(in >> tok) || tok != kRecipeMagic) {
    return Status::IOError("not an ANN recipe (bad magic) in " + context);
  }
  AnnConfig config;
  int64_t rows = -1, dim = -1;
  std::string fingerprint_hex;
  auto read_kv = [&](const char* key, auto* value) -> Status {
    if (!(in >> tok) || tok != key || !(in >> *value)) {
      return Status::IOError("expected '" + std::string(key) + " <value>' in " +
                             context);
    }
    return Status::OK();
  };
  // Every fixed field is checked as soon as it is read, before anything
  // is allocated from it.
  auto read_fixed = [&](const char* key, int64_t want) -> Status {
    int64_t value = 0;
    GALIGN_RETURN_NOT_OK(read_kv(key, &value));
    if (value != want) {
      return Status::IOError("ANN recipe field " + std::string(key) + " = " +
                             std::to_string(value) + " in " + context +
                             " (must be " + std::to_string(want) + ")");
    }
    return Status::OK();
  };
  std::string backend_name;
  GALIGN_RETURN_NOT_OK(read_kv("backend", &backend_name));
  if (backend_name != kRecipeBackend) {
    return Status::IOError("ANN recipe field backend = '" + backend_name +
                           "' in " + context +
                           " (only 'lsh' is built; the HNSW backend was "
                           "retired)");
  }
  GALIGN_RETURN_NOT_OK(read_kv("seed", &config.seed));
  GALIGN_RETURN_NOT_OK(read_fixed("lsh_tables", kLshTables));
  GALIGN_RETURN_NOT_OK(read_fixed("lsh_bits", kRecipeLshBits));
  GALIGN_RETURN_NOT_OK(read_kv("lsh_probes", &config.lsh_probes));
  int64_t legacy_hnsw = 0;  // read to keep the layout, then discarded
  GALIGN_RETURN_NOT_OK(read_kv("hnsw_degree", &legacy_hnsw));
  GALIGN_RETURN_NOT_OK(read_kv("hnsw_ef_construction", &legacy_hnsw));
  GALIGN_RETURN_NOT_OK(read_kv("hnsw_ef_search", &legacy_hnsw));
  GALIGN_RETURN_NOT_OK(read_kv("rows", &rows));
  GALIGN_RETURN_NOT_OK(read_kv("dim", &dim));
  GALIGN_RETURN_NOT_OK(read_kv("fingerprint", &fingerprint_hex));
  if (!(in >> tok) || tok != "end") {
    return Status::IOError("missing 'end' sentinel in ANN recipe " + context);
  }
  if (fingerprint_hex.size() != 8 ||
      fingerprint_hex.find_first_not_of("0123456789abcdef") !=
          std::string::npos) {
    return Status::IOError("bad ANN fingerprint '" + fingerprint_hex +
                           "' in " + context);
  }
  if (rows != base.rows() || dim != base.cols()) {
    return Status::IOError(
        "ANN recipe shape mismatch in " + context + ": recipe says " +
        std::to_string(rows) + "x" + std::to_string(dim) + ", base rows are " +
        std::to_string(base.rows()) + "x" + std::to_string(base.cols()));
  }
  const uint32_t want =
      static_cast<uint32_t>(std::strtoul(fingerprint_hex.c_str(), nullptr, 16));

  auto index = BuildAnnIndex(std::move(base), config, ctx);
  GALIGN_RETURN_NOT_OK(index.status());
  const uint32_t got = AnnIndexFingerprint(*index.ValueOrDie());
  if (got != want) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "ANN fingerprint mismatch (saved %08x, rebuilt %08x) in ",
                  want, got);
    return Status::IOError(std::string(buf) + context);
  }
  if (config_out != nullptr) *config_out = config;
  return index;
}

}  // namespace galign
