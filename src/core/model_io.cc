#include "core/model_io.h"

#include <cmath>
#include <sstream>

#include "common/durable_io.h"
#include "common/fault.h"
#include "common/parse.h"

namespace galign {

namespace {

const char* ActivationName(Activation a) {
  switch (a) {
    case Activation::kTanh:
      return "tanh";
    case Activation::kRelu:
      return "relu";
    case Activation::kLinear:
      return "linear";
  }
  return "tanh";
}

Result<Activation> ParseActivation(const std::string& name) {
  if (name == "tanh") return Activation::kTanh;
  if (name == "relu") return Activation::kRelu;
  if (name == "linear") return Activation::kLinear;
  return Status::IOError("unknown activation: " + name);
}

}  // namespace

void EmitMatrixList(std::string* out, const char* key,
                    const std::vector<Matrix>& ms) {
  *out += key;
  *out += ' ';
  *out += std::to_string(ms.size());
  *out += '\n';
  for (const Matrix& m : ms) {
    *out += std::to_string(m.rows());
    *out += ' ';
    *out += std::to_string(m.cols());
    *out += '\n';
    AppendHexDoubles(out, m.data(), static_cast<size_t>(m.size()), 8);
  }
}

Status ParseMatrixList(std::istringstream* in, const char* key,
                       std::vector<Matrix>* out, const std::string& context) {
  std::string tok;
  size_t count = 0;
  if (!(*in >> tok) || tok != key || !(*in >> count) || count > 4096) {
    return Status::IOError("expected '" + std::string(key) +
                           " <count>' in " + context);
  }
  out->clear();
  out->reserve(count);
  for (size_t k = 0; k < count; ++k) {
    int64_t rows = -1, cols = -1;
    // Shape caps bound the allocation a corrupt header could request
    // before any payload validation runs.
    if (!(*in >> rows >> cols) || rows < 0 || cols < 0 ||
        rows > (int64_t{1} << 30) || cols > (int64_t{1} << 30) ||
        rows * cols > (int64_t{1} << 32)) {
      return Status::IOError("bad matrix shape under '" + std::string(key) +
                             "' in " + context);
    }
    Matrix m(rows, cols);
    GALIGN_RETURN_NOT_OK(ParseHexDoubles(
        in, m.data(), static_cast<size_t>(m.size()),
        "matrix under '" + std::string(key) + "'", context));
    out->push_back(std::move(m));
  }
  return Status::OK();
}

std::string SerializeGcnModel(const MultiOrderGcn& gcn) {
  std::ostringstream out;
  out.precision(17);
  out << "galign-gcn-v1 layers=" << gcn.num_layers()
      << " input_dim=" << gcn.input_dim()
      << " embedding_dim=" << gcn.embedding_dim() << " activation="
      << ActivationName(gcn.activation()) << "\n";
  for (const Matrix& w : gcn.weights()) {
    out << w.rows() << " " << w.cols() << "\n";
    for (int64_t r = 0; r < w.rows(); ++r) {
      for (int64_t c = 0; c < w.cols(); ++c) {
        if (c) out << " ";
        out << w(r, c);
      }
      out << "\n";
    }
  }
  return out.str();
}

Status SaveGcnModel(const MultiOrderGcn& gcn, const std::string& path) {
  // CRC trailer + temp-and-rename: a crash mid-save leaves either the old
  // model or nothing, never a torn file that LoadGcnModel would half-parse.
  return AtomicWriteFile(path, AppendCrc32Trailer(SerializeGcnModel(gcn)));
}

Result<MultiOrderGcn> LoadGcnModel(const std::string& path) {
  // Transient faults (injected or real EINTR-class hiccups) get a bounded,
  // jittered retry; everything past the raw read is deterministic parsing
  // that retrying could never fix.
  auto content =
      RetryTransientResult(RetryPolicy{}, [&]() -> Result<std::string> {
        if (fault::ShouldFailIO("io.model.load")) {
          return Status::IOError("injected fault: cannot read model file " +
                                 path);
        }
        return ReadFileToString(path);
      });
  GALIGN_RETURN_NOT_OK(content.status());
  // Legacy files predate the trailer, so it is optional; when present it
  // must verify.
  auto payload = StripAndVerifyCrc32Trailer(content.ValueOrDie(),
                                            /*require_trailer=*/false, path);
  GALIGN_RETURN_NOT_OK(payload.status());
  return ParseGcnModel(payload.ValueOrDie(), path);
}

Result<MultiOrderGcn> ParseGcnModel(const std::string& payload,
                                    const std::string& context) {
  const std::string& path = context;
  std::istringstream in(payload);
  std::string header;
  if (!std::getline(in, header)) {
    return Status::IOError("empty model file: " + path);
  }
  std::istringstream hs(header);
  std::string magic;
  hs >> magic;
  if (magic != "galign-gcn-v1") {
    return Status::IOError("not a galign model file (bad magic '" + magic +
                           "'): " + path);
  }
  int64_t layers = 0, input_dim = 0, embedding_dim = 0;
  std::string activation_name = "tanh";
  std::string field;
  while (hs >> field) {
    auto eq = field.find('=');
    if (eq == std::string::npos) continue;
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    if (key == "activation") {
      activation_name = value;
      continue;
    }
    if (key == "layers" || key == "input_dim" || key == "embedding_dim") {
      auto parsed = ParseInt64(value, key.c_str());
      if (!parsed.ok()) {
        return Status::IOError("bad model header in " + path + ": " +
                               parsed.status().message());
      }
      if (key == "layers") layers = parsed.ValueOrDie();
      if (key == "input_dim") input_dim = parsed.ValueOrDie();
      if (key == "embedding_dim") embedding_dim = parsed.ValueOrDie();
    }
  }
  // The layer cap guards against allocating absurd amounts of memory off a
  // corrupt header before the per-layer shape checks would catch it.
  if (layers < 1 || layers > 1024 || input_dim < 1 || embedding_dim < 1) {
    return Status::IOError("malformed model header (expected layers in "
                           "[1, 1024] and positive dims) in " +
                           path + ": " + header);
  }
  auto activation = ParseActivation(activation_name);
  GALIGN_RETURN_NOT_OK(activation.status());

  Rng rng(0);  // weights are overwritten below
  MultiOrderGcn gcn(static_cast<int>(layers), input_dim, embedding_dim, &rng,
                    activation.ValueOrDie());
  for (int64_t l = 0; l < layers; ++l) {
    int64_t rows, cols;
    if (!(in >> rows >> cols)) {
      return Status::IOError("truncated model file (missing shape of layer " +
                             std::to_string(l) + "): " + path);
    }
    Matrix& w = gcn.weights()[l];
    if (rows != w.rows() || cols != w.cols()) {
      return Status::IOError(
          "layer " + std::to_string(l) + " shape mismatch in " + path +
          ": file says " + std::to_string(rows) + "x" + std::to_string(cols) +
          ", header implies " + std::to_string(w.rows()) + "x" +
          std::to_string(w.cols()));
    }
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        std::string tok;
        if (!(in >> tok)) {
          return Status::IOError("truncated model file (layer " +
                                 std::to_string(l) + ", weight (" +
                                 std::to_string(r) + ", " +
                                 std::to_string(c) + ")): " + path);
        }
        auto v = ParseDouble(tok, "weight");
        if (!v.ok()) {
          return Status::IOError("layer " + std::to_string(l) + ", weight (" +
                                 std::to_string(r) + ", " +
                                 std::to_string(c) + ") in " + path + ": " +
                                 v.status().message());
        }
        if (!std::isfinite(v.ValueOrDie())) {
          return Status::IOError("non-finite weight at layer " +
                                 std::to_string(l) + ", (" +
                                 std::to_string(r) + ", " +
                                 std::to_string(c) + ") in " + path);
        }
        w(r, c) = v.ValueOrDie();
      }
    }
  }
  std::string trailing;
  if (in >> trailing) {
    return Status::IOError("trailing data after last layer ('" + trailing +
                           "' ...) in " + path);
  }
  return gcn;
}

}  // namespace galign
