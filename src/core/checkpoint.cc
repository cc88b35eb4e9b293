#include "core/checkpoint.h"

#include <sstream>
#include <utility>

#include "common/durable_io.h"
#include "common/fault.h"
#include "core/model_io.h"

namespace galign {

namespace {

constexpr char kMagic[] = "galign-ckpt-v1";
constexpr char kManifestMagic[] = "galign-ckpt-manifest-v1";

// Doubles are stored bit-exactly through the common/durable_io.h hex codec
// (HexDouble / AppendHexDoubles / ParseHexDoubles); matrix lists go through
// the shared core/model_io.h EmitMatrixList / ParseMatrixList encoding.

}  // namespace

std::string SerializeCheckpoint(const TrainerCheckpoint& ckpt) {
  std::string out;
  auto line = [&out](const char* key, const std::string& value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  };
  out += kMagic;
  out += '\n';
  line("epoch", std::to_string(ckpt.epoch));
  line("lr", HexDouble(ckpt.lr));
  line("adam_step", std::to_string(ckpt.adam_step));
  line("snapshot_loss", HexDouble(ckpt.snapshot_loss));
  line("best_loss", HexDouble(ckpt.best_loss));
  line("epochs_without_improvement",
       std::to_string(ckpt.epochs_without_improvement));
  line("epochs_run", std::to_string(ckpt.epochs_run));
  line("steps_applied", std::to_string(ckpt.steps_applied));
  line("rollbacks", std::to_string(ckpt.rollbacks));
  out += "rollback_epochs ";
  out += std::to_string(ckpt.rollback_epochs.size());
  for (int e : ckpt.rollback_epochs) {
    out += ' ';
    out += std::to_string(e);
  }
  out += '\n';
  line("final_lr", HexDouble(ckpt.final_lr));
  line("final_loss", HexDouble(ckpt.final_loss));
  out += "loss_history ";
  out += std::to_string(ckpt.loss_history.size());
  if (ckpt.loss_history.empty()) {
    out += '\n';
  } else {
    out += ' ';
    AppendHexDoubles(&out, ckpt.loss_history.data(), ckpt.loss_history.size(),
                     /*per_line=*/0);
  }
  // mt19937_64 serializes to whitespace-separated integers; token count is
  // recorded so the parser knows how many to consume.
  {
    std::istringstream count_rng(ckpt.rng_state);
    std::string tok;
    size_t n = 0;
    while (count_rng >> tok) ++n;
    line("rng", n ? std::to_string(n) + ' ' + ckpt.rng_state : "0");
  }
  EmitMatrixList(&out, "weights", ckpt.weights);
  EmitMatrixList(&out, "adam_m", ckpt.adam_m);
  EmitMatrixList(&out, "adam_v", ckpt.adam_v);
  EmitMatrixList(&out, "snapshot", ckpt.snapshot);
  out += "end\n";
  return out;
}

Result<TrainerCheckpoint> ParseCheckpoint(std::string payload,
                                          const std::string& context) {
  std::istringstream in(std::move(payload));
  std::string tok;
  if (!(in >> tok) || tok != kMagic) {
    return Status::IOError("not a galign checkpoint (bad magic) in " +
                           context);
  }
  TrainerCheckpoint ckpt;

  auto expect_key = [&](const char* key) -> Status {
    if (!(in >> tok) || tok != key) {
      return Status::IOError("expected '" + std::string(key) + "' in " +
                             context);
    }
    return Status::OK();
  };
  auto read_int = [&](const char* key, auto* value) -> Status {
    GALIGN_RETURN_NOT_OK(expect_key(key));
    if (!(in >> *value)) {
      return Status::IOError("bad integer for '" + std::string(key) +
                             "' in " + context);
    }
    return Status::OK();
  };
  auto read_double = [&](const char* key, double* value) -> Status {
    GALIGN_RETURN_NOT_OK(expect_key(key));
    return ParseHexDoubles(&in, value, 1, "at '" + std::string(key) + "'",
                           context);
  };

  GALIGN_RETURN_NOT_OK(read_int("epoch", &ckpt.epoch));
  GALIGN_RETURN_NOT_OK(read_double("lr", &ckpt.lr));
  GALIGN_RETURN_NOT_OK(read_int("adam_step", &ckpt.adam_step));
  GALIGN_RETURN_NOT_OK(read_double("snapshot_loss", &ckpt.snapshot_loss));
  GALIGN_RETURN_NOT_OK(read_double("best_loss", &ckpt.best_loss));
  GALIGN_RETURN_NOT_OK(read_int("epochs_without_improvement",
                                &ckpt.epochs_without_improvement));
  GALIGN_RETURN_NOT_OK(read_int("epochs_run", &ckpt.epochs_run));
  GALIGN_RETURN_NOT_OK(read_int("steps_applied", &ckpt.steps_applied));
  GALIGN_RETURN_NOT_OK(read_int("rollbacks", &ckpt.rollbacks));

  size_t count = 0;
  GALIGN_RETURN_NOT_OK(read_int("rollback_epochs", &count));
  if (count > 1u << 20) {
    return Status::IOError("absurd rollback_epochs count in " + context);
  }
  ckpt.rollback_epochs.resize(count);
  for (size_t i = 0; i < count; ++i) {
    if (!(in >> ckpt.rollback_epochs[i])) {
      return Status::IOError("truncated rollback_epochs in " + context);
    }
  }

  GALIGN_RETURN_NOT_OK(read_double("final_lr", &ckpt.final_lr));
  GALIGN_RETURN_NOT_OK(read_double("final_loss", &ckpt.final_loss));

  GALIGN_RETURN_NOT_OK(read_int("loss_history", &count));
  if (count > 1u << 24) {
    return Status::IOError("absurd loss_history count in " + context);
  }
  ckpt.loss_history.resize(count);
  GALIGN_RETURN_NOT_OK(ParseHexDoubles(&in, ckpt.loss_history.data(), count,
                                       "loss_history", context));

  GALIGN_RETURN_NOT_OK(read_int("rng", &count));
  if (count > 1u << 16) {
    return Status::IOError("absurd rng token count in " + context);
  }
  {
    std::ostringstream rng;
    for (size_t i = 0; i < count; ++i) {
      if (!(in >> tok)) {
        return Status::IOError("truncated rng state in " + context);
      }
      if (i) rng << " ";
      rng << tok;
    }
    ckpt.rng_state = rng.str();
  }

  GALIGN_RETURN_NOT_OK(ParseMatrixList(&in, "weights", &ckpt.weights, context));
  GALIGN_RETURN_NOT_OK(ParseMatrixList(&in, "adam_m", &ckpt.adam_m, context));
  GALIGN_RETURN_NOT_OK(ParseMatrixList(&in, "adam_v", &ckpt.adam_v, context));
  GALIGN_RETURN_NOT_OK(
      ParseMatrixList(&in, "snapshot", &ckpt.snapshot, context));

  if (!(in >> tok) || tok != "end") {
    return Status::IOError("missing 'end' sentinel in " + context);
  }
  return ckpt;
}

CheckpointManager::CheckpointManager(std::string dir, int keep)
    : store_(std::move(dir), "ckpt_", kManifestMagic, "checkpoint", keep) {}

Status CheckpointManager::Save(const TrainerCheckpoint& ckpt) {
  if (fault::ShouldFailIO("io.checkpoint.save")) {
    return Status::IOError("injected fault: checkpoint save to " +
                           store_.dir());
  }
  return store_.Write(ckpt.epoch, SerializeCheckpoint(ckpt));
}

Result<TrainerCheckpoint> CheckpointManager::LoadLatest() const {
  return store_.LoadNewest([this](int epoch) -> Result<TrainerCheckpoint> {
    const std::string path = store_.PathOf(epoch);
    if (fault::ShouldFailIO("io.checkpoint.load")) {
      return Status::IOError("injected fault: checkpoint load from " + path);
    }
    auto payload = store_.Read(epoch);
    GALIGN_RETURN_NOT_OK(payload.status());
    return ParseCheckpoint(payload.MoveValueOrDie(), path);
  });
}

}  // namespace galign
