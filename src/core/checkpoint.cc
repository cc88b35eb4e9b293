#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/durable_io.h"
#include "common/fault.h"
#include "common/logging.h"
#include "core/model_io.h"

namespace galign {

namespace {

constexpr char kMagic[] = "galign-ckpt-v1";
constexpr char kManifestMagic[] = "galign-ckpt-manifest-v1";
constexpr char kManifestName[] = "MANIFEST";
constexpr char kCkptPrefix[] = "ckpt_";

// Doubles are stored bit-exactly through the common/durable_io.h hex codec
// (HexDouble / AppendHexDoubles / ParseHexDoubles); matrix lists go through
// the shared core/model_io.h EmitMatrixList / ParseMatrixList encoding.

std::string CheckpointFileName(int epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08d", kCkptPrefix, epoch);
  return buf;
}

// Epoch encoded in a checkpoint filename, or -1 when the name does not
// match ckpt_<digits>.
int EpochOfFileName(const std::string& name) {
  const size_t prefix_len = sizeof(kCkptPrefix) - 1;
  if (name.compare(0, prefix_len, kCkptPrefix) != 0) return -1;
  const std::string digits = name.substr(prefix_len);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return -1;
  }
  return static_cast<int>(std::strtol(digits.c_str(), nullptr, 10));
}

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
    : dir_(std::move(dir)), keep_(keep < 1 ? 1 : keep) {}

std::string CheckpointManager::ManifestPath() const {
  return dir_ + "/" + kManifestName;
}

Status CheckpointManager::Save(const TrainerCheckpoint& ckpt) {
  if (fault::ShouldFailIO("io.checkpoint.save")) {
    return Status::IOError("injected fault: checkpoint save to " + dir_);
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint dir " + dir_ + ": " +
                           ec.message());
  }

  const std::string name = CheckpointFileName(ckpt.epoch);
  GALIGN_RETURN_NOT_OK(AtomicWriteFile(
      dir_ + "/" + name, AppendCrc32Trailer(SerializeCheckpoint(ckpt))));

  // Shared retention pass (common/durable_io.h): keep-last-N CRC-valid
  // checkpoints, never the pinned (last-resumed) epoch, GC torn files.
  auto report = ApplyGenerationRetention(dir_, kManifestMagic, EpochOfFileName,
                                         keep_, pinned_.load());
  GALIGN_RETURN_NOT_OK(report.status());
  for (const std::string& torn : report.ValueOrDie().torn_removed) {
    GALIGN_LOG(Warning) << "Checkpoint " << dir_ << "/" << torn
                        << " failed its CRC; garbage-collected";
  }
  return Status::OK();
}

std::vector<std::string> CheckpointManager::Candidates() const {
  // Preferred source: the manifest (it reflects save order even if epoch
  // numbering ever changes). A missing/corrupt manifest degrades to a
  // directory scan — the checkpoint files are self-validating anyway.
  auto content = ReadFileToString(ManifestPath());
  if (content.ok()) {
    auto payload = StripAndVerifyCrc32Trailer(
        content.MoveValueOrDie(), /*require_trailer=*/true, ManifestPath());
    if (payload.ok()) {
      std::istringstream in(payload.ValueOrDie());
      std::string tok;
      if (in >> tok && tok == kManifestMagic) {
        std::vector<std::string> names;
        while (in >> tok) {
          if (EpochOfFileName(tok) >= 0) names.push_back(tok);
        }
        if (!names.empty()) return names;
      }
    } else {
      GALIGN_LOG(Warning) << "Checkpoint manifest unreadable ("
                          << payload.status().message()
                          << "); falling back to directory scan";
    }
  }
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string fname = entry.path().filename().string();
    if (EpochOfFileName(fname) >= 0) names.push_back(fname);
  }
  std::sort(names.begin(), names.end(), [](const auto& a, const auto& b) {
    return EpochOfFileName(a) > EpochOfFileName(b);
  });
  return names;
}

Result<TrainerCheckpoint> CheckpointManager::LoadLatest() const {
  // "Nothing saved yet" (NotFound) and "everything saved is torn" (IOError)
  // are different failures: the first is a normal cold start, the second
  // means durable state was lost and the caller must not silently retrain
  // as if from scratch without surfacing it.
  int tried = 0;
  std::string newest_error;
  auto note = [&](const std::string& msg) {
    if (tried == 1) newest_error = msg;
  };
  for (const std::string& name : Candidates()) {
    const std::string path = dir_ + "/" + name;
    ++tried;
    if (fault::ShouldFailIO("io.checkpoint.load")) {
      GALIGN_LOG(Warning) << "Checkpoint " << path
                          << " unreadable (injected fault); trying previous";
      note("injected fault: checkpoint load from " + path);
      continue;
    }
    auto content = ReadFileToString(path);
    if (!content.ok()) {
      GALIGN_LOG(Warning) << "Checkpoint " << path << " unreadable ("
                          << content.status().message()
                          << "); trying previous";
      note(content.status().message());
      continue;
    }
    auto payload = StripAndVerifyCrc32Trailer(content.MoveValueOrDie(),
                                              /*require_trailer=*/true, path);
    if (!payload.ok()) {
      GALIGN_LOG(Warning) << "Checkpoint " << path << " failed validation ("
                          << payload.status().message()
                          << "); trying previous";
      note(payload.status().message());
      continue;
    }
    auto ckpt = ParseCheckpoint(payload.MoveValueOrDie(), path);
    if (!ckpt.ok()) {
      GALIGN_LOG(Warning) << "Checkpoint " << path << " corrupt ("
                          << ckpt.status().message() << "); trying previous";
      note(ckpt.status().message());
      continue;
    }
    // The resumed run depends on this file until its next successful save:
    // pin it so retention cannot prune it in the meantime.
    pinned_.store(EpochOfFileName(name));
    return ckpt;
  }
  if (tried > 0) {
    return Status::IOError("all " + std::to_string(tried) +
                           " checkpoint generations under " + dir_ +
                           " failed validation (newest error: " +
                           newest_error + ")");
  }
  return Status::NotFound("no checkpoint under " + dir_);
}

}  // namespace galign
