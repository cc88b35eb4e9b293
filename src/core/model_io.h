// Persistence for trained GCN models: train once, reuse across processes
// (e.g. embed new snapshots of the same networks, or serve alignment
// queries without retraining). Plain-text format with a header carrying the
// architecture so loading validates shape compatibility.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/gcn.h"
#include "la/matrix.h"

namespace galign {

/// \brief Appends `key <count>` then each matrix as `rows cols` + hex-encoded
/// (bit-exact) doubles, 8 per line — the shared durable matrix-list
/// encoding used by trainer checkpoints and the serving artifact.
void EmitMatrixList(std::string* out, const char* key,
                    const std::vector<Matrix>& ms);

/// \brief Inverse of EmitMatrixList; matrix bodies go through
/// ParseHexDoubles. Every defect (wrong key, absurd or overflowing shape,
/// truncated or malformed payload) is an IOError naming `context`.
[[nodiscard]] Status ParseMatrixList(std::istringstream* in, const char* key,
                                     std::vector<Matrix>* out,
                                     const std::string& context);

/// Serializes the model architecture + weights to the galign-gcn-v1 text
/// payload (no CRC trailer). The string form exists so containers — the
/// serving AlignmentIndex artifact (DESIGN.md §12) — can embed a model
/// inside a larger durable file instead of managing a sidecar path.
std::string SerializeGcnModel(const MultiOrderGcn& gcn);

/// Parses a galign-gcn-v1 payload (trailer already stripped). `context`
/// names the source in error messages (a path, or "artifact <p> model
/// section").
[[nodiscard]] Result<MultiOrderGcn> ParseGcnModel(const std::string& payload,
                                                  const std::string& context);

/// Writes the model architecture + weights to `path` (CRC-trailed,
/// atomically renamed into place).
[[nodiscard]] Status SaveGcnModel(const MultiOrderGcn& gcn, const std::string& path);

/// Reads a model written by SaveGcnModel. The activation is restored from
/// the header.
[[nodiscard]] Result<MultiOrderGcn> LoadGcnModel(const std::string& path);

}  // namespace galign
