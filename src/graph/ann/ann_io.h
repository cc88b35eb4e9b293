// Serialize / deserialize an AnnIndex (DESIGN.md §12).
//
// The LSH index is a deterministic pure function of (base rows, config) —
// the DESIGN.md §11 reproducibility contract — so the durable form of an
// index is its *recipe*: the AnnConfig (seed, probe count), the expected
// shape, and a behavioral fingerprint (a CRC32 over the results of a fixed
// probe query batch). The recipe layout (galign-ann-recipe-v1) also keeps
// fixed backend, table, bit-width and legacy HNSW lines so its bytes match
// earlier builds. Deserialization re-runs the seeded build over the
// caller's base rows and then verifies the fingerprint, rejecting with a
// typed IOError when the rebuilt index answers differently than the one
// that was saved (wrong base rows, config drift, or a build that stopped
// being deterministic). This keeps artifacts small — the base embedding
// rows are stored once by the containing artifact, not duplicated inside
// the index section — while still giving load-time verify-or-reject
// semantics over the retrieval structure itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/run_context.h"
#include "common/status.h"
#include "graph/ann/ann_index.h"
#include "la/matrix.h"

namespace galign {

/// \brief Behavioral fingerprint of `index`: CRC32 over the exact results
/// (indices + IEEE-754 score bits) of a fixed probe batch — the first
/// min(16, size) base rows queried with k = min(8, size).
///
/// Two indices with equal fingerprints answer the probe batch identically;
/// a rebuilt index with a differing fingerprint is not the index that was
/// saved.
uint32_t AnnIndexFingerprint(const AnnIndex& index);

/// \brief Serializes the recipe (config + shape + fingerprint) of `index`
/// built under `config`. Text payload, no CRC trailer — the containing
/// artifact is responsible for durability framing.
std::string SerializeAnnRecipe(const AnnIndex& index, const AnnConfig& config);

/// \brief Rebuilds the index described by `payload` over `base` and
/// verifies it.
///
/// Fails with IOError when the payload is malformed, names a backend other
/// than lsh, carries a table count or bit width other than the fixed ones
/// (checked before anything is allocated), the shape disagrees with
/// `base`, or the rebuilt index's fingerprint differs from the saved one.
/// `context` names the source in error messages. Budget admission and
/// deadlines apply through `ctx` exactly as in BuildAnnIndex. On success a
/// non-null `config` receives the recipe's AnnConfig, so the caller can
/// serialize the rebuilt index to the same recipe again.
[[nodiscard]] Result<std::unique_ptr<AnnIndex>> RebuildAnnIndex(
    const std::string& payload, Matrix base, const RunContext& ctx,
    const std::string& context, AnnConfig* config = nullptr);

}  // namespace galign
