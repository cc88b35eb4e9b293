// Continuous-availability artifact rotation (DESIGN.md §13).
//
// ArtifactWatcher turns AlignServer's one-artifact-for-life deployment into
// a zero-downtime loop: it polls an AlignmentIndexStore for generations
// newer than the one being served, loads each candidate into a
// **quarantine** stage, and only publishes it — one pointer swap via
// AlignServer::SwapIndex — after the candidate passes validation:
//
//   detect   — a new `aidx_<gen>` appeared (a directory scan);
//   load     — CRC + verify-or-reject Parse under the watcher's own memory
//              admission, so a candidate can never OOM live serving;
//   validate — ANN behavioral-fingerprint probe replay, an anchor-table
//              spot check (the precomputed table must agree with what the
//              rebuilt ANN index actually answers), and a bounded-latency
//              smoke query;
//   publish  — SwapIndex + last-good pin + retention pass;
//   retire   — the old generation drains as its in-flight requests finish
//              (each Pending holds its own reference).
//
// A candidate that fails any stage is recorded on the **poisoned list**
// with a typed QuarantineReason and is never retried — the watcher skips
// known-bad generations instead of hot-looping on them, keeps serving
// last-good, and surfaces every rejection through Health(). Fault sites:
// "serve.swap.detect", "serve.swap.validate", "serve.swap.publish".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "serve/alignment_index.h"
#include "serve/server.h"

namespace galign {

/// Why a candidate generation was refused publication. One reason per
/// poisoned generation; `--health` prints the name plus a detail string.
enum class QuarantineReason : int8_t {
  kLoadFailed,           ///< unreadable / torn CRC / Parse rejected
  kMemoryBudget,         ///< candidate did not fit the swap memory budget
  kFingerprintMismatch,  ///< ANN probe replay disagreed with the recorded
                         ///< behavioral fingerprint
  kAnchorMismatch,       ///< anchor-table spot check disagreed with the ANN
  kSmokeLatency,         ///< smoke query exceeded the latency bound
  kValidateFault,        ///< injected "serve.swap.validate" fault
  kPublishFault,         ///< injected "serve.swap.publish" fault
};
const char* QuarantineReasonName(QuarantineReason reason);

/// One poisoned generation: never retried until the process restarts.
struct QuarantineRecord {
  int generation = 0;
  QuarantineReason reason = QuarantineReason::kLoadFailed;
  std::string detail;
};

/// Where the watcher currently is with a candidate.
enum class CandidatePhase : int8_t { kIdle, kLoading, kValidating, kPublishing };
const char* CandidatePhaseName(CandidatePhase phase);

/// One completed swap, oldest first in SwapHealth::swaps.
struct SwapEvent {
  int64_t from_generation = 0;
  int64_t to_generation = 0;
  /// Detect-to-publish time: what quarantine (load + validate) cost.
  double quarantine_ms = 0.0;
};

/// Readiness/health snapshot assembled by ArtifactWatcher::Health().
struct SwapHealth {
  bool ready = false;               ///< a valid generation is being served
  int64_t serving_generation = 0;   ///< generation answering new admissions
  int newest_seen_generation = 0;   ///< newest generation ever detected
  CandidatePhase candidate_phase = CandidatePhase::kIdle;
  int candidate_generation = 0;     ///< 0 when no candidate is in quarantine
  std::vector<QuarantineRecord> quarantined;  ///< poisoned list, ascending
  std::vector<SwapEvent> swaps;               ///< swap history, oldest first
  int64_t queue_depth = 0;
  ServerStats stats;                ///< shed counts, completions, swaps
};

/// Human-readable multi-line rendering (galign_serve --health / `health`).
std::string FormatHealth(const SwapHealth& health);

struct SwapConfig {
  /// Background detect cadence.
  double poll_interval_ms = 50.0;
  /// Anchor-table rows replayed against the ANN during validation.
  int spot_check_rows = 4;
  /// Upper bound on the full-effort smoke query; slower candidates are
  /// quarantined (kSmokeLatency) — a "valid" artifact that answers 100×
  /// slower than last-good is an outage, not an upgrade.
  double smoke_latency_ms = 1000.0;
  /// Memory admission for the quarantine overlap window, when both the old
  /// and the candidate artifact are alive. Null = unbounded.
  std::shared_ptr<MemoryBudget> budget;
  /// Bounded history: oldest swap events beyond this are dropped.
  size_t max_history = 64;
};

/// Outcome of the quarantine validation stage alone.
struct ValidationOutcome {
  bool ok = false;
  QuarantineReason reason = QuarantineReason::kLoadFailed;
  std::string detail;
  double latency_ms = 0.0;  ///< validation wall time (probes + smoke)
};

/// \brief Runs the quarantine validation battery against a loaded
/// candidate: fingerprint probe replay, anchor spot check, smoke query.
///
/// Pure function of the index + config — `galign_serve --health` uses it to
/// report per-generation verdicts without a live server.
ValidationOutcome ValidateCandidate(const AlignmentIndex& index,
                                    const SwapConfig& config);

/// \brief Generation watcher + quarantine state machine over one server.
///
/// Start() spawns the polling thread; PollOnce() drives one full
/// detect → quarantine → validate → publish pass synchronously (tests and
/// the chaos drill call it directly for determinism — it is safe to call
/// concurrently with the background thread, passes are serialized). The
/// watcher never takes the server's lock while loading or validating, so
/// serving latency is unaffected by a candidate in quarantine.
class ArtifactWatcher {
 public:
  ArtifactWatcher(AlignServer* server, AlignmentIndexStore* store,
                  SwapConfig config = SwapConfig{});
  ~ArtifactWatcher();

  ArtifactWatcher(const ArtifactWatcher&) = delete;
  ArtifactWatcher& operator=(const ArtifactWatcher&) = delete;

  /// Spawns the background polling thread. Idempotent.
  void Start();
  /// Stops and joins the polling thread. Idempotent.
  void Stop();

  /// \brief One synchronous watcher pass. Returns true when a new
  /// generation was published to the server.
  bool PollOnce();

  /// True when `generation` failed quarantine and will never be retried.
  bool IsPoisoned(int generation) const;

  SwapHealth Health() const;

 private:
  void ThreadLoop();
  void Quarantine(int generation, QuarantineReason reason,
                  std::string detail);
  /// Highest non-poisoned generation in (serving, newest], or 0.
  int PickCandidateLocked(int newest, int64_t serving) const;

  AlignServer* server_;
  AlignmentIndexStore* store_;
  SwapConfig config_;

  /// Serializes watcher passes (background thread vs direct PollOnce).
  std::mutex poll_mu_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;                         // galign: guarded_by(mu_)
  bool stopping_ = false;                        // galign: guarded_by(mu_)
  int newest_seen_ = 0;                          // galign: guarded_by(mu_)
  CandidatePhase phase_ = CandidatePhase::kIdle;  // galign: guarded_by(mu_)
  int candidate_ = 0;                            // galign: guarded_by(mu_)
  std::map<int, QuarantineRecord> poisoned_;     // galign: guarded_by(mu_)
  std::vector<SwapEvent> swaps_;                 // galign: guarded_by(mu_)
};

}  // namespace galign
