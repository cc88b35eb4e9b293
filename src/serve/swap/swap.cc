#include "serve/swap/swap.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/durable_io.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/ann/ann_io.h"

namespace galign {

namespace {

// Load failures carry their own typing: a budget trip during Parse is a
// memory-admission rejection, a tampered recipe fingerprint is a
// fingerprint mismatch, everything else (torn CRC, truncation, bad magic)
// is a plain load failure.
QuarantineReason ClassifyLoadFailure(const Status& status) {
  if (status.code() == StatusCode::kResourceExhausted) {
    return QuarantineReason::kMemoryBudget;
  }
  if (std::string(status.message()).find("fingerprint") != std::string::npos) {
    return QuarantineReason::kFingerprintMismatch;
  }
  return QuarantineReason::kLoadFailed;
}

}  // namespace

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kLoadFailed:
      return "load_failed";
    case QuarantineReason::kMemoryBudget:
      return "memory_budget";
    case QuarantineReason::kFingerprintMismatch:
      return "fingerprint_mismatch";
    case QuarantineReason::kAnchorMismatch:
      return "anchor_mismatch";
    case QuarantineReason::kSmokeLatency:
      return "smoke_latency";
    case QuarantineReason::kValidateFault:
      return "validate_fault";
    case QuarantineReason::kPublishFault:
      return "publish_fault";
  }
  return "unknown";
}

const char* CandidatePhaseName(CandidatePhase phase) {
  switch (phase) {
    case CandidatePhase::kIdle:
      return "idle";
    case CandidatePhase::kLoading:
      return "loading";
    case CandidatePhase::kValidating:
      return "validating";
    case CandidatePhase::kPublishing:
      return "publishing";
  }
  return "unknown";
}

ValidationOutcome ValidateCandidate(const AlignmentIndex& index,
                                    const SwapConfig& config) {
  ValidationOutcome out;
  Timer timer;

  // 1. Behavioral fingerprint probe replay: re-execute the fixed probe
  // batch against the candidate's ANN index, now, in this process, and
  // require the answers to hash to the recorded fingerprint. Parse already
  // verified the rebuilt index against the recipe; this replays the probes
  // at validation time as the publish-side proof.
  const uint32_t replayed = AnnIndexFingerprint(index.ann());
  if (replayed != index.ann_fingerprint()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "probe replay fingerprint %08x != recorded %08x", replayed,
                  index.ann_fingerprint());
    out.reason = QuarantineReason::kFingerprintMismatch;
    out.detail = buf;
    out.latency_ms = timer.Millis();
    return out;
  }

  // 2. Anchor-table spot check: the precomputed degraded-answer table must
  // agree with what the ANN actually answers at full effort. Parse only
  // checks the table's *shape*, so a bit-flipped anchor entry that
  // re-trailered its CRC gets past the loader — this is the stage that
  // catches it.
  const TopKAlignment& anchors = index.anchors();
  const int64_t rows = index.num_source();
  const int spots = std::max(1, config.spot_check_rows);
  for (int i = 0; i < spots; ++i) {
    const int64_t row = std::min<int64_t>(
        rows - 1, (static_cast<int64_t>(i) * rows) / spots);
    const Matrix query =
        index.queries().Block(row, 0, 1, index.queries().cols());
    auto got = index.ann().QueryBatch(query, anchors.k);
    if (!got.ok()) {
      out.reason = QuarantineReason::kAnchorMismatch;
      out.detail = "spot query for row " + std::to_string(row) +
                   " failed: " + std::string(got.status().message());
      out.latency_ms = timer.Millis();
      return out;
    }
    const TopKAlignment& answer = got.ValueOrDie();
    for (int64_t j = 0; j < anchors.k; ++j) {
      const int64_t want_id = anchors.index[row * anchors.k + j];
      const double want_score = anchors.score[row * anchors.k + j];
      const int64_t got_id = j < answer.k ? answer.index[j] : -1;
      const double got_score = j < answer.k ? answer.score[j] : 0.0;
      if (want_id != got_id ||
          (want_id >= 0 && want_score != got_score)) {
        std::ostringstream detail;
        detail << "anchor row " << row << " entry " << j << ": table ("
               << want_id << ", " << HexDouble(want_score) << ") vs ann ("
               << got_id << ", " << HexDouble(got_score) << ")";
        out.reason = QuarantineReason::kAnchorMismatch;
        out.detail = detail.str();
        out.latency_ms = timer.Millis();
        return out;
      }
      if (want_id < 0) break;
    }
  }

  // 3. Bounded-latency smoke query: one full-effort query timed on its
  // own. A candidate that validates correct but answers pathologically
  // slowly would turn the swap into an outage.
  Timer smoke;
  const Matrix query = index.queries().Block(0, 0, 1, index.queries().cols());
  auto smoke_got = index.ann().QueryBatch(query, std::min<int64_t>(
                                                     10, index.num_target()));
  const double smoke_ms = smoke.Millis();
  if (!smoke_got.ok()) {
    out.reason = QuarantineReason::kAnchorMismatch;
    out.detail =
        "smoke query failed: " + std::string(smoke_got.status().message());
    out.latency_ms = timer.Millis();
    return out;
  }
  if (smoke_ms > config.smoke_latency_ms) {
    std::ostringstream detail;
    detail << "smoke query took " << smoke_ms << " ms (bound "
           << config.smoke_latency_ms << " ms)";
    out.reason = QuarantineReason::kSmokeLatency;
    out.detail = detail.str();
    out.latency_ms = timer.Millis();
    return out;
  }

  out.ok = true;
  out.latency_ms = timer.Millis();
  return out;
}

std::string FormatHealth(const SwapHealth& health) {
  std::ostringstream out;
  out << "ready: " << (health.ready ? "yes" : "no") << "\n";
  out << "serving_generation: " << health.serving_generation << "\n";
  out << "newest_seen_generation: " << health.newest_seen_generation << "\n";
  out << "candidate: ";
  if (health.candidate_generation == 0) {
    out << "none\n";
  } else {
    out << "gen " << health.candidate_generation << " ("
        << CandidatePhaseName(health.candidate_phase) << ")\n";
  }
  out << "queue_depth: " << health.queue_depth << "\n";
  const ServerStats& s = health.stats;
  out << "stats: submitted=" << s.submitted << " admitted=" << s.admitted
      << " completed_full=" << s.completed_full
      << " completed_reduced_effort=" << s.completed_reduced_effort
      << " completed_anchor=" << s.completed_anchor
      << " deadline_exceeded=" << s.deadline_exceeded
      << " shed_queue_full=" << s.shed_queue_full
      << " shed_budget=" << s.shed_budget << " shed_fault=" << s.shed_fault
      << " shed_shutdown=" << s.shed_shutdown
      << " invalid_argument=" << s.invalid_argument << " swaps=" << s.swaps
      << "\n";
  out << "quarantined: " << health.quarantined.size() << "\n";
  for (const QuarantineRecord& q : health.quarantined) {
    out << "  gen " << q.generation << ": " << QuarantineReasonName(q.reason)
        << " — " << q.detail << "\n";
  }
  out << "swap_history: " << health.swaps.size() << "\n";
  for (const SwapEvent& e : health.swaps) {
    out << "  " << e.from_generation << " -> " << e.to_generation
        << " (quarantine " << e.quarantine_ms << " ms)\n";
  }
  return out.str();
}

ArtifactWatcher::ArtifactWatcher(AlignServer* server,
                                 AlignmentIndexStore* store, SwapConfig config)
    : server_(server), store_(store), config_(std::move(config)) {
  config_.poll_interval_ms = std::max(1.0, config_.poll_interval_ms);
}

ArtifactWatcher::~ArtifactWatcher() { Stop(); }

void ArtifactWatcher::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || stopping_) return;
  running_ = true;
  thread_ = std::thread([this] { ThreadLoop(); });
}

void ArtifactWatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  stopping_ = false;
}

void ArtifactWatcher::ThreadLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(config_.poll_interval_ms),
          [this] { return stopping_; });
      if (stopping_) return;
    }
    PollOnce();
  }
}

bool ArtifactWatcher::IsPoisoned(int generation) const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_.count(generation) > 0;
}

void ArtifactWatcher::Quarantine(int generation, QuarantineReason reason,
                                 std::string detail) {
  GALIGN_LOG(Warning) << "Artifact generation " << generation
                      << " quarantined (" << QuarantineReasonName(reason)
                      << "): " << detail;
  std::lock_guard<std::mutex> lock(mu_);
  poisoned_[generation] =
      QuarantineRecord{generation, reason, std::move(detail)};
  phase_ = CandidatePhase::kIdle;
  candidate_ = 0;
}

int ArtifactWatcher::PickCandidateLocked(int newest, int64_t serving) const {
  // Newest-first so a good publication behind a bad one still lands: a
  // poisoned gen 7 must not stop gen 6 from being served.
  for (int gen = newest; gen > serving; --gen) {
    if (poisoned_.count(gen) == 0) return gen;
  }
  return 0;
}

bool ArtifactWatcher::PollOnce() {
  // One pass at a time: the background thread and a direct caller (tests,
  // chaos drill) must not both be mid-quarantine.
  std::lock_guard<std::mutex> poll_lock(poll_mu_);

  // A detect fault models a failed directory scan: skip this pass, next
  // poll retries — detection has no candidate to poison.
  if (fault::ShouldFailIO("serve.swap.detect")) return false;

  const int newest = store_->NewestGeneration();
  const int64_t serving = server_->serving_generation();
  int candidate = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    newest_seen_ = std::max(newest_seen_, newest);
    candidate = PickCandidateLocked(newest, serving);
    if (candidate != 0) {
      phase_ = CandidatePhase::kLoading;
      candidate_ = candidate;
    }
  }
  if (candidate == 0) return false;

  Timer quarantine_timer;

  // Quarantine load, under the watcher's own memory admission: during
  // validation the old and new artifacts are both alive, and that overlap
  // must not OOM live serving.
  RunContext load_ctx;
  load_ctx.SetBudget(config_.budget);
  auto loaded = store_->LoadGeneration(candidate, load_ctx);
  if (!loaded.ok()) {
    Quarantine(candidate, ClassifyLoadFailure(loaded.status()),
               std::string(loaded.status().message()));
    return false;
  }
  std::shared_ptr<const AlignmentIndex> index = loaded.ValueOrDie();

  uint64_t reserved = 0;
  if (config_.budget) {
    const uint64_t bytes = index->MemoryBytes();
    Status admit = config_.budget->TryReserve(bytes, "swap candidate");
    if (!admit.ok()) {
      Quarantine(candidate, QuarantineReason::kMemoryBudget,
                 std::string(admit.message()));
      return false;
    }
    reserved = bytes;
  }
  auto release = [&] {
    if (config_.budget && reserved > 0) config_.budget->Release(reserved);
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = CandidatePhase::kValidating;
  }
  if (fault::ShouldFailIO("serve.swap.validate")) {
    release();
    Quarantine(candidate, QuarantineReason::kValidateFault,
               "injected fault: candidate validation");
    return false;
  }
  ValidationOutcome verdict = ValidateCandidate(*index, config_);
  if (!verdict.ok) {
    release();
    Quarantine(candidate, verdict.reason, std::move(verdict.detail));
    return false;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = CandidatePhase::kPublishing;
  }
  if (fault::ShouldFailIO("serve.swap.publish")) {
    release();
    Quarantine(candidate, QuarantineReason::kPublishFault,
               "injected fault: publish");
    return false;
  }

  server_->SwapIndex(index, candidate);
  store_->SetPinnedGeneration(candidate);
  Status retained = store_->ApplyRetention();
  if (!retained.ok()) {
    // Retention is housekeeping; a failed pass must not un-publish.
    GALIGN_LOG(Warning) << "Post-swap retention pass failed: "
                        << retained.message();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    swaps_.push_back(
        SwapEvent{serving, candidate, quarantine_timer.Millis()});
    if (swaps_.size() > config_.max_history) {
      swaps_.erase(swaps_.begin(),
                   swaps_.end() - static_cast<ptrdiff_t>(config_.max_history));
    }
    phase_ = CandidatePhase::kIdle;
    candidate_ = 0;
  }
  // The candidate's reservation is released once it *is* the serving
  // artifact: the overlap window ends when the old generation drains,
  // which its per-request references bound tightly.
  release();
  GALIGN_LOG(Info) << "Serving artifact swapped: generation " << serving
                   << " -> " << candidate;
  return true;
}

SwapHealth ArtifactWatcher::Health() const {
  SwapHealth health;
  health.serving_generation = server_->serving_generation();
  health.ready = health.serving_generation > 0;
  health.queue_depth = server_->queue_depth();
  health.stats = server_->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  health.newest_seen_generation = newest_seen_;
  health.candidate_phase = phase_;
  health.candidate_generation = candidate_;
  health.quarantined.reserve(poisoned_.size());
  for (const auto& [gen, record] : poisoned_) health.quarantined.push_back(record);
  health.swaps = swaps_;
  return health;
}

}  // namespace galign
