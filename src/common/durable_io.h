// Durable file IO primitives (DESIGN.md §8).
//
// The building blocks shared by model/alignment writers, the generation
// stores, and the bench cell cache:
//
//  * AtomicWriteFile — write-to-temp → fsync → rename, so a reader (or a
//    process resuming after a crash) never observes a torn file: it sees
//    either the old complete content or the new complete content.
//  * CRC32 trailers — AppendCrc32Trailer stamps a payload with a trailing
//    `#crc32 <hex>` line; StripAndVerifyCrc32Trailer detects any bit rot or
//    truncation that slipped past the rename barrier (e.g. media faults).
//  * RetryTransientResult — seeded, jittered exponential backoff for
//    transient IO failures, bounded in attempts so persistent faults still
//    surface.
//  * The hex codec — HexDouble runs (AppendHexDoubles / ParseHexDoubles),
//    the bit-exact text form of every persisted double.
//  * GenerationStore — a directory of numbered, CRC-trailed generations
//    with keep-last-N retention and a newest-first fallback load: the one
//    mechanism behind trainer checkpoints and serving artifacts.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"

namespace galign {

/// \brief CRC-32 (IEEE 802.3, reflected) of `data`.
///
/// Software slicing-by-8 implementation (eight derived 256-entry tables,
/// eight bytes per step); check value: Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(const void* data, size_t size);
uint32_t Crc32(const std::string& data);

/// \brief Durably replaces `path` with `content`.
///
/// Writes `path`.tmp.<pid>, fsyncs it, then rename(2)s over `path` and
/// fsyncs the containing directory. POSIX rename atomicity guarantees any
/// concurrent or post-crash reader sees either the previous file or the
/// full new content — never a prefix.
[[nodiscard]] Status AtomicWriteFile(const std::string& path, const std::string& content);

/// \brief Reads the entire file at `path` into a string (one read sized
/// by fstat, then a probe for bytes appended since).
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

/// \brief Bit-exact text encoding of a double: the 16 lowercase hex digits
/// of its IEEE-754 bit pattern.
///
/// operator<< at precision(17) round-trips finite values but istream >>
/// refuses "inf"/"nan", and bit identity (not value identity) is the
/// durability contract — so every persisted double goes through this.
/// Single-value form of AppendHexDoubles.
std::string HexDouble(double d);

/// \brief Appends `n` doubles in HexDouble form: single spaces between
/// values, a newline after every `per_line`-th value (0: one line) and
/// after the last. Appends nothing when `n` is 0.
///
/// Every value takes exactly 17 bytes (16 digits plus its separator), so
/// the run is sized once and filled from a 256-entry byte-to-digits table.
void AppendHexDoubles(std::string* out, const double* values, size_t n,
                      size_t per_line);

/// \brief Inverse of HexDouble. IOError naming `context` when `tok` is not
/// exactly 16 lowercase hex digits. Single-value form of ParseHexDoubles.
[[nodiscard]] Result<double> ParseHexDouble(const std::string& tok,
                                            const std::string& context);

/// \brief Decodes `n` HexDouble tokens from `in` into `out`, leaving `in`
/// positioned just past the last one.
///
/// Accepts exactly what `n` rounds of `in >> tok` + ParseHexDouble accept:
/// a token is a maximal run of non-whitespace bytes (whitespace being the
/// classic-locale set: space, \t, \n, \v, \f, \r), skipped whitespace may
/// be any run of those, and each token must be 16 of [0-9a-f]. The stream
/// buffer is read in place (view() plus tellg/seekg) instead of token by
/// token. Errors, both IOError: "truncated <what> in <context>" when the
/// input ends (or `in` is not good) before the n-th token, and
/// "bad double bit pattern '<tok>' in <context>" for a malformed token.
[[nodiscard]] Status ParseHexDoubles(std::istringstream* in, double* out,
                                     size_t n, const std::string& what,
                                     const std::string& context);

/// Trailer line marking the CRC of everything before it in the file.
inline constexpr char kCrcTrailerPrefix[] = "#crc32 ";

/// \brief Returns `payload` with a `#crc32 <hex>` trailer line appended.
///
/// The checksum covers every byte before the trailer line (a trailing
/// newline is added to the payload if missing, and is covered). The
/// trailer is appended in place, so a moved-in payload is never copied.
std::string AppendCrc32Trailer(std::string payload);

/// \brief Verifies and removes a `#crc32` trailer.
///
/// Returns the payload without the trailer. When `require_trailer` is
/// false and no trailer is present the payload is returned as-is (legacy
/// files written before checksumming); a present-but-wrong trailer is
/// always an IOError mentioning "checksum mismatch". The trailer is cut
/// off in place, so a moved-in `content` is never copied.
[[nodiscard]] Result<std::string> StripAndVerifyCrc32Trailer(
    std::string content, bool require_trailer, const std::string& context);

/// \brief Bounded retry schedule for transient IO faults.
///
/// Backoff for attempt k (1-based) is base_backoff_ms * 2^(k-1), capped at
/// max_backoff_ms, each multiplied by a seeded jitter in [0.5, 1.0] so
/// colliding retriers decorrelate deterministically.
struct RetryPolicy {
  int max_attempts = 3;
  double base_backoff_ms = 1.0;
  double max_backoff_ms = 8.0;
  uint64_t seed = 0x9e3779b97f4a7c15ull;
};

namespace internal {
/// Jittered backoff duration in ms for `attempt` (1-based) under `policy`.
double BackoffMillis(const RetryPolicy& policy, int attempt);
/// Sleeps the backoff for `attempt` (1-based) under `policy`. `floor_ms`
/// raises (never lowers) the sleep — a server-provided retry-after hint is
/// a promise that earlier retries are wasted, so it acts as a floor under
/// the schedule's own jittered backoff.
void BackoffSleep(const RetryPolicy& policy, int attempt,
                  double floor_ms = 0.0);
}  // namespace internal

/// \brief Runs `fn` (a callable returning Result<T>) under `policy`.
///
/// Only kIOError outcomes are retried — parse/corruption errors surface on
/// the first attempt. Sleeps the jittered backoff between attempts and
/// returns the final attempt's result (success or not) verbatim.
template <typename Fn>
auto RetryTransientResult(const RetryPolicy& policy, Fn&& fn)
    -> decltype(fn()) {
  int attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1;; ++attempt) {
    auto res = fn();
    if (res.ok() || res.status().code() != StatusCode::kIOError ||
        attempt >= attempts) {
      return res;
    }
    internal::BackoffSleep(policy, attempt);
  }
}

/// \brief A directory of numbered generations (DESIGN.md §8, §13): the one
/// on-disk mechanism behind CheckpointManager and AlignmentIndexStore.
///
/// Generation `g` is the file `<dir>/<prefix><g as %08d>`, written with
/// AtomicWriteFile and a CRC32 trailer. A name is a generation only when it
/// is exactly that form — the prefix and eight digits — so `.tmp.<pid>`
/// siblings and every other name are never loaded, counted or deleted.
///
/// Loaders scan the directory and take generation numbers as the order
/// (newest = highest). Every retention pass still rewrites `<dir>/MANIFEST`
/// (`manifest_magic`, then the survivors newest-first, then a CRC trailer)
/// so an older reader of the directory sees what it always saw; nothing
/// here reads it back.
///
/// Retention: survivors are the `keep` newest CRC-valid generations plus the
/// pinned one when it is present and valid (last-good pinning: the
/// generation a live reader depends on is never pruned out from under it).
/// The MANIFEST is rewritten before any file is deleted. Torn files
/// (missing/wrong CRC trailer) are garbage-collected only when a valid
/// generation survives: when *everything* is torn they stay as evidence, so
/// loaders still report data loss (IOError) instead of a silent NotFound.
class GenerationStore {
 public:
  /// Largest generation number the eight-digit file name can hold.
  static constexpr int kMaxGeneration = 99999999;

  /// `noun` names the payload in errors and logs ("checkpoint",
  /// "artifact"). `keep` is clamped to at least 1.
  GenerationStore(std::string dir, std::string prefix,
                  std::string manifest_magic, std::string noun, int keep);

  const std::string& dir() const { return dir_; }

  /// Path of generation `gen`'s file.
  std::string PathOf(int gen) const;

  /// Generations present on disk, newest first (one directory scan; a
  /// missing or unreadable directory holds none).
  std::vector<int> Generations() const;

  /// Highest generation present on disk, or 0 when there is none.
  int Newest() const;

  /// Creates the directory, durably writes `payload` plus its CRC trailer
  /// as generation `gen`, then runs ApplyRetention. InvalidArgument when
  /// `gen` is outside [0, kMaxGeneration].
  [[nodiscard]] Status Write(int gen, std::string payload);

  /// Reads generation `gen` and strips its verified CRC trailer; the payload
  /// is moved through, never copied. NotFound when the file is unreadable,
  /// IOError when its trailer is missing or wrong.
  [[nodiscard]] Result<std::string> Read(int gen) const;

  /// Last-good pinning: `gen` survives retention regardless of age.
  void Pin(int gen) { pinned_.store(gen); }
  int pinned() const { return pinned_.load(); }

  /// The retention pass: keep-last-N + pin + torn GC, MANIFEST first.
  [[nodiscard]] Status ApplyRetention();

  /// \brief The newest-first fallback load.
  ///
  /// Calls `load(gen)` (returning Result<T>) for each generation on disk,
  /// newest first, logging each failure and moving on. The first success is
  /// pinned, reported through `loaded_gen` when non-null, and returned.
  /// Typed terminal failures: NotFound when no generation is on disk (a
  /// normal cold start); IOError naming the generation count and the newest
  /// failure when every present generation failed (durable state was lost).
  template <typename Load>
  auto LoadNewest(Load&& load, int* loaded_gen = nullptr) const
      -> decltype(load(0)) {
    int tried = 0;
    std::string newest_error;
    for (const int gen : Generations()) {
      auto loaded = load(gen);
      if (loaded.ok()) {
        pinned_.store(gen);
        if (loaded_gen != nullptr) *loaded_gen = gen;
        return loaded;
      }
      if (tried++ == 0) newest_error = loaded.status().message();
      LogRejected(gen, loaded.status());
    }
    return NoValidGeneration(tried, newest_error);
  }

 private:
  void LogRejected(int gen, const Status& why) const;
  Status NoValidGeneration(int tried, const std::string& newest_error) const;

  std::string dir_;
  std::string prefix_;
  std::string manifest_magic_;
  std::string noun_;
  int keep_;
  /// Generation handed to a caller as good; -1 until then.
  mutable std::atomic<int> pinned_{-1};
};

}  // namespace galign
