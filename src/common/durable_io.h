// Durable file IO primitives (DESIGN.md §8).
//
// Four building blocks shared by model/alignment writers, the trainer
// checkpointer, and the bench cell cache:
//
//  * AtomicWriteFile — write-to-temp → fsync → rename, so a reader (or a
//    process resuming after a crash) never observes a torn file: it sees
//    either the old complete content or the new complete content.
//  * CRC32 trailers — AppendCrc32Trailer stamps a payload with a trailing
//    `#crc32 <hex>` line; StripAndVerifyCrc32Trailer detects any bit rot or
//    truncation that slipped past the rename barrier (e.g. media faults).
//  * RetryTransient — seeded, jittered exponential backoff for transient
//    IO failures, bounded in attempts so persistent faults still surface.
//  * The hex codec — HexDouble runs (AppendHexDoubles / ParseHexDoubles),
//    the bit-exact text form of every persisted double.
#pragma once

#include <cstdint>
#include <functional>
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

/// \brief Runs `fn` (a callable returning Status) under `policy`.
///
/// Only kIOError results are retried — parse/corruption errors surface on
/// the first attempt. Sleeps the jittered backoff between attempts and
/// returns the last Status when attempts are exhausted.
template <typename Fn>
[[nodiscard]] Status RetryTransient(const RetryPolicy& policy, Fn&& fn);

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

/// \brief Outcome of one generation-directory retention pass.
struct RetentionReport {
  int kept = 0;                           ///< surviving generation files
  std::vector<std::string> pruned;        ///< valid but beyond the keep window
  std::vector<std::string> torn_removed;  ///< failed CRC, garbage-collected
};

/// \brief Keep-last-N retention with last-good pinning over a generation
/// directory (checkpoints, serving artifacts).
///
/// `gen_of` maps a filename to its generation number; a negative return
/// means "not a generation file" and the entry is never touched. Survivors
/// are the `keep` newest CRC-valid generations plus the generation
/// `pinned_gen` when it is present and valid (last-good pinning: the
/// generation a live reader depends on is never pruned out from under it,
/// even once `keep` newer generations exist). The manifest
/// (`<dir>/MANIFEST`, `manifest_magic` + survivors newest-first + CRC
/// trailer) is rewritten before any file is deleted, so a crash mid-pass
/// never leaves the manifest naming a removed file.
///
/// Torn files (missing/wrong CRC trailer) are garbage-collected only when
/// at least one valid generation survives: when *everything* is torn they
/// are left in place as evidence, preserving the loaders' "all generations
/// failed validation" IOError over a silent NotFound.
[[nodiscard]] Result<RetentionReport> ApplyGenerationRetention(
    const std::string& dir, const std::string& manifest_magic,
    const std::function<int(const std::string&)>& gen_of, int keep,
    int pinned_gen = -1);

template <typename Fn>
[[nodiscard]] Status RetryTransient(const RetryPolicy& policy, Fn&& fn) {
  Status last = Status::OK();
  int attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    last = fn();
    if (last.ok() || last.code() != StatusCode::kIOError) return last;
    if (attempt < attempts) internal::BackoffSleep(policy, attempt);
  }
  return last;
}

/// \brief Result-returning sibling of RetryTransient.
///
/// `fn` returns Result<T>; only kIOError outcomes are retried, and the
/// final attempt's result (success or not) is returned verbatim.
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

}  // namespace galign
