#include "common/durable_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace galign {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the bytewise table of the reflected 0xEDB88320 polynomial;
// tables[k][i] is the CRC of byte i followed by k zero bytes, so one step
// can fold eight input bytes through eight independent lookups.
constexpr Crc32Tables BuildCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = BuildCrc32Tables();

// Little-endian 32-bit load, independent of host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Byte -> its two lowercase hex digits, most significant first.
using HexPairTable = std::array<std::array<char, 2>, 256>;
constexpr HexPairTable BuildHexPairTable() {
  constexpr char kDigits[] = "0123456789abcdef";
  HexPairTable table{};
  for (size_t b = 0; b < 256; ++b) {
    table[b] = {kDigits[b >> 4], kDigits[b & 15]};
  }
  return table;
}
constexpr HexPairTable kHexPairs = BuildHexPairTable();

// Character -> nibble value for [0-9a-f]; kBadNibble for everything else
// (uppercase included: HexDouble only ever writes lowercase).
constexpr uint8_t kBadNibble = 0x10;
using NibbleTable = std::array<uint8_t, 256>;
constexpr NibbleTable BuildNibbleTable() {
  NibbleTable table{};
  for (size_t c = 0; c < 256; ++c) table[c] = kBadNibble;
  for (uint8_t v = 0; v < 10; ++v) table['0' + v] = v;
  for (uint8_t v = 0; v < 6; ++v) {
    table['a' + v] = static_cast<uint8_t>(10 + v);
  }
  return table;
}
constexpr NibbleTable kNibbles = BuildNibbleTable();

// Bytes of one encoded value: 16 digits plus the following separator.
constexpr size_t kHexValueBytes = 17;

inline void EncodeHex16(double d, char* out) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  for (int shift = 56; shift >= 0; shift -= 8, out += 2) {
    std::memcpy(out, kHexPairs[(bits >> shift) & 0xFFu].data(), 2);
  }
}

// Decodes 16 hex digits at `p`; false when any is not [0-9a-f].
inline bool DecodeHex16(const char* p, double* d) {
  uint64_t bits = 0;
  uint8_t seen = 0;
  for (int i = 0; i < 16; ++i) {
    const uint8_t v = kNibbles[static_cast<unsigned char>(p[i])];
    seen |= v;
    bits = (bits << 4) | (v & 0xFu);
  }
  std::memcpy(d, &bits, sizeof(bits));
  return (seen & kBadNibble) == 0;
}

// The classic-locale isspace set `istream >> std::string` splits on.
inline bool IsTokenSpace(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

Status BadHexToken(const std::string& tok, const std::string& context) {
  return Status::IOError("bad double bit pattern '" + tok + "' in " + context);
}

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

// Directory part of `path` ("." when the path has no separator), used to
// fsync the directory entry after rename so the new name itself is durable.
std::string DirOf(const std::string& path) {
  auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const Crc32Tables& t = kCrc32Tables;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const std::string& data) {
  return Crc32(data.data(), data.size());
}

Status AtomicWriteFile(const std::string& path, const std::string& content) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("cannot create", tmp));

  const char* buf = content.data();
  size_t remaining = content.size();
  while (remaining > 0) {
    ssize_t n = ::write(fd, buf, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::IOError(ErrnoMessage("write failed for", tmp));
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    buf += n;
    remaining -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status st = Status::IOError(ErrnoMessage("fsync failed for", tmp));
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::close(fd) != 0) {
    Status st = Status::IOError(ErrnoMessage("close failed for", tmp));
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IOError(ErrnoMessage("rename failed onto", path));
    ::unlink(tmp.c_str());
    return st;
  }
  // Make the rename itself durable: fsync the directory entry. Failure here
  // is non-fatal for correctness of readers (the file content is complete),
  // so surface it but do not roll back.
  int dfd = ::open(DirOf(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  struct stat st {};
  std::string out;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out.resize(static_cast<size_t>(st.st_size));
  }
  // Fill the fstat-sized buffer, then keep reading through a small chunk
  // until EOF: a file that grew since fstat is still read whole, without
  // ever doubling the big buffer.
  size_t got = 0;
  char chunk[4096];
  for (;;) {
    const bool into_out = got < out.size();
    char* dst = into_out ? out.data() + got : chunk;
    const size_t room = into_out ? out.size() - got : sizeof(chunk);
    const ssize_t n = ::read(fd, dst, room);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("read failed: " + path);
    }
    if (n == 0) break;
    if (!into_out) out.append(chunk, static_cast<size_t>(n));
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

std::string AppendCrc32Trailer(std::string payload) {
  if (payload.empty() || payload.back() != '\n') payload += '\n';
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", Crc32(payload));
  payload += kCrcTrailerPrefix;
  payload += hex;
  payload += '\n';
  return payload;
}

Result<std::string> StripAndVerifyCrc32Trailer(std::string content,
                                               bool require_trailer,
                                               const std::string& context) {
  // The trailer is the last non-empty line; find its start.
  size_t end = content.size();
  while (end > 0 && content[end - 1] == '\n') --end;
  size_t line_start = content.rfind('\n', end == 0 ? 0 : end - 1);
  line_start = (line_start == std::string::npos) ? 0 : line_start + 1;
  const std::string_view last_line(content.data() + line_start,
                                   end - line_start);

  const size_t prefix_len = sizeof(kCrcTrailerPrefix) - 1;
  if (last_line.substr(0, prefix_len) != kCrcTrailerPrefix) {
    if (require_trailer) {
      return Status::IOError("missing #crc32 trailer in " + context);
    }
    return content;
  }
  uint32_t expected = 0;
  {
    std::istringstream hs(std::string(last_line.substr(prefix_len)));
    hs >> std::hex >> expected;
    if (hs.fail()) {
      return Status::IOError("malformed #crc32 trailer in " + context);
    }
  }
  const uint32_t actual = Crc32(content.data(), line_start);
  if (actual != expected) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "checksum mismatch (stored %08x, computed %08x) in ",
                  expected, actual);
    return Status::IOError(buf + context);
  }
  content.resize(line_start);
  return content;
}

std::string HexDouble(double d) {
  std::string out;
  AppendHexDoubles(&out, &d, 1, 0);
  out.pop_back();  // the run's closing newline
  return out;
}

void AppendHexDoubles(std::string* out, const double* values, size_t n,
                      size_t per_line) {
  if (n == 0) return;
  const size_t start = out->size();
  out->resize(start + n * kHexValueBytes);
  char* p = out->data() + start;
  for (size_t i = 0; i < n; ++i, p += kHexValueBytes) {
    EncodeHex16(values[i], p);
    p[16] = (per_line != 0 && (i + 1) % per_line == 0) ? '\n' : ' ';
  }
  *(p - 1) = '\n';
}

Result<double> ParseHexDouble(const std::string& tok,
                              const std::string& context) {
  double d;
  if (tok.size() != 16 || !DecodeHex16(tok.data(), &d)) {
    return BadHexToken(tok, context);
  }
  return d;
}

Status ParseHexDoubles(std::istringstream* in, double* out, size_t n,
                       const std::string& what, const std::string& context) {
  if (n == 0) return Status::OK();
  const std::string_view text = in->view();
  // A stream that is not good() fails its next `>>`, exactly like one
  // already at the end of its buffer.
  const size_t start =
      in->good() ? static_cast<size_t>(std::streamoff(in->tellg()))
                 : text.size();
  const char* const end = text.data() + text.size();
  const char* p = text.data() + std::min(start, text.size());
  for (size_t i = 0; i < n; ++i) {
    while (p != end && IsTokenSpace(*p)) ++p;
    if (p == end) {
      return Status::IOError("truncated " + what + " in " + context);
    }
    const bool whole_token =
        end - p == 16 || (end - p > 16 && IsTokenSpace(p[16]));
    if (!whole_token || !DecodeHex16(p, &out[i])) {
      const char* tok_end = p;
      while (tok_end != end && !IsTokenSpace(*tok_end)) ++tok_end;
      return BadHexToken(std::string(p, tok_end), context);
    }
    p += 16;
  }
  in->seekg(static_cast<std::streamoff>(p - text.data()));
  return Status::OK();
}

namespace internal {

double BackoffMillis(const RetryPolicy& policy, int attempt) {
  double backoff = policy.base_backoff_ms;
  for (int i = 1; i < attempt; ++i) backoff *= 2.0;
  if (backoff > policy.max_backoff_ms) backoff = policy.max_backoff_ms;
  // Deterministic per-(seed, attempt) jitter in [0.5, 1.0] decorrelates
  // concurrent retriers without a global RNG dependency.
  std::mt19937_64 gen(policy.seed + static_cast<uint64_t>(attempt));
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  return backoff * jitter(gen);
}

void BackoffSleep(const RetryPolicy& policy, int attempt, double floor_ms) {
  const double sleep_ms = std::max(BackoffMillis(policy, attempt), floor_ms);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(sleep_ms));
}

}  // namespace internal

namespace {

// Generation number of `name` when it is exactly `prefix` + eight digits
// (the only names GenerationStore writes), else -1.
int GenerationOfName(const std::string& name, const std::string& prefix) {
  constexpr size_t kDigits = 8;
  if (name.size() != prefix.size() + kDigits ||
      name.compare(0, prefix.size(), prefix) != 0) {
    return -1;
  }
  int gen = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    gen = gen * 10 + (name[i] - '0');
  }
  return gen;
}

std::string FileNameOf(const std::string& prefix, int gen) {
  char digits[16];
  std::snprintf(digits, sizeof(digits), "%08d", gen);
  return prefix + digits;
}

// Generations under `dir`, newest first; `ec` reports a failed scan.
std::vector<int> ScanGenerations(const std::string& dir,
                                 const std::string& prefix,
                                 std::error_code* ec) {
  std::vector<int> gens;
  for (const auto& item : std::filesystem::directory_iterator(dir, *ec)) {
    const int gen = GenerationOfName(item.path().filename().string(), prefix);
    if (gen >= 0) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end(), std::greater<int>());
  return gens;
}

}  // namespace

GenerationStore::GenerationStore(std::string dir, std::string prefix,
                                 std::string manifest_magic, std::string noun,
                                 int keep)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      manifest_magic_(std::move(manifest_magic)),
      noun_(std::move(noun)),
      keep_(std::max(1, keep)) {}

std::string GenerationStore::PathOf(int gen) const {
  return dir_ + "/" + FileNameOf(prefix_, gen);
}

std::vector<int> GenerationStore::Generations() const {
  std::error_code ec;
  return ScanGenerations(dir_, prefix_, &ec);
}

int GenerationStore::Newest() const {
  const std::vector<int> gens = Generations();
  return gens.empty() ? 0 : gens.front();
}

Status GenerationStore::Write(int gen, std::string payload) {
  if (gen < 0 || gen > kMaxGeneration) {
    return Status::InvalidArgument(noun_ + " generation " +
                                   std::to_string(gen) +
                                   " does not fit an eight-digit file name");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create " + noun_ + " dir " + dir_ + ": " +
                           ec.message());
  }
  GALIGN_RETURN_NOT_OK(
      AtomicWriteFile(PathOf(gen), AppendCrc32Trailer(std::move(payload))));
  return ApplyRetention();
}

Result<std::string> GenerationStore::Read(int gen) const {
  const std::string path = PathOf(gen);
  auto content = ReadFileToString(path);
  if (!content.ok()) {
    return Status::NotFound(noun_ + " generation " + std::to_string(gen) +
                            " unreadable: " + content.status().message());
  }
  return StripAndVerifyCrc32Trailer(content.MoveValueOrDie(),
                                    /*require_trailer=*/true, path);
}

Status GenerationStore::ApplyRetention() {
  std::error_code ec;
  const std::vector<int> gens = ScanGenerations(dir_, prefix_, &ec);
  if (ec) {
    return Status::IOError("cannot scan generation dir " + dir_ + ": " +
                           ec.message());
  }
  std::vector<bool> valid(gens.size());
  bool any_valid = false;
  for (size_t i = 0; i < gens.size(); ++i) {
    valid[i] = Read(gens[i]).ok();
    any_valid |= valid[i];
  }

  const int pinned = pinned_.load();
  std::string manifest = manifest_magic_ + "\n";
  std::vector<int> pruned;
  std::vector<int> torn;
  int valid_kept = 0;
  for (size_t i = 0; i < gens.size(); ++i) {
    if (!valid[i]) {
      // A torn file is never a survivor, and is deleted only when a valid
      // generation remains to serve from.
      if (any_valid) torn.push_back(gens[i]);
    } else if (valid_kept < keep_ || gens[i] == pinned) {
      manifest += FileNameOf(prefix_, gens[i]) + "\n";
      ++valid_kept;
    } else {
      pruned.push_back(gens[i]);
    }
  }

  // Manifest first: after this write no surviving reader path references a
  // victim, so deleting them cannot tear a concurrent load.
  GALIGN_RETURN_NOT_OK(
      AtomicWriteFile(dir_ + "/MANIFEST", AppendCrc32Trailer(manifest)));

  for (const int gen : pruned) std::filesystem::remove(PathOf(gen), ec);
  for (const int gen : torn) {
    std::filesystem::remove(PathOf(gen), ec);
    GALIGN_LOG(Warning) << noun_ << " " << PathOf(gen)
                        << " failed its CRC; garbage-collected";
  }
  return Status::OK();
}

void GenerationStore::LogRejected(int gen, const Status& why) const {
  GALIGN_LOG(Warning) << noun_ << " " << PathOf(gen) << " rejected ("
                      << why.message() << "); trying previous";
}

Status GenerationStore::NoValidGeneration(
    int tried, const std::string& newest_error) const {
  if (tried == 0) {
    return Status::NotFound("no " + noun_ + " generations under " + dir_);
  }
  return Status::IOError("all " + std::to_string(tried) + " " + noun_ +
                         " generations under " + dir_ +
                         " failed validation (newest error: " + newest_error +
                         ")");
}

}  // namespace galign
