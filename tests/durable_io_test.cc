// Durable IO primitives (DESIGN.md §8): atomic replace semantics, CRC32
// trailer validation, bounded transient-fault retry, and the hex codec
// every persisted double goes through.
#include "common/durable_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace galign {
namespace {

class DurableIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_durable_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(DurableIoTest, Crc32MatchesCheckValue) {
  // The standard CRC-32 (IEEE, reflected) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

TEST_F(DurableIoTest, AtomicWriteCreatesThenReplaces) {
  const std::string path = Path("f.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "first\n").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "first\n");
  ASSERT_TRUE(AtomicWriteFile(path, "second\n").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "second\n");

  // No temp droppings: the directory holds exactly the target file.
  int entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1);
}

TEST_F(DurableIoTest, AtomicWriteFailsCleanlyIntoMissingDirectory) {
  Status st = AtomicWriteFile(Path("no/such/dir/f.txt"), "x");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST_F(DurableIoTest, ReadMissingFileIsIOError) {
  auto r = ReadFileToString(Path("missing.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(DurableIoTest, TrailerRoundTrips) {
  const std::string payload = "line one\nline two\n";
  const std::string stamped = AppendCrc32Trailer(payload);
  auto stripped = StripAndVerifyCrc32Trailer(stamped,
                                             /*require_trailer=*/true, "test");
  ASSERT_TRUE(stripped.ok()) << stripped.status().ToString();
  EXPECT_EQ(stripped.ValueOrDie(), payload);
}

TEST_F(DurableIoTest, TrailerCoversAddedFinalNewline) {
  // A payload without a trailing newline gets one, and the CRC covers it.
  const std::string stamped = AppendCrc32Trailer("no newline");
  auto stripped = StripAndVerifyCrc32Trailer(stamped,
                                             /*require_trailer=*/true, "test");
  ASSERT_TRUE(stripped.ok());
  EXPECT_EQ(stripped.ValueOrDie(), "no newline\n");
}

TEST_F(DurableIoTest, TrailerDetectsCorruption) {
  std::string stamped = AppendCrc32Trailer("precious payload\n");
  stamped[3] ^= 0x01;  // single bit flip in the payload
  auto r = StripAndVerifyCrc32Trailer(stamped, /*require_trailer=*/false,
                                      "test");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum mismatch"), std::string::npos);
}

TEST_F(DurableIoTest, TrailerDetectsTruncation) {
  // Truncating the payload while keeping the trailer must fail the CRC.
  const std::string stamped = AppendCrc32Trailer("aaaa\nbbbb\ncccc\n");
  const std::string truncated = stamped.substr(0, 5) + stamped.substr(10);
  auto r = StripAndVerifyCrc32Trailer(truncated, /*require_trailer=*/true,
                                      "test");
  ASSERT_FALSE(r.ok());
}

TEST_F(DurableIoTest, MissingTrailerPolicies) {
  const std::string legacy = "old format content\n";
  // Optional: legacy files pass through untouched.
  auto pass = StripAndVerifyCrc32Trailer(legacy, /*require_trailer=*/false,
                                         "test");
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(pass.ValueOrDie(), legacy);
  // Required (checkpoints, manifests, bench cells): missing is an error.
  auto fail = StripAndVerifyCrc32Trailer(legacy, /*require_trailer=*/true,
                                         "test");
  ASSERT_FALSE(fail.ok());
  EXPECT_NE(fail.status().message().find("missing"), std::string::npos);
}

TEST_F(DurableIoTest, RetryTransientRecoversFromTransientFault) {
  RetryPolicy fast;
  fast.base_backoff_ms = 0.01;
  fast.max_backoff_ms = 0.02;
  int calls = 0;
  auto r = RetryTransientResult(fast, [&]() -> Result<int> {
    if (++calls < 3) return Status::IOError("flaky");
    return calls;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 3);
  EXPECT_EQ(calls, 3);
}

TEST_F(DurableIoTest, RetryTransientDoesNotRetryNonIOErrors) {
  int calls = 0;
  auto r = RetryTransientResult(RetryPolicy{}, [&]() -> Result<int> {
    ++calls;
    return Status::InvalidArgument("deterministic");
  });
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);  // retrying a parse error cannot help
}

TEST_F(DurableIoTest, RetryTransientGivesUpAfterMaxAttempts) {
  RetryPolicy fast;
  fast.max_attempts = 4;
  fast.base_backoff_ms = 0.01;
  fast.max_backoff_ms = 0.02;
  int calls = 0;
  auto r = RetryTransientResult(fast, [&]() -> Result<int> {
    ++calls;
    return Status::IOError("persistent");
  });
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 4);
}

TEST_F(DurableIoTest, RetryTransientResultCarriesValueThrough) {
  RetryPolicy fast;
  fast.base_backoff_ms = 0.01;
  fast.max_backoff_ms = 0.02;
  int calls = 0;
  auto r = RetryTransientResult(fast, [&]() -> Result<int> {
    if (++calls < 2) return Status::IOError("flaky");
    return 42;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(calls, 2);
}

// --- CRC-32 parity ------------------------------------------------------

// Bit-at-a-time CRC-32 straight from the reflected polynomial: no tables,
// so it cannot share a bug with the slicing-by-8 implementation.
uint32_t BitwiseCrc32(const unsigned char* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicingMatchesBitwiseReferenceAtEveryLengthAndOffset) {
  std::vector<unsigned char> buf(257 + 8);
  uint32_t x = 0x12345678u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                BitwiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_F(DurableIoTest, ReadFileToStringReadsLargeBinaryFileWhole) {
  std::string content(200000, '\0');
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>((i * 131) % 251);
  }
  const std::string path = Path("big.bin");
  ASSERT_TRUE(AtomicWriteFile(path, content).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie(), content);
}

// --- Hex codec parity ----------------------------------------------------

// Bitwise equality of two double arrays; memcmp must not be handed the
// null data() of an empty container.
bool SameBits(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

// The single-token check as it was before the codec (find_first_not_of +
// strtoull), independent of the codec's tables.
Result<double> ReferenceParseHexToken(const std::string& tok,
                                      const std::string& context) {
  if (tok.size() != 16 ||
      tok.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return Status::IOError("bad double bit pattern '" + tok + "' in " +
                           context);
  }
  const uint64_t bits = std::strtoull(tok.c_str(), nullptr, 16);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// The pre-codec decoder, kept as the reference: one `>>` token per value,
// each checked by ReferenceParseHexToken.
Status TokenLoopDecode(std::istringstream* in, double* out, size_t n,
                       const std::string& what, const std::string& context) {
  std::string tok;
  for (size_t i = 0; i < n; ++i) {
    if (!(*in >> tok)) {
      return Status::IOError("truncated " + what + " in " + context);
    }
    auto v = ReferenceParseHexToken(tok, context);
    if (!v.ok()) return v.status();
    out[i] = v.ValueOrDie();
  }
  return Status::OK();
}

// Decodes `n` values from `text` with both decoders and checks they agree
// on the status and the decoded bits, and that each stream resumes at the
// same token. Returns the codec's status.
Status DecodeBoth(const std::string& text, size_t n,
                  std::vector<double>* values) {
  std::istringstream codec_in(text);
  std::istringstream ref_in(text);
  std::vector<double> ref(n, 0.0);
  values->assign(n, 0.0);
  const Status got = ParseHexDoubles(&codec_in, values->data(), n, "run", "t");
  const Status want = TokenLoopDecode(&ref_in, ref.data(), n, "run", "t");
  EXPECT_EQ(got.ToString(), want.ToString()) << "input: " << text;
  if (got.ok() && want.ok()) {
    EXPECT_TRUE(SameBits(values->data(), ref.data(), n));
    std::string next_codec, next_ref;
    const bool more_codec = static_cast<bool>(codec_in >> next_codec);
    const bool more_ref = static_cast<bool>(ref_in >> next_ref);
    EXPECT_EQ(more_codec, more_ref);
    EXPECT_EQ(next_codec, next_ref);
  }
  return got;
}

TEST(HexCodecTest, AcceptsEveryTokenizerSeparator) {
  const std::string a = HexDouble(1.5);
  const std::string b = HexDouble(-0.0);
  const std::string c = HexDouble(std::numeric_limits<double>::infinity());
  const std::vector<std::string> texts = {
      a + " " + b + " " + c,
      a + "\v" + b + "\t" + c,
      a + "\r\n" + b + "\f" + c + "\r\n",
      " \t\n\v\f\r" + a + "  \n\n" + b + "\t\t\v" + c + " tail",
      a + "\n" + b + "\n" + c,
  };
  std::vector<double> v;
  for (const std::string& text : texts) {
    ASSERT_TRUE(DecodeBoth(text, 3, &v).ok()) << text;
    EXPECT_EQ(v[0], 1.5);
    EXPECT_TRUE(std::signbit(v[1]));
    EXPECT_EQ(v[2], std::numeric_limits<double>::infinity());
  }
  // Zero values consume nothing, even from an empty buffer.
  EXPECT_TRUE(DecodeBoth("", 0, &v).ok());
}

TEST(HexCodecTest, RejectsWhatTheTokenizerRejectedWithTheSameMessages) {
  const std::string good = HexDouble(0.25);  // 3fd0000000000000
  // Each bad token is `good` with the bytes at `at` replaced by `with`.
  auto edit = [&good](size_t at, const std::string& with) {
    std::string tok = good;
    tok.replace(at, with.size(), with);
    return tok;
  };
  const std::vector<std::string> bad_tokens = {
      edit(1, "F"),            // uppercase digit
      good.substr(0, 15),      // 15 characters
      good + "0",              // 17 characters
      edit(5, std::string(1, '\0')),  // embedded NUL
      edit(0, "+"),            // sign prefix
      edit(0, "0x"),           // radix prefix
      edit(0, "x"),
      edit(8, "g"),
  };
  std::vector<double> v;
  for (const std::string& tok : bad_tokens) {
    const Status st = DecodeBoth(good + " " + tok + " " + good, 3, &v);
    ASSERT_FALSE(st.ok()) << tok;
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_EQ(st.message(), "bad double bit pattern '" + tok + "' in t");
  }
  // A value cut short at the end of the input is a bad token, a missing
  // one is a truncation.
  Status st = DecodeBoth(good + " " + good.substr(0, 11), 2, &v);
  EXPECT_EQ(st.message(), "bad double bit pattern '" + good.substr(0, 11) +
                              "' in t");
  st = DecodeBoth(good + " " + good + " \n", 3, &v);
  EXPECT_EQ(st.message(), "truncated run in t");
  EXPECT_EQ(DecodeBoth("", 1, &v).message(), "truncated run in t");
}

TEST(HexCodecTest, StreamThatIsNotGoodIsTruncated) {
  double v = 0.0;
  std::istringstream at_eof(HexDouble(2.0));
  std::string tok;
  at_eof >> tok;  // ends exactly at the buffer's end: eofbit is set
  EXPECT_EQ(ParseHexDoubles(&at_eof, &v, 1, "value", "ctx").message(),
            "truncated value in ctx");
  std::istringstream failed(HexDouble(2.0) + " " + HexDouble(3.0));
  failed.setstate(std::ios::failbit);
  EXPECT_EQ(ParseHexDoubles(&failed, &v, 1, "value", "ctx").message(),
            "truncated value in ctx");
}

TEST(HexCodecTest, RunLayoutEqualsPerValueHexDouble) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                -2.5,
                                0.1,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i < 12; ++i) values.push_back(i * 1.0e-3 - 7.0);
  for (size_t per_line : {size_t{0}, size_t{1}, size_t{8}}) {
    for (size_t n = 0; n <= values.size(); ++n) {
      // Reference: the per-value emitter the run replaced.
      std::ostringstream want;
      for (size_t i = 0; i < n; ++i) {
        if (i) want << (per_line != 0 && i % per_line == 0 ? "\n" : " ");
        want << HexDouble(values[i]);
      }
      if (n) want << "\n";
      std::string got = "prefix:";
      AppendHexDoubles(&got, values.data(), n, per_line);
      EXPECT_EQ(got, "prefix:" + want.str()) << "n " << n;

      std::vector<double> back;
      ASSERT_TRUE(DecodeBoth(got.substr(7), n, &back).ok());
      EXPECT_TRUE(SameBits(back.data(), values.data(), n));
    }
  }
  // Single-value wrappers: the exact 16-digit form, bits preserved.
  EXPECT_EQ(HexDouble(1.0), "3ff0000000000000");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double back = ParseHexDouble(HexDouble(nan), "t").ValueOrDie();
  EXPECT_EQ(std::memcmp(&back, &nan, sizeof(double)), 0);
}

}  // namespace
}  // namespace galign
