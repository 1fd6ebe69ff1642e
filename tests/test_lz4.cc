// Tests for the LZ4 block codec: round-trip correctness (including property
// sweeps over random and structured inputs), compression effectiveness on
// redundant data, and robustness against malformed blocks.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "compress/lz4.h"

namespace gb::compress {
namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed, int alphabet = 256) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.next_below(static_cast<std::uint64_t>(alphabet)));
  }
  return out;
}

TEST(Lz4, EmptyInputRoundTrips) {
  const Bytes empty;
  const Bytes block = lz4_compress(empty);
  const auto out = lz4_decompress(block, 0);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Lz4, TinyInputsAreLiteralRuns) {
  for (std::size_t n = 1; n <= 16; ++n) {
    const Bytes input = random_bytes(n, n);
    const Bytes block = lz4_compress(input);
    const auto out = lz4_decompress(block, n);
    ASSERT_TRUE(out.has_value()) << "n=" << n;
    EXPECT_EQ(*out, input) << "n=" << n;
  }
}

TEST(Lz4, HighlyRedundantDataCompressesHard) {
  Bytes input(100000, 0x42);
  const Bytes block = lz4_compress(input);
  EXPECT_LT(block.size(), input.size() / 50);
  const auto out = lz4_decompress(block, input.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, input);
}

TEST(Lz4, RepeatedPatternUsesOverlappingMatches) {
  Bytes input;
  const std::string pattern = "abcdefgh";
  for (int i = 0; i < 5000; ++i) {
    input.insert(input.end(), pattern.begin(), pattern.end());
  }
  const Bytes block = lz4_compress(input);
  EXPECT_LT(block.size(), input.size() / 20);
  const auto out = lz4_decompress(block, input.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, input);
}

TEST(Lz4, CommandStreamLikeDataReachesPaperRatio) {
  // Synthetic "graphics command" traffic: repeated records differing only in
  // a few float bytes — §V-A reports ~70% size reduction on such streams.
  Rng rng(7);
  Bytes input;
  Bytes record(48, 0);
  std::iota(record.begin(), record.end(), 0);
  for (int frame = 0; frame < 400; ++frame) {
    for (int cmd = 0; cmd < 20; ++cmd) {
      record[5] = static_cast<std::uint8_t>(rng.next_below(4));
      record[17] = static_cast<std::uint8_t>(frame & 0xff);
      input.insert(input.end(), record.begin(), record.end());
    }
  }
  const Bytes block = lz4_compress(input);
  const double ratio =
      1.0 - static_cast<double>(block.size()) / static_cast<double>(input.size());
  EXPECT_GT(ratio, 0.70);
  const auto out = lz4_decompress(block, input.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, input);
}

TEST(Lz4, IncompressibleDataExpandsBoundedly) {
  const Bytes input = random_bytes(65536, 99);
  const Bytes block = lz4_compress(input);
  EXPECT_LE(block.size(), input.size() + input.size() / 255 + 16);
  const auto out = lz4_decompress(block, input.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, input);
}

struct Lz4Case {
  std::size_t size;
  int alphabet;
  std::uint64_t seed;
};

// gtest's default printer dumps the struct's raw bytes, padding included,
// which makes the listed test names differ from one listing to the next.
void PrintTo(const Lz4Case& c, std::ostream* os) {
  *os << "n" << c.size << "_a" << c.alphabet << "_s" << c.seed;
}

class Lz4RoundTrip : public ::testing::TestWithParam<Lz4Case> {};

TEST_P(Lz4RoundTrip, Exact) {
  const auto& p = GetParam();
  const Bytes input = random_bytes(p.size, p.seed, p.alphabet);
  const Bytes block = lz4_compress(input);
  const auto out = lz4_decompress(block, input.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, input);
}

INSTANTIATE_TEST_SUITE_P(
    PropertySweep, Lz4RoundTrip,
    ::testing::Values(Lz4Case{13, 256, 1}, Lz4Case{64, 4, 2},
                      Lz4Case{100, 2, 3}, Lz4Case{1000, 16, 4},
                      Lz4Case{4096, 3, 5}, Lz4Case{10000, 256, 6},
                      Lz4Case{65537, 8, 7}, Lz4Case{200000, 2, 8},
                      Lz4Case{12, 1, 9}, Lz4Case{300000, 5, 10}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.size) + "_a" +
             std::to_string(info.param.alphabet);
    });

TEST(Lz4, DecompressRejectsWrongExpectedSize) {
  const Bytes input = random_bytes(1000, 42);
  const Bytes block = lz4_compress(input);
  EXPECT_FALSE(lz4_decompress(block, input.size() + 1).has_value());
  EXPECT_FALSE(lz4_decompress(block, input.size() - 1).has_value());
}

TEST(Lz4, DecompressRejectsTruncatedBlock) {
  const Bytes input = random_bytes(5000, 43, 4);
  Bytes block = lz4_compress(input);
  block.resize(block.size() / 2);
  EXPECT_FALSE(lz4_decompress(block, input.size()).has_value());
}

TEST(Lz4, DecompressRejectsBogusOffsets) {
  // A match token whose offset points before the start of the output.
  const Bytes bogus = {0x00, 0xFF, 0xFF, 0x00};
  EXPECT_FALSE(lz4_decompress(bogus, 100).has_value());
}

TEST(Lz4, LongMatchLengthExtensionRoundTrips) {
  // >270-byte match forces multi-byte length extension in the token stream.
  Bytes input(4096, 0xAA);
  input[0] = 1;
  input[1] = 2;
  input[2] = 3;
  const Bytes block = lz4_compress(input);
  const auto out = lz4_decompress(block, input.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, input);
}

// Fills `n` bytes with a repeating pattern of the given period; period 0
// means all-distinct bytes (i % 256 would repeat at 256, but the sweep stays
// below that).
Bytes patterned_bytes(std::size_t n, std::size_t period) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(period == 0 ? i : i % period);
  }
  return out;
}

// Exhaustive tiny-input sweep: every size from empty through 64 bytes, with
// every structure the matcher cares about — all-zero, all-distinct, and
// periods 1..4 (period 4 == kMinMatch, the shortest emittable match). Sizes
// 0..11 sit below the 12-byte match safeguard and must round-trip as pure
// literal runs; 12..16 straddle the boundary where the search window first
// opens.
TEST(Lz4, TinySizeAndPatternSweepRoundTrips) {
  for (std::size_t n = 0; n <= 64; ++n) {
    for (const std::size_t period : {std::size_t{0}, std::size_t{1},
                                     std::size_t{2}, std::size_t{3},
                                     std::size_t{4}}) {
      const Bytes input = patterned_bytes(n, period);
      const Bytes block = lz4_compress(input);
      const auto out = lz4_decompress(block, n);
      ASSERT_TRUE(out.has_value()) << "n=" << n << " period=" << period;
      EXPECT_EQ(*out, input) << "n=" << n << " period=" << period;
    }
  }
}

TEST(Lz4, BelowMatchSafeguardEmitsPureLiteralBlock) {
  // The spec forbids a match starting within the last 12 bytes, so inputs
  // up to 12 bytes compress to exactly one literal-run token even when
  // maximally redundant: at n = 12 the search window holds a single
  // position, whose first occurrence has nothing earlier to match.
  for (std::size_t n = 0; n <= 12; ++n) {
    const Bytes input(n, 0x7e);
    const Bytes block = lz4_compress(input);
    EXPECT_EQ(block.size(), n + 1) << "n=" << n;  // token byte + n literals
    const auto out = lz4_decompress(block, n);
    ASSERT_TRUE(out.has_value()) << "n=" << n;
    EXPECT_EQ(*out, input) << "n=" << n;
  }
  // At 13 the window holds two positions and the first match becomes
  // emittable; redundant input now shrinks.
  const Bytes thirteen(13, 0x7e);
  const Bytes block = lz4_compress(thirteen);
  EXPECT_LT(block.size(), thirteen.size());
  const auto out = lz4_decompress(block, thirteen.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, thirteen);
}

TEST(Lz4, MatchEndsRespectLastLiteralsRule) {
  // Redundant inputs sized so the greedy match would love to run to the
  // block end: the emitted match must stop early enough to leave the final
  // five bytes as literals, for every size near the boundary.
  for (std::size_t n = 12; n <= 32; ++n) {
    for (const std::size_t period : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{4}}) {
      const Bytes input = patterned_bytes(n, period);
      const Bytes block = lz4_compress(input);
      const auto out = lz4_decompress(block, n);
      ASSERT_TRUE(out.has_value()) << "n=" << n << " period=" << period;
      EXPECT_EQ(*out, input) << "n=" << n << " period=" << period;
      // Decoding with any other size must fail, not mis-copy.
      EXPECT_FALSE(lz4_decompress(block, n + 1).has_value());
    }
  }
}

TEST(Lz4, LongLiteralRunRoundTrips) {
  // Incompressible prefix > 270 bytes exercises literal-length extension.
  Bytes input = random_bytes(500, 44);
  const Bytes tail(100, 0x55);
  input.insert(input.end(), tail.begin(), tail.end());
  const Bytes block = lz4_compress(input);
  const auto out = lz4_decompress(block, input.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, input);
}

}  // namespace
}  // namespace gb::compress
