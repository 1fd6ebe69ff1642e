// Tests for the frame codecs: DCT, Huffman, the Turbo tile codec and the
// motion-search reference video encoder.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "apps/game_app.h"
#include "codec/block_coding.h"
#include "codec/dct.h"
#include "codec/huffman.h"
#include "codec/turbo_codec.h"
#include "codec/video_ref.h"
#include "common/rng.h"
#include "gles/direct_backend.h"
#include "test_support.h"

namespace gb::codec {
namespace {

Image gradient_image(int w, int h, int phase = 0) {
  Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      std::uint8_t* p = img.pixel(x, y);
      p[0] = static_cast<std::uint8_t>((x * 4 + phase) & 0xff);
      p[1] = static_cast<std::uint8_t>((y * 4 + phase / 2) & 0xff);
      p[2] = static_cast<std::uint8_t>(((x + y) * 2) & 0xff);
      p[3] = 255;
    }
  }
  return img;
}

Image noisy_image(int w, int h, std::uint64_t seed) {
  Image img(w, h);
  Rng rng(seed);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      std::uint8_t* p = img.pixel(x, y);
      for (int c = 0; c < 3; ++c) {
        p[c] = static_cast<std::uint8_t>(rng.next_below(256));
      }
      p[3] = 255;
    }
  }
  return img;
}

// Smooth multi-frequency pattern: compressible (unlike raw noise, which no
// transform codec can carry at finite rate) yet structured enough for SAD
// motion search to lock on to.
Image detail_image(int w, int h) {
  Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      std::uint8_t* p = img.pixel(x, y);
      p[0] = static_cast<std::uint8_t>(128 + 90 * std::sin(x * 0.35) *
                                                std::cos(y * 0.22));
      p[1] = static_cast<std::uint8_t>(128 + 90 * std::sin((x + y) * 0.18));
      p[2] = static_cast<std::uint8_t>(128 + 90 * std::cos(x * 0.12 - y * 0.3));
      p[3] = 255;
    }
  }
  return img;
}

Image shifted(const Image& src, int dx, int dy) {
  Image out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      const int sx = std::clamp(x - dx, 0, src.width() - 1);
      const int sy = std::clamp(y - dy, 0, src.height() - 1);
      std::memcpy(out.pixel(x, y), src.pixel(sx, sy), 4);
    }
  }
  return out;
}

// --- DCT --------------------------------------------------------------------

TEST(Dct, RoundTripIsIdentity) {
  Rng rng(5);
  Block8x8 block{};
  for (auto& v : block) v = static_cast<float>(rng.uniform(-128, 128));
  Block8x8 copy = block;
  forward_dct(copy);
  inverse_dct(copy);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(copy[static_cast<std::size_t>(i)],
                block[static_cast<std::size_t>(i)], 1e-2f);
  }
}

TEST(Dct, ConstantBlockHasOnlyDc) {
  Block8x8 block{};
  block.fill(50.0f);
  forward_dct(block);
  EXPECT_NEAR(block[0], 400.0f, 1e-2f);  // 8 * mean
  for (int i = 1; i < 64; ++i) {
    EXPECT_NEAR(block[static_cast<std::size_t>(i)], 0.0f, 1e-3f);
  }
}

TEST(Dct, EnergyIsPreserved) {
  Rng rng(6);
  Block8x8 block{};
  for (auto& v : block) v = static_cast<float>(rng.uniform(-100, 100));
  double spatial_energy = 0;
  for (const float v : block) spatial_energy += v * v;
  forward_dct(block);
  double freq_energy = 0;
  for (const float v : block) freq_energy += v * v;
  EXPECT_NEAR(freq_energy / spatial_energy, 1.0, 1e-4);
}

// --- Huffman -----------------------------------------------------------------

TEST(Huffman, RoundTripSkewedDistribution) {
  std::array<std::uint64_t, 256> freq{};
  freq[0] = 1000;
  freq[1] = 500;
  freq[7] = 100;
  freq[200] = 1;
  const HuffmanEncoder encoder(freq);
  ByteWriter table;
  encoder.write_table(table);
  BitWriter bits;
  const std::vector<std::uint8_t> message = {0, 0, 1, 7, 200, 1, 0};
  for (const std::uint8_t s : message) encoder.encode(bits, s);
  const Bytes payload = bits.finish();

  ByteReader table_reader(table.bytes());
  auto decoder = HuffmanDecoder::from_table(table_reader);
  ASSERT_TRUE(decoder.has_value());
  BitReader reader(payload);
  for (const std::uint8_t expected : message) {
    EXPECT_EQ(decoder->decode(reader), expected);
  }
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::array<std::uint64_t, 256> freq{};
  freq[10] = 100000;
  freq[20] = 1;
  freq[30] = 1;
  const HuffmanEncoder encoder(freq);
  EXPECT_LT(encoder.codes()[10].length, encoder.codes()[20].length);
}

TEST(Huffman, SingleSymbolAlphabetWorks) {
  std::array<std::uint64_t, 256> freq{};
  freq[42] = 5;
  const HuffmanEncoder encoder(freq);
  BitWriter bits;
  encoder.encode(bits, 42);
  encoder.encode(bits, 42);
  ByteWriter table;
  encoder.write_table(table);
  ByteReader tr(table.bytes());
  auto decoder = HuffmanDecoder::from_table(tr);
  ASSERT_TRUE(decoder.has_value());
  const Bytes payload = bits.finish();
  BitReader reader(payload);
  EXPECT_EQ(decoder->decode(reader), 42);
  EXPECT_EQ(decoder->decode(reader), 42);
}

TEST(Huffman, FullAlphabetRoundTrip) {
  std::array<std::uint64_t, 256> freq{};
  Rng rng(8);
  for (auto& f : freq) f = 1 + rng.next_below(1000);
  const HuffmanEncoder encoder(freq);
  BitWriter bits;
  for (int s = 0; s < 256; ++s) {
    encoder.encode(bits, static_cast<std::uint8_t>(s));
  }
  ByteWriter table;
  encoder.write_table(table);
  ByteReader tr(table.bytes());
  auto decoder = HuffmanDecoder::from_table(tr);
  ASSERT_TRUE(decoder.has_value());
  const Bytes payload = bits.finish();
  BitReader reader(payload);
  for (int s = 0; s < 256; ++s) {
    EXPECT_EQ(decoder->decode(reader), s);
  }
}

TEST(Huffman, CodeLengthsSatisfyKraft) {
  std::array<std::uint64_t, 256> freq{};
  Rng rng(13);
  for (auto& f : freq) f = 1 + rng.next_below(1u << 20);
  const auto lengths = build_code_lengths(freq);
  double kraft = 0;
  for (const auto len : lengths) {
    ASSERT_LE(len, 16);
    if (len > 0) kraft += std::pow(2.0, -len);
  }
  EXPECT_LE(kraft, 1.0 + 1e-9);
}

// --- word-wide bit I/O and table-driven Huffman decode against references ----

// The bit-serial writer, reader and canonical Huffman decoder the codec used
// before it moved to word-wide I/O and a lookup table. The fast versions must
// agree with these on every output, including which operation throws.
class SerialBitWriter {
 public:
  void put_bits(std::uint32_t value, int count) {
    for (int i = count - 1; i >= 0; --i) {
      current_ =
          static_cast<std::uint8_t>((current_ << 1) | ((value >> i) & 1));
      if (++filled_ == 8) {
        buf_.push_back(current_);
        current_ = 0;
        filled_ = 0;
      }
    }
  }
  Bytes finish() {
    while (filled_ != 0) put_bits(0, 1);
    return buf_;
  }

 private:
  Bytes buf_;
  std::uint8_t current_ = 0;
  int filled_ = 0;
};

class SerialBitReader {
 public:
  explicit SerialBitReader(std::span<const std::uint8_t> data)
      : data_(data) {}
  bool get_bit() {
    check(pos_ < data_.size() * 8, "bit reader overrun");
    const bool bit = ((data_[pos_ / 8] >> (7 - pos_ % 8)) & 1) != 0;
    ++pos_;
    return bit;
  }
  std::uint32_t get_bits(int count) {
    std::uint32_t v = 0;
    for (int i = 0; i < count; ++i) v = (v << 1) | (get_bit() ? 1u : 0u);
    return v;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

class CanonicalDecoder {
 public:
  explicit CanonicalDecoder(const std::array<std::uint8_t, 256>& lengths) {
    for (const std::uint8_t len : lengths) {
      if (len > 0) count_[len]++;
    }
    std::uint32_t code = 0;
    std::uint32_t offset = 0;
    for (int len = 1; len <= 16; ++len) {
      first_code_[len] = code;
      offset_[len] = offset;
      code = (code + count_[len]) << 1;
      offset += count_[len];
    }
    symbols_.resize(offset);
    std::array<std::uint32_t, 17> next{};
    for (int s = 0; s < 256; ++s) {
      const int len = lengths[s];
      if (len > 0) {
        symbols_[offset_[len] + next[len]++] = static_cast<std::uint8_t>(s);
      }
    }
  }
  std::uint8_t decode(SerialBitReader& in) const {
    std::uint32_t code = 0;
    for (int len = 1; len <= 16; ++len) {
      code = (code << 1) | (in.get_bit() ? 1u : 0u);
      if (count_[len] != 0 && code >= first_code_[len] &&
          code < first_code_[len] + count_[len]) {
        return symbols_[offset_[len] + (code - first_code_[len])];
      }
    }
    throw Error("invalid Huffman code in bitstream");
  }

 private:
  std::array<std::uint32_t, 17> first_code_{};
  std::array<std::uint32_t, 17> count_{};
  std::array<std::uint32_t, 17> offset_{};
  std::vector<std::uint8_t> symbols_;
};

// Runs `op` on the fast and the reference side; both must return the same
// value or both must throw gb::Error. Returns false once they have thrown.
template <typename Fast, typename Ref>
bool same_outcome(Fast fast, Ref ref, const char* what, int step) {
  std::optional<std::uint32_t> a;
  std::optional<std::uint32_t> b;
  try {
    a = fast();
  } catch (const Error&) {
  }
  try {
    b = ref();
  } catch (const Error&) {
  }
  EXPECT_EQ(a, b) << what << " at step " << step;
  return a.has_value() && b.has_value();
}

// Decodes symbols, each followed by a get_bits of 0..16 bits, until both
// sides throw or the payload is exhausted.
void expect_same_decode(const std::array<std::uint8_t, 256>& lengths,
                        std::span<const std::uint8_t> payload, Rng& rng) {
  ByteWriter table;
  for (const std::uint8_t len : lengths) table.u8(len);
  ByteReader table_reader(table.bytes());
  const auto fast = HuffmanDecoder::from_table(table_reader);
  ASSERT_TRUE(fast.has_value());
  const CanonicalDecoder ref(lengths);
  BitReader fast_bits(payload);
  SerialBitReader ref_bits(payload);
  for (int step = 0; step < 100000; ++step) {
    if (!same_outcome([&] { return fast->decode(fast_bits); },
                      [&] { return ref.decode(ref_bits); }, "decode", step)) {
      return;
    }
    const int count = static_cast<int>(rng.next_below(17));
    if (!same_outcome([&] { return fast_bits.get_bits(count); },
                      [&] { return ref_bits.get_bits(count); }, "get_bits",
                      step)) {
      return;
    }
  }
}

// Frequencies whose Huffman code is complete: skewed random weights, or
// Fibonacci weights deep enough to need 16-bit codes.
std::array<std::uint64_t, 256> random_frequencies(Rng& rng, bool fibonacci) {
  std::array<std::uint64_t, 256> freq{};
  if (fibonacci) {
    std::uint64_t a = 1, b = 1;
    for (int i = 0; i < 40; ++i) {
      freq[static_cast<std::size_t>(i * 5 + rng.next_below(5))] = a;
      const std::uint64_t c = a + b;
      a = b;
      b = c;
    }
    return freq;
  }
  const int used = 2 + static_cast<int>(rng.next_below(255));
  for (int i = 0; i < used; ++i) {
    freq[rng.next_below(256)] =
        1 + rng.next_below(1u << rng.next_below(30));
  }
  return freq;
}

// Length tables the wire can carry but no encoder builds: incomplete,
// over-subscribed, single-symbol and arbitrary.
std::array<std::uint8_t, 256> malformed_lengths(Rng& rng, int shape) {
  std::array<std::uint8_t, 256> lengths{};
  switch (shape) {
    case 0: {  // incomplete: a few long codes
      const int used = 1 + static_cast<int>(rng.next_below(12));
      for (int i = 0; i < used; ++i) {
        lengths[rng.next_below(256)] =
            static_cast<std::uint8_t>(4 + rng.next_below(13));
      }
      break;
    }
    case 1: {  // over-subscribed: many short codes
      const int used = 8 + static_cast<int>(rng.next_below(100));
      for (int i = 0; i < used; ++i) {
        lengths[rng.next_below(256)] =
            static_cast<std::uint8_t>(1 + rng.next_below(6));
      }
      break;
    }
    case 2:  // single symbol
      lengths[rng.next_below(256)] =
          static_cast<std::uint8_t>(1 + rng.next_below(16));
      break;
    default:  // arbitrary lengths 0..16
      for (auto& len : lengths) {
        len = static_cast<std::uint8_t>(rng.next_below(17));
      }
      break;
  }
  return lengths;
}

TEST(BitIo, WriterMatchesBitSerialWriter) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter fast;
    SerialBitWriter ref;
    const int ops = static_cast<int>(rng.next_below(400));
    std::size_t bits = 0;
    for (int i = 0; i < ops; ++i) {
      const int count = static_cast<int>(rng.next_below(33));
      // High garbage bits above `count` must be ignored.
      const auto value = static_cast<std::uint32_t>(rng.next_u64());
      fast.put_bits(value, count);
      ref.put_bits(value, count);
      bits += static_cast<std::size_t>(count);
      ASSERT_EQ(fast.bit_count(), bits);
    }
    ASSERT_EQ(fast.finish(), ref.finish()) << "trial " << trial;
  }
}

TEST(BitIo, ReaderMatchesBitSerialReader) {
  Rng rng(32);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes data(rng.next_below(40));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    BitReader fast(data);
    SerialBitReader ref(data);
    for (int step = 0;; ++step) {
      const int count = static_cast<int>(rng.next_below(33));
      if (!same_outcome([&] { return fast.get_bits(count); },
                        [&] { return ref.get_bits(count); }, "get_bits",
                        step)) {
        break;
      }
    }
  }
}

TEST(HuffmanDifferential, MalformedTablesMatchCanonicalSearch) {
  Rng rng(33);
  for (int trial = 0; trial < 800; ++trial) {
    const auto lengths = malformed_lengths(rng, trial % 4);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    Bytes noise(rng.next_below(64));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
    expect_same_decode(lengths, noise, rng);
  }
}

TEST(HuffmanDifferential, EncodedFlippedAndTruncatedPayloadsMatch) {
  Rng rng(34);
  bool saw_16_bit_code = false;
  for (int trial = 0; trial < 400; ++trial) {
    const auto freq = random_frequencies(rng, trial % 2 == 1);
    const HuffmanEncoder encoder(freq);
    std::array<std::uint8_t, 256> lengths{};
    std::vector<std::uint8_t> alphabet;
    for (int s = 0; s < 256; ++s) {
      lengths[static_cast<std::size_t>(s)] = encoder.codes()[s].length;
      if (freq[static_cast<std::size_t>(s)] > 0) {
        alphabet.push_back(static_cast<std::uint8_t>(s));
      }
      saw_16_bit_code |= encoder.codes()[s].length == 16;
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    // Symbols interleaved with magnitude-like raw fields, as in a frame.
    BitWriter writer;
    for (int i = 0; i < 300; ++i) {
      encoder.encode(writer, alphabet[rng.next_below(alphabet.size())]);
      writer.put_bits(static_cast<std::uint32_t>(rng.next_u64()),
                      static_cast<int>(rng.next_below(17)));
    }
    const Bytes message = writer.finish();
    expect_same_decode(lengths, message, rng);
    Bytes flipped = message;
    for (int f = 0; f < 4; ++f) {
      flipped[rng.next_below(flipped.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    expect_same_decode(lengths, flipped, rng);
    const Bytes truncated(
        message.begin(),
        message.begin() +
            static_cast<std::ptrdiff_t>(rng.next_below(message.size() + 1)));
    expect_same_decode(lengths, truncated, rng);
  }
  EXPECT_TRUE(saw_16_bit_code);
}

// --- libm-free rounding ---------------------------------------------------

// Every float within 4 ulps of each half-integer in [lo, hi].
template <typename Check>
void for_floats_near_half_integers(int lo, int hi, Check check_value) {
  for (int k = lo; k < hi; ++k) {
    float below = static_cast<float>(k) + 0.5f;
    float above = below;
    check_value(below);
    for (int u = 0; u < 4; ++u) {
      below = std::nextafter(below, -std::numeric_limits<float>::infinity());
      above = std::nextafter(above, std::numeric_limits<float>::infinity());
      check_value(below);
      check_value(above);
    }
  }
}

TEST(Rounding, QuantizerMatchesLround) {
  const auto expect_lround = [](float x) {
    ASSERT_EQ(round_half_away(x), std::lround(x)) << x;
  };
  for_floats_near_half_integers(-2048, 2048, expect_lround);
  Rng rng(41);
  for (int i = 0; i < 1000000; ++i) {
    expect_lround(static_cast<float>(rng.uniform(-4096.0, 4096.0)));
  }
  expect_lround(0.0f);
  expect_lround(-0.0f);
}

TEST(Rounding, ColourClampMatchesClampedLround) {
  const auto reference = [](float v) {
    return std::clamp(std::lround(v), 0l, 255l);
  };
  const auto round_to_byte = [](float v) {
    return round_clamped(clamp_channel(v));
  };
  const auto expect_reference = [&](float v) {
    ASSERT_EQ(round_to_byte(v), reference(v)) << v;
  };
  for_floats_near_half_integers(-2, 258, expect_reference);
  Rng rng(42);
  for (int i = 0; i < 1000000; ++i) {
    expect_reference(static_cast<float>(rng.uniform(-1000.0, 1256.0)));
  }
  expect_reference(0.0f);
  expect_reference(-0.0f);
  expect_reference(std::numeric_limits<float>::quiet_NaN());
  expect_reference(-std::numeric_limits<float>::infinity());
  // lround(+inf) is unspecified (LONG_MIN on x86-64, LONG_MAX on AArch64);
  // the clamp saturates. Decoded colours are finite, so this never decides
  // a pixel.
  EXPECT_EQ(round_to_byte(std::numeric_limits<float>::infinity()), 255);
}

// --- Turbo codec --------------------------------------------------------------

class TurboQuality : public ::testing::TestWithParam<int> {};

TEST_P(TurboQuality, KeyframeRoundTripsWithReasonableFidelity) {
  TurboConfig config;
  config.quality = GetParam();
  TurboEncoder encoder(config);
  TurboDecoder decoder;
  const Image src = gradient_image(64, 48);
  const Bytes encoded = encoder.encode(src);
  const auto out = decoder.decode(encoded);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->width(), 64);
  EXPECT_EQ(out->height(), 48);
  const double quality_db = psnr(src, *out);
  EXPECT_GT(quality_db, GetParam() >= 75 ? 30.0 : 22.0)
      << "quality=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Qualities, TurboQuality,
                         ::testing::Values(30, 50, 75, 90));

TEST(Turbo, StaticSecondFrameIsTiny) {
  TurboEncoder encoder;
  TurboDecoder decoder;
  const Image src = gradient_image(64, 64);
  const Bytes key = encoder.encode(src);
  ASSERT_TRUE(decoder.decode(key).has_value());
  const Bytes delta = encoder.encode(src);  // unchanged content
  EXPECT_LT(delta.size(), key.size() / 4);
  EXPECT_EQ(encoder.last_stats().tiles_coded, 0);
  const auto out = decoder.decode(delta);
  ASSERT_TRUE(out.has_value());
  EXPECT_GT(psnr(src, *out), 30.0);
}

TEST(Turbo, LocalizedChangeCodesFewTiles) {
  TurboEncoder encoder;
  TurboDecoder decoder;
  Image frame = gradient_image(128, 128);
  ASSERT_TRUE(decoder.decode(encoder.encode(frame)).has_value());
  // Change a 16x16 region well inside one tile neighbourhood.
  for (int y = 40; y < 56; ++y) {
    for (int x = 40; x < 56; ++x) {
      std::uint8_t* p = frame.pixel(x, y);
      p[0] = 255;
      p[1] = 0;
      p[2] = 0;
    }
  }
  const Bytes delta = encoder.encode(frame);
  const auto& stats = encoder.last_stats();
  EXPECT_FALSE(stats.keyframe);
  EXPECT_LE(stats.tiles_coded, 4);
  EXPECT_EQ(stats.tiles_total, 64);
  const auto out = decoder.decode(delta);
  ASSERT_TRUE(out.has_value());
  EXPECT_GT(psnr(frame, *out), 28.0);
}

TEST(Turbo, DecoderTracksLongSessionsWithoutDrift) {
  // Fidelity must stay stable across many delta frames: the last frame's
  // PSNR must sit in the same band as the first's (no cumulative drift).
  TurboEncoder encoder;
  TurboDecoder decoder;
  double last_psnr = 0;
  Image last_frame;
  for (int i = 0; i < 30; ++i) {
    last_frame = gradient_image(64, 64, i * 3);
    const auto out = decoder.decode(encoder.encode(last_frame));
    ASSERT_TRUE(out.has_value());
    last_psnr = psnr(last_frame, *out);
    ASSERT_GT(last_psnr, 22.0) << "frame " << i;
  }
  // No cumulative drift: the session's final fidelity matches what a fresh
  // keyframe encode of the same content achieves (content-dependent, so
  // compare against that, not against frame 0).
  TurboEncoder fresh_encoder;
  TurboDecoder fresh_decoder;
  const auto fresh = fresh_decoder.decode(fresh_encoder.encode(last_frame));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_GT(last_psnr, psnr(last_frame, *fresh) - 2.0);
}

TEST(Turbo, NonMacroblockAlignedDimensions) {
  TurboEncoder encoder;
  TurboDecoder decoder;
  const Image src = gradient_image(70, 45);  // not multiples of 16
  const auto out = decoder.decode(encoder.encode(src));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->width(), 70);
  EXPECT_EQ(out->height(), 45);
  EXPECT_GT(psnr(src, *out), 25.0);
}

TEST(Turbo, DecoderRejectsDeltaWithoutKeyframe) {
  TurboEncoder encoder;
  const Image src = gradient_image(32, 32);
  encoder.encode(src);                      // keyframe discarded
  const Bytes delta = encoder.encode(src);  // delta frame
  TurboDecoder cold;
  EXPECT_FALSE(cold.decode(delta).has_value());
}

TEST(Turbo, DecoderRejectsGarbage) {
  TurboDecoder decoder;
  const Bytes garbage = {1, 2, 3, 4, 5};
  EXPECT_FALSE(decoder.decode(garbage).has_value());
}

TEST(Turbo, ResetForcesKeyframe) {
  TurboEncoder encoder;
  const Image src = gradient_image(32, 32);
  encoder.encode(src);
  encoder.reset();
  encoder.encode(src);
  EXPECT_TRUE(encoder.last_stats().keyframe);
}

TEST(Turbo, CompressionBeatsRawSubstantially) {
  TurboEncoder encoder;
  const Image src = gradient_image(320, 240);
  const Bytes encoded = encoder.encode(src);
  // §V-A quotes ratios up to 25:1; smooth content must compress at least 8x.
  EXPECT_LT(encoded.size(), src.byte_size() / 8);
}

// --- reference video codec -----------------------------------------------------

TEST(VideoRef, KeyframeRoundTrip) {
  ReferenceVideoEncoder encoder;
  ReferenceVideoDecoder decoder;
  const Image src = gradient_image(64, 64);
  const auto out = decoder.decode(encoder.encode(src));
  ASSERT_TRUE(out.has_value());
  EXPECT_GT(psnr(src, *out), 28.0);
}

TEST(VideoRef, MotionSearchTracksTranslation) {
  ReferenceVideoEncoder encoder;
  ReferenceVideoDecoder decoder;
  const Image base = detail_image(64, 64);
  const Bytes key = encoder.encode(base);
  ASSERT_TRUE(decoder.decode(key).has_value());
  const Image moved = shifted(base, 5, -3);
  const Bytes inter = encoder.encode(moved);
  EXPECT_GT(encoder.last_stats().sad_evaluations, 1000u);
  // Motion compensation makes the inter frame much cheaper than the key.
  EXPECT_LT(inter.size(), key.size() / 2);
  const auto out = decoder.decode(inter);
  ASSERT_TRUE(out.has_value());
  EXPECT_GT(psnr(moved, *out), 26.0);
}

TEST(VideoRef, InterFrameSmallerThanIntraForPan) {
  // On panning noisy content, motion compensation must beat re-coding from
  // scratch (the structural advantage x264 has over the Turbo tile codec).
  const Image base = noisy_image(96, 96, 9);
  const Image moved = shifted(base, 4, 2);

  ReferenceVideoEncoder video;
  video.encode(base);
  const Bytes inter = video.encode(moved);

  TurboEncoder turbo;
  turbo.encode(base);
  const Bytes turbo_delta = turbo.encode(moved);

  EXPECT_LT(inter.size(), turbo_delta.size());
}

TEST(VideoRef, DecoderRejectsDeltaWithoutKeyframe) {
  ReferenceVideoEncoder encoder;
  const Image src = gradient_image(32, 32);
  encoder.encode(src);
  const Bytes delta = encoder.encode(src);
  ReferenceVideoDecoder cold;
  EXPECT_FALSE(cold.decode(delta).has_value());
}

TEST(VideoRef, LongSessionWithoutDrift) {
  ReferenceVideoEncoder encoder;
  ReferenceVideoDecoder decoder;
  for (int i = 0; i < 15; ++i) {
    const Image frame = gradient_image(48, 48, i * 5);
    const auto out = decoder.decode(encoder.encode(frame));
    ASSERT_TRUE(out.has_value());
    ASSERT_GT(psnr(frame, *out), 24.0) << "frame " << i;
  }
}

// --- bitstream and pixel pins ----------------------------------------------

// Hashes of every encoded byte and every decoded pixel of three streams,
// pinned so that a speed-up of the codec internals cannot change a single
// bit of what goes on the wire or reaches the screen. The values must hold in
// the default, Release and GB_SIMD=OFF builds alike.
struct StreamHash {
  std::uint64_t bytes = 0;
  std::uint64_t pixels = 0;
};

// 24 G1 frames at 300x240, quality 70, skip threshold 2: the stream the
// offload_pixels benchmark codes, with touch bursts and a scene change.
StreamHash hash_g1_turbo_stream() {
  test_support::Fnv1a bytes;
  test_support::Fnv1a pixels;
  gles::DirectBackend backend(300, 240, {});
  apps::GameApp app(apps::g1_gta_san_andreas(), backend, 300, 240, Rng(1));
  app.setup();
  TurboConfig config;
  config.quality = 70;
  config.skip_threshold = 2;
  TurboEncoder encoder(config);
  TurboDecoder decoder;
  int tiles_coded = 0;
  int tiles_total = 0;
  for (int f = 0; f < 24; ++f) {
    if (f == 12) app.trigger_scene_change();
    app.render_frame(f / 30.0, f % 5 == 0);
    const Bytes encoded = encoder.encode(backend.context().color_buffer());
    tiles_coded += encoder.last_stats().tiles_coded;
    tiles_total += encoder.last_stats().tiles_total;
    bytes.add_u64(encoded.size());
    bytes.add(encoded);
    const auto out = decoder.decode(encoded);
    EXPECT_TRUE(out.has_value()) << "frame " << f;
    if (out) pixels.add(out->bytes());
  }
  // The pin covers both coded and skipped tiles.
  EXPECT_GT(tiles_coded, 0);
  EXPECT_LT(tiles_coded, tiles_total);
  return {bytes.value(), pixels.value()};
}

// A 96x72 synthetic stream whose quality and skip threshold change in
// mid-stream, mixing smooth motion with a noisy patch.
StreamHash hash_retuned_turbo_stream() {
  test_support::Fnv1a bytes;
  test_support::Fnv1a pixels;
  TurboEncoder encoder;
  TurboDecoder decoder;
  const Image noise = noisy_image(96, 72, 21);
  for (int f = 0; f < 16; ++f) {
    if (f == 4) encoder.set_quality(35);
    if (f == 7) encoder.set_skip_threshold(0);
    if (f == 10) encoder.set_quality(95);
    if (f == 12) encoder.set_skip_threshold(9);
    Image frame = gradient_image(96, 72, f * 2);
    for (int y = 20; y < 52; ++y) {
      for (int x = 8 + f; x < 40 + f; ++x) {
        std::memcpy(frame.pixel(x, y), noise.pixel(x, y), 4);
      }
    }
    const Bytes encoded = encoder.encode(frame);
    bytes.add_u64(encoded.size());
    bytes.add(encoded);
    const auto out = decoder.decode(encoded);
    EXPECT_TRUE(out.has_value()) << "frame " << f;
    if (out) pixels.add(out->bytes());
  }
  return {bytes.value(), pixels.value()};
}

// The motion-compensated reference codec shares code_block and decode_block.
StreamHash hash_video_ref_stream() {
  test_support::Fnv1a bytes;
  test_support::Fnv1a pixels;
  ReferenceVideoEncoder encoder(VideoRefConfig{60, 4});
  ReferenceVideoDecoder decoder;
  const Image base = detail_image(64, 48);
  for (int f = 0; f < 5; ++f) {
    const Bytes encoded = encoder.encode(shifted(base, f * 2, -f));
    bytes.add_u64(encoded.size());
    bytes.add(encoded);
    const auto out = decoder.decode(encoded);
    EXPECT_TRUE(out.has_value()) << "frame " << f;
    if (out) pixels.add(out->bytes());
  }
  return {bytes.value(), pixels.value()};
}

TEST(TurboGolden, BitstreamsAndDecodedPixelsArePinned) {
  const StreamHash g1 = hash_g1_turbo_stream();
  EXPECT_EQ(g1.bytes, 0x93457d67e7e59bfdull);
  EXPECT_EQ(g1.pixels, 0xde2879ea2f22794cull);
  const StreamHash retuned = hash_retuned_turbo_stream();
  EXPECT_EQ(retuned.bytes, 0x3b403b5b7775b34full);
  EXPECT_EQ(retuned.pixels, 0xd337509cec325474ull);
  const StreamHash video = hash_video_ref_stream();
  EXPECT_EQ(video.bytes, 0xa3dd6f1f9a65e663ull);
  EXPECT_EQ(video.pixels, 0xababaded84b5de17ull);
}

TEST(Psnr, IdenticalImagesAreInfinite) {
  const Image a = gradient_image(16, 16);
  EXPECT_TRUE(std::isinf(psnr(a, a)));
}

TEST(Psnr, KnownDifference) {
  Image a(4, 4);
  Image b(4, 4);
  a.fill(100, 100, 100);
  b.fill(110, 110, 110);  // uniform delta of 10
  EXPECT_NEAR(psnr(a, b), 20.0 * std::log10(255.0 / 10.0), 1e-6);
}

}  // namespace
}  // namespace gb::codec
