// Shared JPEG-style transform-coding machinery used by both frame codecs:
// quality-scaled quantization tables, (run,size) symbol generation with
// optional in-loop reconstruction, canonical-Huffman entropy helpers,
// RGB<->YCbCr conversion, and 4:2:0 macroblock plane handling.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "codec/bitstream.h"
#include "codec/dct.h"
#include "codec/huffman.h"
#include "common/image.h"

namespace gb::codec {

// Quality-scaled (1..100) JPEG Annex-K quantization tables.
std::array<int, 64> luma_quant(int quality);
std::array<int, 64> chroma_quant(int quality);

// JPEG zigzag scan order: maps coefficient-stream position to raster index
// within an 8x8 block. Exposed for decoders that buffer (run,size) symbols
// and rebuild blocks outside decode_block (the parallel Turbo decoder).
const std::array<int, 64>& zigzag_order();

// A symbol plus optional raw magnitude bits, buffered so a per-frame Huffman
// table can be built before the bitstream is written.
struct CodedUnit {
  std::uint8_t symbol;
  std::uint32_t bits;
  std::uint8_t bit_count;
};

inline constexpr std::uint8_t kEobSymbol = 0x00;
inline constexpr std::uint8_t kZrlSymbol = 0xF0;

// The coefficient whose `size`-bit magnitude field (JPEG one's-complement
// form for negatives) is `bits`.
inline int decode_magnitude(std::uint32_t bits, int size) {
  if (size == 0) return 0;
  const std::uint32_t half = 1u << (size - 1);
  return bits >= half ? static_cast<int>(bits)
                      : static_cast<int>(bits) - (1 << size) + 1;
}

// Transforms, quantizes and run-length codes one 8x8 block. Appends symbols
// to `units` and returns the quantized DC coefficient (the caller's next DC
// predictor).
int code_block(const Block8x8& spatial, const std::array<int, 64>& quant,
               int dc_predictor, std::vector<CodedUnit>& units);

// As above, and also writes the dequantized in-loop reconstruction to
// `recon`, which a motion-compensated coder predicts from.
int code_block(const Block8x8& spatial, const std::array<int, 64>& quant,
               int dc_predictor, std::vector<CodedUnit>& units,
               Block8x8& recon);

// Entropy-codes `units` with `huff`: each unit's symbol code followed by its
// raw magnitude bits.
void write_units(BitWriter& out, const HuffmanEncoder& huff,
                 std::span<const CodedUnit> units);

// Dequantizes raster-order coefficients `q` and inverse-transforms them
// into `recon`.
void dequantize_block(const std::array<int, 64>& q,
                      const std::array<int, 64>& quant, Block8x8& recon);

// Inverse of code_block over a bitstream; returns the new DC predictor.
int decode_block(BitReader& bits, const HuffmanDecoder& huff,
                 const std::array<int, 64>& quant, int dc_predictor,
                 Block8x8& recon);

// The quantizer's rounding: half away from zero, equal to std::lround for
// |x| < 2^31 without the libm call. x - trunc(x) is exact in float, so the
// comparison with +-0.5 sees the true fraction. Branch-free, so the
// quantizer loop vectorizes.
inline int round_half_away(float x) {
  const int t = static_cast<int>(x);
  const float frac = x - static_cast<float>(t);
  return t + (frac >= 0.5f ? 1 : 0) - (frac <= -0.5f ? 1 : 0);
}

// A colour channel rounded and clamped to a byte:
// round_clamped(clamp_channel(v)) equals std::clamp(std::lround(v), 0l, 255l)
// wherever lround is specified, without the libm call. The two steps run as
// separate vectorized loops (fused, the compiler turns the select into a
// branch). clamp_channel clamps first: NaN and everything below 0.5 map to
// 0, everything from 255 up to 255. round_clamped then rounds a value in
// {0} u [0.5, 255]: there v + 0.5f is within one ulp of the exact sum, so
// truncation can only go wrong for v within an ulp of a half-integer, and
// checking those (the Rounding tests) shows it matches lround. The one float
// below 256 where it does not, 0.49999997, is clamped to 0 first.
inline float clamp_channel(float v) {
  const float high = v < 255.0f ? v : 255.0f;
  return v >= 0.5f ? high : 0.0f;
}

inline int round_clamped(float c) { return static_cast<int>(c + 0.5f); }

// Planar 16x16 macroblock in 4:2:0, level-shifted by -128.
struct Macroblock {
  std::array<float, 256> y{};
  std::array<float, 64> cb{};
  std::array<float, 64> cr{};
};

// Extracts a macroblock at (tx, ty) with edge replication at image borders.
Macroblock extract_macroblock(const Image& img, int tx, int ty);

// Writes a reconstructed macroblock back into `img`, clipping at borders.
void store_macroblock(Image& img, int tx, int ty, const Macroblock& mb);

// Access to the four 8x8 luma sub-blocks of a 16x16 plane.
Block8x8 y_subblock(const std::array<float, 256>& plane, int bx, int by);
void set_y_subblock(std::array<float, 256>& plane, int bx, int by,
                    const Block8x8& block);

// Whether the largest per-channel absolute RGB difference within a
// size x size tile exceeds `threshold`.
bool tile_changed(const Image& a, const Image& b, int tx, int ty, int size,
                  int threshold);

}  // namespace gb::codec
