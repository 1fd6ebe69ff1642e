#include "codec/block_coding.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/error.h"
#include "common/simd.h"

namespace gb::codec {
namespace {

// Standard JPEG Annex K quantization tables.
constexpr std::array<int, 64> kLumaQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::array<int, 64> kChromaQuant = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

constexpr std::array<int, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

std::array<int, 64> scaled_quant(const std::array<int, 64>& base, int quality) {
  quality = std::clamp(quality, 1, 100);
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<int, 64> out{};
  for (int i = 0; i < 64; ++i) {
    out[static_cast<std::size_t>(i)] = std::clamp(
        (base[static_cast<std::size_t>(i)] * scale + 50) / 100, 1, 255);
  }
  return out;
}

int bit_size(int v) {
  return std::bit_width(static_cast<unsigned>(std::abs(v)));
}

std::uint32_t magnitude_bits(int v, int size) {
  return v >= 0 ? static_cast<std::uint32_t>(v)
                : static_cast<std::uint32_t>(v + (1 << size) - 1);
}

std::array<int, 64> quantize(const Block8x8& spatial,
                             const std::array<int, 64>& quant) {
  Block8x8 freq = spatial;
  forward_dct(freq);
  std::array<int, 64> q;
  GB_SIMD_LOOP
  for (int i = 0; i < 64; ++i) {
    q[static_cast<std::size_t>(i)] =
        round_half_away(freq[static_cast<std::size_t>(i)] /
                        static_cast<float>(quant[static_cast<std::size_t>(i)]));
  }
  return q;
}

// Appends the (run,size) units of quantized block `q`; returns its DC.
int run_length_code(const std::array<int, 64>& q, int dc_predictor,
                    std::vector<CodedUnit>& units) {
  const int dc = q[0];
  const int diff = dc - dc_predictor;
  const int dsize = bit_size(diff);
  units.push_back(CodedUnit{static_cast<std::uint8_t>(dsize),
                            magnitude_bits(diff, dsize),
                            static_cast<std::uint8_t>(dsize)});
  // Bit i marks a nonzero AC coefficient at zigzag position i, so the walk
  // below visits only the nonzero ones instead of branching on all 63.
  std::uint64_t nonzero = 0;
  for (int i = 1; i < 64; ++i) {
    nonzero |= std::uint64_t{q[static_cast<std::size_t>(
                   kZigzag[static_cast<std::size_t>(i)])] != 0}
               << i;
  }
  int last = 0;  // zigzag position of the previous coded coefficient
  for (; nonzero != 0; nonzero &= nonzero - 1) {
    const int i = std::countr_zero(nonzero);
    int run = i - last - 1;
    while (run >= 16) {
      units.push_back(CodedUnit{kZrlSymbol, 0, 0});
      run -= 16;
    }
    const int v =
        q[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(i)])];
    const int size = bit_size(v);
    units.push_back(
        CodedUnit{static_cast<std::uint8_t>((run << 4) | size),
                  magnitude_bits(v, size), static_cast<std::uint8_t>(size)});
    last = i;
  }
  if (last < 63) units.push_back(CodedUnit{kEobSymbol, 0, 0});
  return dc;
}

}  // namespace

const std::array<int, 64>& zigzag_order() { return kZigzag; }

std::array<int, 64> luma_quant(int quality) {
  return scaled_quant(kLumaQuant, quality);
}

std::array<int, 64> chroma_quant(int quality) {
  return scaled_quant(kChromaQuant, quality);
}

int code_block(const Block8x8& spatial, const std::array<int, 64>& quant,
               int dc_predictor, std::vector<CodedUnit>& units) {
  return run_length_code(quantize(spatial, quant), dc_predictor, units);
}

int code_block(const Block8x8& spatial, const std::array<int, 64>& quant,
               int dc_predictor, std::vector<CodedUnit>& units,
               Block8x8& recon) {
  const std::array<int, 64> q = quantize(spatial, quant);
  dequantize_block(q, quant, recon);
  return run_length_code(q, dc_predictor, units);
}

void dequantize_block(const std::array<int, 64>& q,
                      const std::array<int, 64>& quant, Block8x8& recon) {
  // Exact integer products per lane, safe to vectorize without changing
  // results.
  GB_SIMD_LOOP
  for (int i = 0; i < 64; ++i) {
    recon[static_cast<std::size_t>(i)] =
        static_cast<float>(q[static_cast<std::size_t>(i)] *
                           quant[static_cast<std::size_t>(i)]);
  }
  inverse_dct(recon);
}

int decode_block(BitReader& bits, const HuffmanDecoder& huff,
                 const std::array<int, 64>& quant, int dc_predictor,
                 Block8x8& recon) {
  std::array<int, 64> q{};
  const std::uint8_t dsize = huff.decode(bits);
  check(dsize <= 15, "bad DC size symbol");
  const int diff = decode_magnitude(bits.get_bits(dsize), dsize);
  const int dc = dc_predictor + diff;
  q[0] = dc;
  int i = 1;
  while (i < 64) {
    const std::uint8_t symbol = huff.decode(bits);
    if (symbol == kEobSymbol) break;
    if (symbol == kZrlSymbol) {
      i += 16;
      continue;
    }
    const int run = symbol >> 4;
    const int size = symbol & 0x0f;
    check(size > 0, "bad AC symbol");
    i += run;
    check(i < 64, "AC coefficient index out of range");
    q[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(i)])] =
        decode_magnitude(bits.get_bits(size), size);
    ++i;
  }
  dequantize_block(q, quant, recon);
  return dc;
}

void write_units(BitWriter& out, const HuffmanEncoder& huff,
                 std::span<const CodedUnit> units) {
  // A code (at most 16 bits) and its magnitude field (at most 15) go out as
  // one put_bits; magnitude_bits never sets bits above bit_count.
  const std::array<HuffmanCode, 256>& codes = huff.codes();
  for (const CodedUnit& u : units) {
    const HuffmanCode& c = codes[u.symbol];
    check(c.length > 0, "encoding symbol absent from Huffman table");
    out.put_bits(static_cast<std::uint32_t>(c.bits) << u.bit_count | u.bits,
                 c.length + u.bit_count);
  }
}

Macroblock extract_macroblock(const Image& img, int tx, int ty) {
  // Runs per coded tile, so it walks row pointers instead of bounds-checked
  // pixel() calls. Each row's 16 pixels are gathered first (the min() clamps
  // replicate the right and bottom edges), so the colour convert is one
  // lane-independent loop.
  Macroblock mb;
  std::array<float, 256> cb_full;
  std::array<float, 256> cr_full;
  const int x_last = img.width() - 1;
  for (int y = 0; y < 16; ++y) {
    const std::uint8_t* row = img.row(std::min(ty + y, img.height() - 1));
    std::array<std::uint8_t, 64> px;
    if (tx + 16 <= img.width()) {
      std::memcpy(px.data(), row + static_cast<std::size_t>(tx) * 4, 64);
    } else {
      for (int x = 0; x < 16; ++x) {
        const auto sx = static_cast<std::size_t>(std::min(tx + x, x_last));
        std::memcpy(&px[static_cast<std::size_t>(x) * 4], row + sx * 4, 4);
      }
    }
    GB_SIMD_LOOP
    for (int x = 0; x < 16; ++x) {
      const float rf = px[static_cast<std::size_t>(x * 4)];
      const float gf = px[static_cast<std::size_t>(x * 4 + 1)];
      const float bf = px[static_cast<std::size_t>(x * 4 + 2)];
      const float yv = 0.299f * rf + 0.587f * gf + 0.114f * bf;
      const auto i = static_cast<std::size_t>(y * 16 + x);
      mb.y[i] = yv - 128.0f;
      cb_full[i] = 128.0f + 0.564f * (bf - yv);
      cr_full[i] = 128.0f + 0.713f * (rf - yv);
    }
  }
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      float cb = 0, cr = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const auto i =
              static_cast<std::size_t>((y * 2 + dy) * 16 + x * 2 + dx);
          cb += cb_full[i];
          cr += cr_full[i];
        }
      }
      mb.cb[static_cast<std::size_t>(y * 8 + x)] = cb * 0.25f - 128.0f;
      mb.cr[static_cast<std::size_t>(y * 8 + x)] = cr * 0.25f - 128.0f;
    }
  }
  return mb;
}

void store_macroblock(Image& img, int tx, int ty, const Macroblock& mb) {
  // The chroma terms of the colour convert are computed once per chroma
  // sample instead of once per pixel (the same float expressions, so the
  // same values). Each row is then converted, clamped and rounded in three
  // lane-independent loops, and the part inside the image is copied out.
  std::array<float, 64> cr_to_r;
  std::array<float, 64> cb_to_g;
  std::array<float, 64> cr_to_g;
  std::array<float, 64> cb_to_b;
  GB_SIMD_LOOP
  for (int i = 0; i < 64; ++i) {
    const float cb = mb.cb[static_cast<std::size_t>(i)] + 128.0f;
    const float cr = mb.cr[static_cast<std::size_t>(i)] + 128.0f;
    cr_to_r[static_cast<std::size_t>(i)] = 1.402f * (cr - 128.0f);
    cb_to_g[static_cast<std::size_t>(i)] = 0.344136f * (cb - 128.0f);
    cr_to_g[static_cast<std::size_t>(i)] = 0.714136f * (cr - 128.0f);
    cb_to_b[static_cast<std::size_t>(i)] = 1.772f * (cb - 128.0f);
  }
  const int rows = std::min(16, img.height() - ty);
  const auto row_bytes =
      static_cast<std::size_t>(std::min(16, img.width() - tx)) * 4;
  for (int y = 0; y < rows; ++y) {
    // Planar R, G, B of the row's 16 pixels.
    std::array<float, 48> rgb;
    GB_SIMD_LOOP
    for (int x = 0; x < 16; ++x) {
      const float yy = mb.y[static_cast<std::size_t>(y * 16 + x)] + 128.0f;
      const auto c = static_cast<std::size_t>((y / 2) * 8 + x / 2);
      rgb[static_cast<std::size_t>(x)] = yy + cr_to_r[c];
      rgb[static_cast<std::size_t>(16 + x)] = yy - cb_to_g[c] - cr_to_g[c];
      rgb[static_cast<std::size_t>(32 + x)] = yy + cb_to_b[c];
    }
    GB_SIMD_LOOP
    for (int i = 0; i < 48; ++i) {
      rgb[static_cast<std::size_t>(i)] =
          clamp_channel(rgb[static_cast<std::size_t>(i)]);
    }
    std::array<int, 48> rounded;
    GB_SIMD_LOOP
    for (int i = 0; i < 48; ++i) {
      rounded[static_cast<std::size_t>(i)] =
          round_clamped(rgb[static_cast<std::size_t>(i)]);
    }
    std::array<std::uint8_t, 64> rgba;
    for (int x = 0; x < 16; ++x) {
      for (int ch = 0; ch < 3; ++ch) {
        rgba[static_cast<std::size_t>(x * 4 + ch)] = static_cast<std::uint8_t>(
            rounded[static_cast<std::size_t>(ch * 16 + x)]);
      }
      rgba[static_cast<std::size_t>(x * 4 + 3)] = 255;
    }
    std::uint8_t* out = img.row(ty + y) + static_cast<std::size_t>(tx) * 4;
    if (row_bytes == rgba.size()) {
      std::memcpy(out, rgba.data(), rgba.size());  // inlined fixed-size copy
    } else {
      std::memcpy(out, rgba.data(), row_bytes);
    }
  }
}

Block8x8 y_subblock(const std::array<float, 256>& plane, int bx, int by) {
  Block8x8 block{};
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      block[static_cast<std::size_t>(y * 8 + x)] =
          plane[static_cast<std::size_t>((by * 8 + y) * 16 + bx * 8 + x)];
    }
  }
  return block;
}

void set_y_subblock(std::array<float, 256>& plane, int bx, int by,
                    const Block8x8& block) {
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      plane[static_cast<std::size_t>((by * 8 + y) * 16 + bx * 8 + x)] =
          block[static_cast<std::size_t>(y * 8 + x)];
    }
  }
}

bool tile_changed(const Image& a, const Image& b, int tx, int ty, int size,
                  int threshold) {
  // This runs on every tile of every frame, so it walks row pointers instead
  // of bounds-checked pixel() calls and stops at the first row over the
  // threshold. |a - b| is max - min on bytes, and the per-row max reduction
  // is exact integer math: vectorizing it cannot change the result. Alpha
  // lanes are masked to zero so the comparison stays RGB-only.
  const int y_end = std::min(ty + size, a.height());
  const int x_end = std::min(tx + size, a.width());
  const int lanes = (x_end - tx) * 4;
  for (int y = ty; y < y_end; ++y) {
    const std::uint8_t* ra = a.row(y) + static_cast<std::size_t>(tx) * 4;
    const std::uint8_t* rb = b.row(y) + static_cast<std::size_t>(tx) * 4;
    std::uint8_t row_max = 0;
    GB_SIMD_PRAGMA(omp simd reduction(max : row_max))
    for (int i = 0; i < lanes; ++i) {
      const auto d = static_cast<std::uint8_t>(std::max(ra[i], rb[i]) -
                                               std::min(ra[i], rb[i]));
      row_max = std::max(row_max, (i & 3) == 3 ? std::uint8_t{0} : d);
    }
    if (row_max > threshold) return true;
  }
  return false;
}

}  // namespace gb::codec
