#include "codec/video_ref.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "codec/block_coding.h"
#include "common/error.h"

namespace gb::codec {
namespace {

// Extracts a macroblock whose origin may lie outside the image (motion
// compensation can reference clamped border pixels on any side).
Macroblock extract_clamped(const Image& img, int tx, int ty) {
  // extract_macroblock clamps only the high side; pre-clamp the low side.
  if (tx >= 0 && ty >= 0) return extract_macroblock(img, tx, ty);
  Macroblock mb;
  // Rare path (blocks at the top/left border with negative vectors): sample
  // pixel by pixel. Build a temporary 16x16 image and reuse the extractor.
  Image patch(16, 16);
  for (int y = 0; y < 16; ++y) {
    const int sy = std::clamp(ty + y, 0, img.height() - 1);
    for (int x = 0; x < 16; ++x) {
      const int sx = std::clamp(tx + x, 0, img.width() - 1);
      std::copy_n(img.pixel(sx, sy), 4, patch.pixel(x, y));
    }
  }
  return extract_macroblock(patch, 0, 0);
}

// Sum of absolute differences over the RGB channels of two 16x16 regions.
std::uint32_t block_sad(const Image& cur, int cx, int cy, const Image& ref,
                        int rx, int ry) {
  std::uint32_t sad = 0;
  for (int y = 0; y < 16; ++y) {
    const int sy = std::min(cy + y, cur.height() - 1);
    const int ty = std::clamp(ry + y, 0, ref.height() - 1);
    for (int x = 0; x < 16; ++x) {
      const int sx = std::min(cx + x, cur.width() - 1);
      const int tx = std::clamp(rx + x, 0, ref.width() - 1);
      const std::uint8_t* a = cur.pixel(sx, sy);
      const std::uint8_t* b = ref.pixel(tx, ty);
      for (int c = 0; c < 3; ++c) {
        sad += static_cast<std::uint32_t>(
            std::abs(static_cast<int>(a[c]) - static_cast<int>(b[c])));
      }
    }
  }
  return sad;
}

Macroblock subtract(const Macroblock& a, const Macroblock& b) {
  Macroblock r;
  for (std::size_t i = 0; i < a.y.size(); ++i) r.y[i] = a.y[i] - b.y[i];
  for (std::size_t i = 0; i < a.cb.size(); ++i) r.cb[i] = a.cb[i] - b.cb[i];
  for (std::size_t i = 0; i < a.cr.size(); ++i) r.cr[i] = a.cr[i] - b.cr[i];
  return r;
}

Macroblock add(const Macroblock& a, const Macroblock& b) {
  Macroblock r;
  for (std::size_t i = 0; i < a.y.size(); ++i) r.y[i] = a.y[i] + b.y[i];
  for (std::size_t i = 0; i < a.cb.size(); ++i) r.cb[i] = a.cb[i] + b.cb[i];
  for (std::size_t i = 0; i < a.cr.size(); ++i) r.cr[i] = a.cr[i] + b.cr[i];
  return r;
}

// Residual macroblocks are centred on 0 already (difference of level-shifted
// planes), so both codecs share code_block unchanged.
struct CodedMacroblock {
  std::int8_t mv_x = 0;
  std::int8_t mv_y = 0;
};

}  // namespace

ReferenceVideoEncoder::ReferenceVideoEncoder(VideoRefConfig config)
    : config_(config) {
  check(config_.search_range >= 0 && config_.search_range <= 127,
        "search range out of range");
}

void ReferenceVideoEncoder::reset() { reference_ = Image(); }

Bytes ReferenceVideoEncoder::encode(const Image& frame) {
  check(!frame.empty(), "cannot encode empty frame");
  const bool keyframe = reference_.width() != frame.width() ||
                        reference_.height() != frame.height();
  if (keyframe) reference_ = Image(frame.width(), frame.height());
  stats_ = VideoRefStats{};
  stats_.keyframe = keyframe;

  const int tiles_x = (frame.width() + 15) / 16;
  const int tiles_y = (frame.height() + 15) / 16;
  const int tile_count = tiles_x * tiles_y;

  std::vector<CodedMacroblock> mvs(static_cast<std::size_t>(tile_count));
  std::vector<CodedUnit> units;
  const auto luma_q = luma_quant(config_.quality);
  const auto chroma_q = chroma_quant(config_.quality);

  // Predict strictly from the previous reconstructed frame; reconstruction
  // goes into `next` so intra-frame macroblock order cannot cause encoder/
  // decoder drift.
  Image next = reference_;
  int dc_y = 0, dc_cb = 0, dc_cr = 0;
  for (int t = 0; t < tile_count; ++t) {
    const int tx = (t % tiles_x) * 16;
    const int ty = (t / tiles_x) * 16;
    const Macroblock cur = extract_macroblock(frame, tx, ty);
    Macroblock prediction;  // zero for intra
    if (!keyframe) {
      // Exhaustive full search — the deliberate CPU cost of this encoder.
      std::uint32_t best_sad = 0xffffffffu;
      int best_dx = 0, best_dy = 0;
      const int r = config_.search_range;
      for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx) {
          const std::uint32_t sad =
              block_sad(frame, tx, ty, reference_, tx + dx, ty + dy);
          stats_.sad_evaluations++;
          if (sad < best_sad) {
            best_sad = sad;
            best_dx = dx;
            best_dy = dy;
          }
        }
      }
      mvs[static_cast<std::size_t>(t)] = {static_cast<std::int8_t>(best_dx),
                                          static_cast<std::int8_t>(best_dy)};
      prediction = extract_clamped(reference_, tx + best_dx, ty + best_dy);
    }
    const Macroblock residual = keyframe ? cur : subtract(cur, prediction);

    Macroblock recon_residual;
    for (int by = 0; by < 2; ++by) {
      for (int bx = 0; bx < 2; ++bx) {
        Block8x8 recon{};
        dc_y = code_block(y_subblock(residual.y, bx, by), luma_q, dc_y, units,
                          recon);
        set_y_subblock(recon_residual.y, bx, by, recon);
      }
    }
    dc_cb = code_block(residual.cb, chroma_q, dc_cb, units, recon_residual.cb);
    dc_cr = code_block(residual.cr, chroma_q, dc_cr, units, recon_residual.cr);
    const Macroblock recon_mb =
        keyframe ? recon_residual : add(prediction, recon_residual);
    store_macroblock(next, tx, ty, recon_mb);
  }
  reference_ = std::move(next);

  std::array<std::uint64_t, 256> freq{};
  for (const CodedUnit& u : units) freq[u.symbol]++;
  if (units.empty()) freq[kEobSymbol] = 1;

  ByteWriter out;
  out.u16(narrow<std::uint16_t>(frame.width()));
  out.u16(narrow<std::uint16_t>(frame.height()));
  out.u8(static_cast<std::uint8_t>(config_.quality));
  out.u8(keyframe ? 1 : 0);
  if (!keyframe) {
    for (const CodedMacroblock& mb : mvs) {
      out.u8(static_cast<std::uint8_t>(mb.mv_x));
      out.u8(static_cast<std::uint8_t>(mb.mv_y));
    }
  }
  const HuffmanEncoder huff(freq);
  huff.write_table(out);
  BitWriter bits;
  write_units(bits, huff, units);
  out.blob(bits.finish());
  stats_.encoded_bytes = out.size();
  return out.take();
}

std::optional<Image> ReferenceVideoDecoder::decode(
    std::span<const std::uint8_t> data) {
  try {
    ByteReader in(data);
    const int width = in.u16();
    const int height = in.u16();
    const int quality = in.u8();
    const bool keyframe = in.u8() != 0;
    if (width == 0 || height == 0) return std::nullopt;
    if (keyframe || reference_.width() != width ||
        reference_.height() != height) {
      if (!keyframe) return std::nullopt;
      reference_ = Image(width, height);
    }
    const int tiles_x = (width + 15) / 16;
    const int tiles_y = (height + 15) / 16;
    const int tile_count = tiles_x * tiles_y;

    std::vector<CodedMacroblock> mvs(static_cast<std::size_t>(tile_count));
    if (!keyframe) {
      for (CodedMacroblock& mb : mvs) {
        mb.mv_x = static_cast<std::int8_t>(in.u8());
        mb.mv_y = static_cast<std::int8_t>(in.u8());
      }
    }
    auto huff = HuffmanDecoder::from_table(in);
    if (!huff) return std::nullopt;
    const auto payload = in.blob();
    BitReader bits(payload);

    const auto luma_q = luma_quant(quality);
    const auto chroma_q = chroma_quant(quality);
    Image next = reference_;
    int dc_y = 0, dc_cb = 0, dc_cr = 0;
    for (int t = 0; t < tile_count; ++t) {
      const int tx = (t % tiles_x) * 16;
      const int ty = (t / tiles_x) * 16;
      Macroblock residual;
      for (int by = 0; by < 2; ++by) {
        for (int bx = 0; bx < 2; ++bx) {
          Block8x8 recon{};
          dc_y = decode_block(bits, *huff, luma_q, dc_y, recon);
          set_y_subblock(residual.y, bx, by, recon);
        }
      }
      dc_cb = decode_block(bits, *huff, chroma_q, dc_cb, residual.cb);
      dc_cr = decode_block(bits, *huff, chroma_q, dc_cr, residual.cr);
      Macroblock recon_mb = residual;
      if (!keyframe) {
        const CodedMacroblock& mv = mvs[static_cast<std::size_t>(t)];
        const Macroblock prediction =
            extract_clamped(reference_, tx + mv.mv_x, ty + mv.mv_y);
        recon_mb = add(prediction, residual);
      }
      store_macroblock(next, tx, ty, recon_mb);
    }
    reference_ = std::move(next);
    return reference_;
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace gb::codec
