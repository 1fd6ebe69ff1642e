#include "codec/turbo_codec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "codec/block_coding.h"
#include "common/error.h"

namespace gb::codec {
namespace {

// Blocks per 16x16 macroblock: 4 luma, then Cb, then Cr.
constexpr int kBlocksPerTile = 6;
// A block codes at most a DC unit plus 63 AC units plus an EOB; anything
// claiming more units per tile than 6 such blocks is malformed.
constexpr std::uint64_t kMaxUnitsPerTile = kBlocksPerTile * 65;

std::shared_ptr<runtime::ThreadPool> make_pool(int threads) {
  if (threads == 1) return nullptr;  // serial: no pool, no worker threads
  return std::make_shared<runtime::ThreadPool>(threads);
}

// Chunk size that gives each thread a few chunks to balance uneven tiles.
std::int64_t tile_grain(std::int64_t n, const runtime::ThreadPool* pool) {
  const int threads = pool != nullptr ? pool->thread_count() : 1;
  return std::max<std::int64_t>(1, n / (4 * threads));
}

// Encodes one tile's six blocks with tile-local DC prediction (the v2
// format change that makes tiles independent).
void code_tile(const Image& frame, int tx, int ty,
               const std::array<int, 64>& luma_q,
               const std::array<int, 64>& chroma_q,
               std::vector<CodedUnit>& units) {
  // Intra tiles need no in-loop reconstruction, so the encoder never
  // dequantizes or inverse-transforms.
  const Macroblock mb = extract_macroblock(frame, tx, ty);
  int dc_y = 0;
  for (int by = 0; by < 2; ++by) {
    for (int bx = 0; bx < 2; ++bx) {
      dc_y = code_block(y_subblock(mb.y, bx, by), luma_q, dc_y, units);
    }
  }
  code_block(mb.cb, chroma_q, /*dc_predictor=*/0, units);
  code_block(mb.cr, chroma_q, /*dc_predictor=*/0, units);
}

// One entropy-decoded coded unit: the (run,size) symbol plus its
// sign/magnitude-decoded coefficient value.
struct DecodedCoeff {
  std::uint8_t symbol = 0;
  int value = 0;
};

// Walks the block structure of a tile's unit sequence. Both the serial
// symbol scan (which must know how many magnitude bits follow each symbol)
// and the parallel reconstruction replay the same machine, so they agree on
// where blocks start and end.
struct TileWalk {
  int blocks_done = 0;
  bool in_block = false;
  int coeff = 0;  // next zigzag index within the current block

  // Classifies the next unit. Returns false on malformed structure.
  enum class Unit { kDc, kAc, kEob, kZrl };
  bool step(std::uint8_t symbol, Unit& kind) {
    if (!in_block) {
      if (symbol > 15) return false;  // DC size symbol
      kind = Unit::kDc;
      in_block = true;
      coeff = 1;
      return true;
    }
    if (symbol == kEobSymbol) {
      kind = Unit::kEob;
      finish_block();
      return true;
    }
    if (symbol == kZrlSymbol) {
      kind = Unit::kZrl;
      coeff += 16;
      if (coeff >= 64) finish_block();
      return true;
    }
    const int run = symbol >> 4;
    const int size = symbol & 0x0f;
    if (size == 0) return false;
    coeff += run;
    if (coeff >= 64) return false;
    kind = Unit::kAc;
    ++coeff;
    if (coeff == 64) finish_block();
    return true;
  }

  [[nodiscard]] bool tile_complete() const {
    return !in_block && blocks_done == kBlocksPerTile;
  }

 private:
  void finish_block() {
    in_block = false;
    ++blocks_done;
    coeff = 0;
  }
};

// Rebuilds one tile's pixels from its decoded units (the parallel half of
// the decoder: dequantize, IDCT, color convert, store).
void reconstruct_tile(Image& target, int tx, int ty,
                      std::span<const DecodedCoeff> units,
                      const std::array<int, 64>& luma_q,
                      const std::array<int, 64>& chroma_q) {
  const std::array<int, 64>& zigzag = zigzag_order();
  Macroblock mb;
  TileWalk walk;
  std::size_t u = 0;
  int dc_y = 0;
  int block = 0;
  while (block < kBlocksPerTile) {
    std::array<int, 64> q{};
    const bool is_luma = block < 4;
    // DC: luma prediction chains across the tile's four Y blocks; chroma
    // blocks each start from 0.
    check(u < units.size(), "tile unit underrun");
    TileWalk::Unit kind;
    check(walk.step(units[u].symbol, kind) && kind == TileWalk::Unit::kDc,
          "bad tile block structure");
    if (is_luma) {
      dc_y += units[u].value;
      q[0] = dc_y;
    } else {
      q[0] = units[u].value;
    }
    ++u;
    int i = 1;
    while (walk.in_block) {
      check(u < units.size(), "tile unit underrun");
      const DecodedCoeff& unit = units[u];
      check(walk.step(unit.symbol, kind), "bad tile block structure");
      ++u;
      if (kind == TileWalk::Unit::kEob) break;
      if (kind == TileWalk::Unit::kZrl) {
        i += 16;
        continue;
      }
      i += unit.symbol >> 4;
      q[static_cast<std::size_t>(zigzag[static_cast<std::size_t>(i)])] =
          unit.value;
      ++i;
    }
    if (is_luma) {
      Block8x8 recon;
      dequantize_block(q, luma_q, recon);
      set_y_subblock(mb.y, block % 2, block / 2, recon);
    } else {
      dequantize_block(q, chroma_q, block == 4 ? mb.cb : mb.cr);
    }
    ++block;
  }
  store_macroblock(target, tx, ty, mb);
}

}  // namespace

TurboEncoder::TurboEncoder(TurboConfig config)
    : config_(config), owned_pool_(make_pool(config.threads)) {
  check(config_.tile_size == 16, "turbo codec supports 16x16 tiles");
}

runtime::ThreadPool* TurboEncoder::pool() const {
  return shared_pool_ != nullptr ? shared_pool_ : owned_pool_.get();
}

void TurboEncoder::reset() { reference_ = Image(); }

void TurboEncoder::set_quality(int quality) {
  config_.quality = std::clamp(quality, 1, 100);
}

void TurboEncoder::set_skip_threshold(int threshold) {
  config_.skip_threshold = std::max(threshold, 0);
}

void TurboEncoder::begin_frame(int width, int height) {
  check(width > 0 && height > 0, "cannot encode empty frame");
  check(!frame_active_, "begin_frame while a frame is already in flight");
  frame_active_ = true;
  frame_keyframe_ =
      reference_.width() != width || reference_.height() != height;
  frame_width_ = width;
  frame_height_ = height;
  tiles_x_ = (width + 15) / 16;
  const int tiles_y = (height + 15) / 16;
  const std::size_t tile_count =
      static_cast<std::size_t>(tiles_x_) * tiles_y;
  luma_q_ = luma_quant(config_.quality);
  chroma_q_ = chroma_quant(config_.quality);
  tile_coded_.assign(tile_count, 2);  // 2 = not yet submitted
  tile_units_.resize(tile_count);
  for (auto& units : tile_units_) units.clear();
}

void TurboEncoder::encode_tile(const Image& frame, int tile_index) {
  // Change detection and coding both read only this tile's pixel rectangle
  // (extract_macroblock's edge replication clamps within it), and write only
  // this tile's slots — concurrent calls for distinct tiles never touch
  // shared mutable state.
  const int tx = (tile_index % tiles_x_) * 16;
  const int ty = (tile_index / tiles_x_) * 16;
  if (!frame_keyframe_ &&
      !tile_changed(frame, reference_, tx, ty, 16, config_.skip_threshold)) {
    tile_coded_[static_cast<std::size_t>(tile_index)] = 0;
    return;
  }
  auto& units = tile_units_[static_cast<std::size_t>(tile_index)];
  units.reserve(64);
  code_tile(frame, tx, ty, luma_q_, chroma_q_, units);
  tile_coded_[static_cast<std::size_t>(tile_index)] = 1;
}

Bytes TurboEncoder::finish_frame(const Image& frame) {
  check(frame_active_, "finish_frame without begin_frame");
  check(frame.width() == frame_width_ && frame.height() == frame_height_,
        "frame dimensions changed between begin_frame and finish_frame");
  frame_active_ = false;
  const int tile_count = static_cast<int>(tile_coded_.size());

  std::vector<std::uint8_t> coded_bitmap(
      static_cast<std::size_t>((tile_count + 7) / 8), 0);
  std::vector<int> coded_tiles;
  for (int t = 0; t < tile_count; ++t) {
    check(tile_coded_[static_cast<std::size_t>(t)] != 2,
          "finish_frame with unsubmitted tiles");
    if (tile_coded_[static_cast<std::size_t>(t)] == 0) continue;
    coded_bitmap[static_cast<std::size_t>(t / 8)] |=
        static_cast<std::uint8_t>(1u << (t % 8));
    coded_tiles.push_back(t);
  }
  const int tiles_coded = static_cast<int>(coded_tiles.size());
  reference_ = frame;  // next frame's change detector baseline

  // Entropy pass: per-frame canonical Huffman table, serial — the symbol
  // stream is one dependent bit sequence. Tiles are concatenated in tile
  // order regardless of the order encode_tile ran, so the bitstream is
  // byte-identical for any submission schedule and thread count. A
  // fully-skipped frame (static scene) carries no table and no payload —
  // the common case the incremental design exists for.
  ByteWriter out;
  out.u8(kTurboFormatVersion);
  out.u16(narrow<std::uint16_t>(frame.width()));
  out.u16(narrow<std::uint16_t>(frame.height()));
  out.u8(static_cast<std::uint8_t>(config_.quality));
  out.u8(frame_keyframe_ ? 1 : 0);
  out.raw(coded_bitmap);
  out.u8(tiles_coded > 0 ? 1 : 0);
  if (tiles_coded > 0) {
    // Per-tile unit counts let the decoder split the symbol stream at tile
    // boundaries and reconstruct tiles in parallel.
    for (const int t : coded_tiles) {
      out.varint(tile_units_[static_cast<std::size_t>(t)].size());
    }
    std::array<std::uint64_t, 256> freq{};
    for (const int t : coded_tiles) {
      for (const CodedUnit& u : tile_units_[static_cast<std::size_t>(t)]) {
        freq[u.symbol]++;
      }
    }
    const HuffmanEncoder huff(freq);
    huff.write_table(out);
    BitWriter bits;
    for (const int t : coded_tiles) {
      write_units(bits, huff, tile_units_[static_cast<std::size_t>(t)]);
    }
    out.blob(bits.finish());
  }

  stats_ = TurboFrameStats{frame_keyframe_, tile_count, tiles_coded,
                           out.size()};
  return out.take();
}

Bytes TurboEncoder::encode(const Image& frame) {
  check(!frame.empty(), "cannot encode empty frame");
  begin_frame(frame.width(), frame.height());
  // One parallel pass runs change detection and transform/quantize per tile
  // back to back while the tile is cache-resident (v1 of this function made
  // two full-frame sweeps with a barrier between them).
  const std::int64_t tile_count = static_cast<std::int64_t>(tile_units_.size());
  runtime::ThreadPool* workers = pool();
  const auto encode_tiles = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      encode_tile(frame, static_cast<int>(t));
    }
  };
  if (workers != nullptr) {
    workers->parallel_for(0, tile_count, tile_grain(tile_count, workers),
                          encode_tiles);
  } else {
    encode_tiles(0, tile_count);
  }
  return finish_frame(frame);
}

TurboDecoder::TurboDecoder(int threads) : owned_pool_(make_pool(threads)) {}

runtime::ThreadPool* TurboDecoder::pool() const {
  return shared_pool_ != nullptr ? shared_pool_ : owned_pool_.get();
}

std::optional<Image> TurboDecoder::decode(std::span<const std::uint8_t> data) {
  try {
    ByteReader in(data);
    if (in.u8() != kTurboFormatVersion) return std::nullopt;
    const int width = in.u16();
    const int height = in.u16();
    const int quality = in.u8();
    const bool keyframe = in.u8() != 0;
    if (width == 0 || height == 0) return std::nullopt;
    if (keyframe || reference_.width() != width ||
        reference_.height() != height) {
      if (!keyframe) return std::nullopt;  // lost sync: need a keyframe
      reference_ = Image(width, height);
    }
    const int tiles_x = (width + 15) / 16;
    const int tiles_y = (height + 15) / 16;
    const int tile_count = tiles_x * tiles_y;
    const auto bitmap = in.raw(static_cast<std::size_t>((tile_count + 7) / 8));
    if (in.u8() == 0) return reference_;  // nothing coded: frame unchanged

    std::vector<int> coded_tiles;
    for (int t = 0; t < tile_count; ++t) {
      if ((bitmap[static_cast<std::size_t>(t / 8)] & (1u << (t % 8))) != 0) {
        coded_tiles.push_back(t);
      }
    }
    std::vector<std::size_t> unit_count(coded_tiles.size());
    for (std::size_t i = 0; i < coded_tiles.size(); ++i) {
      const std::uint64_t n = in.varint();
      if (n > kMaxUnitsPerTile) return std::nullopt;
      unit_count[i] = static_cast<std::size_t>(n);
    }
    auto huff = HuffmanDecoder::from_table(in);
    if (!huff) return std::nullopt;
    const auto payload = in.blob();
    BitReader bits(payload);

    // Phase A (serial): entropy-decode the one dependent bit sequence into a
    // flat unit array, validating that each tile's units form exactly six
    // complete blocks. The per-symbol magnitude-bit length depends on block
    // position, so this walk is also the structural parser.
    std::vector<DecodedCoeff> units;
    std::size_t total_units = 0;
    for (const std::size_t c : unit_count) total_units += c;
    units.reserve(total_units);  // counts are pre-capped by kMaxUnitsPerTile
    std::vector<std::size_t> tile_offset(coded_tiles.size() + 1, 0);
    for (std::size_t i = 0; i < coded_tiles.size(); ++i) {
      TileWalk walk;
      for (std::size_t u = 0; u < unit_count[i]; ++u) {
        // One 32-bit peek covers the code (at most 16 bits) and its
        // magnitude field (at most 15); skip() then checks both against the
        // end of the payload.
        const std::uint32_t window = bits.peek(32);
        const std::uint32_t hit = huff->match(window >> 16);
        const auto symbol = static_cast<std::uint8_t>(hit);
        const int code_length = static_cast<int>(hit >> 8);
        TileWalk::Unit kind;
        if (!walk.step(symbol, kind)) return std::nullopt;
        int size = 0;
        if (kind == TileWalk::Unit::kDc) {
          size = symbol;
        } else if (kind == TileWalk::Unit::kAc) {
          size = symbol & 0x0f;
        }
        bits.skip(code_length + size);
        const std::uint32_t magnitude =
            size > 0 ? (window << code_length) >> (32 - size) : 0;
        units.push_back(
            DecodedCoeff{symbol, decode_magnitude(magnitude, size)});
      }
      if (!walk.tile_complete()) return std::nullopt;
      tile_offset[i + 1] = units.size();
    }

    // Phase B (parallel): per-tile dequantize + IDCT + color convert +
    // store. Tiles own disjoint pixel rectangles, so no write overlaps.
    const auto luma_q = luma_quant(quality);
    const auto chroma_q = chroma_quant(quality);
    const auto reconstruct = [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const int t = coded_tiles[static_cast<std::size_t>(i)];
        const int tx = (t % tiles_x) * 16;
        const int ty = (t / tiles_x) * 16;
        const std::span<const DecodedCoeff> tile_span(
            units.data() + tile_offset[static_cast<std::size_t>(i)],
            tile_offset[static_cast<std::size_t>(i) + 1] -
                tile_offset[static_cast<std::size_t>(i)]);
        reconstruct_tile(reference_, tx, ty, tile_span, luma_q, chroma_q);
      }
    };
    runtime::ThreadPool* workers = pool();
    const std::int64_t n = static_cast<std::int64_t>(coded_tiles.size());
    if (workers != nullptr) {
      workers->parallel_for(0, n, tile_grain(n, workers), reconstruct);
    } else {
      reconstruct(0, n);
    }
    return reference_;
  } catch (const Error&) {
    return std::nullopt;
  }
}

double psnr(const Image& a, const Image& b) {
  check(a.width() == b.width() && a.height() == b.height(),
        "psnr requires equal dimensions");
  double sum_sq = 0.0;
  std::size_t samples = 0;
  for (int y = 0; y < a.height(); ++y) {
    const std::uint8_t* ra = a.row(y);
    const std::uint8_t* rb = b.row(y);
    for (int x = 0; x < a.width(); ++x) {
      for (int c = 0; c < 3; ++c) {
        const double d = static_cast<double>(ra[x * 4 + c]) -
                         static_cast<double>(rb[x * 4 + c]);
        sum_sq += d * d;
        ++samples;
      }
    }
  }
  if (sum_sq == 0.0) return std::numeric_limits<double>::infinity();
  const double mse = sum_sq / static_cast<double>(samples);
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace gb::codec
