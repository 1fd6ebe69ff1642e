// "Turbo" frame codec (§V-A): instead of a full video encoder — too slow on
// the ARM CPUs of most service devices — GBooster ships incremental updates
// between consecutive frames, intra-coding only the tiles that changed with
// a JPEG-style transform coder.
//
// Pipeline per frame:
//   1. split into 16x16 tiles; diff against the previous *source* frame
//      (not the decoder's reconstruction), skipping tiles whose largest
//      per-channel change is at most skip_threshold. A change that stays
//      under the threshold frame after frame is never coded, so the decoder
//      can drift from the source without bound: a uniform frame fading by
//      +1 per frame codes no tile in 60 frames and ends 59 levels off;
//   2. changed tiles are converted RGB -> YCbCr 4:2:0 and coded as 8x8
//      DCT blocks with quality-scaled quantization;
//   3. (run,size) symbols are entropy-coded with a per-frame canonical
//      Huffman table.
//
// The first frame (or reset) is a keyframe: every tile is coded.
//
// Format version 2 makes the tile the unit of parallelism: DC prediction
// resets at every tile boundary and the header records how many coded units
// each tile contributed, so (a) the encoder's transform/quantize pass runs
// tiles concurrently on a ThreadPool and concatenates per-tile unit buffers
// in tile order — the bitstream is byte-identical for any thread count — and
// (b) the decoder splits the serial Huffman symbol stream at tile boundaries
// and reconstructs tiles (dequantize, IDCT, color convert, store) in
// parallel. Entropy coding itself stays serial in both directions.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "codec/block_coding.h"
#include "common/bytes.h"
#include "common/image.h"
#include "runtime/thread_pool.h"

namespace gb::codec {

// Bitstream format version carried in the frame header; readers reject
// anything else. v2 = per-tile DC reset + per-tile unit counts.
inline constexpr std::uint8_t kTurboFormatVersion = 2;

struct TurboConfig {
  int quality = 75;      // 1..100, JPEG-style quality scaling
  int tile_size = 16;    // must be a multiple of 16 (4:2:0 macroblocks)
  // Tiles whose max per-channel delta vs. the reference is at or below this
  // threshold are skipped (0 = exact-change detection).
  int skip_threshold = 2;
  // Worker threads for the per-tile passes: 1 = serial (no pool), 0 = one
  // per hardware core. Output is bit-identical for every value.
  int threads = 1;
};

struct TurboFrameStats {
  bool keyframe = false;
  int tiles_total = 0;
  int tiles_coded = 0;
  std::size_t encoded_bytes = 0;
};

class TurboEncoder {
 public:
  explicit TurboEncoder(TurboConfig config = {});

  // Encodes `frame`; dimensions must stay constant across a session (the
  // encoder resets itself with a keyframe if they change). Implemented on
  // top of the per-tile API below, so it is byte-identical to the fused
  // tile-at-a-time path for any thread count.
  [[nodiscard]] Bytes encode(const Image& frame);

  // --- per-tile path (render-tile -> encode-tile fusion) --------------------
  // The tile grid matches the rasterizer's (16x16, row-major), so a producer
  // that finishes tiles out of order — e.g. the tile-binned rasterizer — can
  // hand each one straight to the encoder while its pixels are cache-hot,
  // with no full-frame barrier between rasterize and encode.
  //
  //   begin_frame(w, h);
  //   encode_tile(frame, t) for every tile t   (any order; distinct tiles
  //                                             may run concurrently)
  //   bytes = finish_frame(frame);             (serial entropy pass)
  //
  // encode_tile performs change detection against the reference frame and,
  // for changed tiles, the transform/quantize/run-length pass. It touches
  // only tile-owned slots and reads only the tile's own pixel rectangle, so
  // concurrent calls for distinct tiles are safe. finish_frame checks every
  // tile was submitted.
  void begin_frame(int width, int height);
  void encode_tile(const Image& frame, int tile_index);
  [[nodiscard]] Bytes finish_frame(const Image& frame);
  [[nodiscard]] int tile_count() const {
    return static_cast<int>(tile_units_.size());
  }

  // Forces the next frame to be a keyframe.
  void reset();

  // Mid-stream quality adjustment (QoS governor, DESIGN.md §11): applies
  // from the next encoded frame. No keyframe or decoder coordination is
  // needed — every frame's header carries its own quality, and every coded
  // tile is intra-coded, so no tile depends on pixels coded at another
  // quality.
  void set_quality(int quality);
  void set_skip_threshold(int threshold);
  [[nodiscard]] const TurboConfig& config() const { return config_; }

  // Borrows a shared pool (e.g. the service runtime's) instead of the one
  // owned per config_.threads. Pass nullptr to return to the owned pool.
  void set_thread_pool(runtime::ThreadPool* pool) { shared_pool_ = pool; }

  [[nodiscard]] const TurboFrameStats& last_stats() const { return stats_; }

 private:
  [[nodiscard]] runtime::ThreadPool* pool() const;

  TurboConfig config_;
  std::shared_ptr<runtime::ThreadPool> owned_pool_;  // null when serial
  runtime::ThreadPool* shared_pool_ = nullptr;
  Image reference_;  // previous source frame, the change detector baseline
  TurboFrameStats stats_;

  // In-flight frame state for the per-tile path (begin_frame .. finish_frame).
  bool frame_active_ = false;
  bool frame_keyframe_ = false;
  int frame_width_ = 0;
  int frame_height_ = 0;
  int tiles_x_ = 0;
  std::array<int, 64> luma_q_{};
  std::array<int, 64> chroma_q_{};
  // One slot per tile, each owned exclusively by its encode_tile call:
  // 0 = skipped, 1 = coded, 2 = not yet submitted.
  std::vector<std::uint8_t> tile_coded_;
  std::vector<std::vector<CodedUnit>> tile_units_;
};

class TurboDecoder {
 public:
  // `threads` as in TurboConfig::threads; decoded images are pixel-identical
  // for every value.
  explicit TurboDecoder(int threads = 1);

  // Decodes the next frame of the stream; returns std::nullopt on malformed
  // input. Frames must be presented in encode order.
  [[nodiscard]] std::optional<Image> decode(std::span<const std::uint8_t> data);

  void set_thread_pool(runtime::ThreadPool* pool) { shared_pool_ = pool; }

 private:
  [[nodiscard]] runtime::ThreadPool* pool() const;

  std::shared_ptr<runtime::ThreadPool> owned_pool_;  // null when serial
  runtime::ThreadPool* shared_pool_ = nullptr;
  Image reference_;
};

// Peak signal-to-noise ratio between same-sized images, in dB over the RGB
// channels (alpha ignored). Returns +inf for identical images.
double psnr(const Image& a, const Image& b);

}  // namespace gb::codec
