// GlContext draw pipeline: attribute fetch, vertex shading, primitive
// assembly, and the fragment stage in one of two scheduling modes.
//
// kTileBinned (default, DESIGN.md §12): the fragment stage is deferred.
// Each triangle draw runs its vertex stage and primitive assembly eagerly,
// snapshots the fragment-stage state it depends on (program, registers,
// resolved textures, depth/blend state), and bins the surviving triangles
// into 16x16 screen tiles. At the next flush point every tile is rasterized
// independently — tiles are disjoint, so they parallelize with no barrier —
// walking its binned triangles in submission order. Opaque (non-blended)
// triangles run the exact sequential depth test per pixel but record only a
// per-pixel *winner*; the fragment shader runs once per pixel for the
// surviving fragment (early-Z overdraw elimination). Blended triangles force
// pending winners to resolve and then shade in order, so the framebuffer is
// byte-identical to the immediate-mode rasterizer for any thread count.
//
// kRowBand: the original immediate path — each draw rasterizes to completion
// over framebuffer row bands. Kept as the identity baseline.
//
// Points and lines get a minimal serial raster so HUD-style workloads draw
// something sensible; they flush pending tiles first to preserve order.
//
// Both stages run the lane-batched shader VM (gles/shader_vm.h): the vertex
// stage shades a draw's distinct indices in batches into the frame arena,
// and a tile's early-Z winners are shaded draw by draw in batches; blended
// tile fragments, row bands, points and lines run it one lane at a time.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/simd.h"
#include "gles/context.h"
#include "gles/framebuffer.h"
#include "gles/shader_vm.h"
#include "gles/tile_binning.h"
#include "runtime/metrics_registry.h"

namespace gb::gles {
namespace {

float decode_component(const std::uint8_t* src, GLenum type, bool normalized) {
  switch (type) {
    case GL_FLOAT: {
      float f = 0;
      std::memcpy(&f, src, sizeof(f));
      return f;
    }
    case GL_BYTE: {
      std::int8_t v = 0;
      std::memcpy(&v, src, sizeof(v));
      return normalized ? std::max(static_cast<float>(v) / 127.0f, -1.0f)
                        : static_cast<float>(v);
    }
    case GL_UNSIGNED_BYTE: {
      const std::uint8_t v = *src;
      return normalized ? static_cast<float>(v) / 255.0f : static_cast<float>(v);
    }
    case GL_SHORT: {
      std::int16_t v = 0;
      std::memcpy(&v, src, sizeof(v));
      return normalized ? std::max(static_cast<float>(v) / 32767.0f, -1.0f)
                        : static_cast<float>(v);
    }
    case GL_UNSIGNED_SHORT: {
      std::uint16_t v = 0;
      std::memcpy(&v, src, sizeof(v));
      return normalized ? static_cast<float>(v) / 65535.0f
                        : static_cast<float>(v);
    }
    case GL_INT: {
      std::int32_t v = 0;
      std::memcpy(&v, src, sizeof(v));
      return static_cast<float>(v);
    }
    case GL_UNSIGNED_INT: {
      std::uint32_t v = 0;
      std::memcpy(&v, src, sizeof(v));
      return static_cast<float>(v);
    }
    default:
      return 0.0f;
  }
}

float blend_factor(GLenum factor, float src_alpha, float dst_alpha,
                   float src_channel, float dst_channel) {
  switch (factor) {
    case GL_ZERO:
      return 0.0f;
    case GL_ONE:
      return 1.0f;
    case GL_SRC_ALPHA:
      return src_alpha;
    case GL_ONE_MINUS_SRC_ALPHA:
      return 1.0f - src_alpha;
    case GL_SRC_COLOR:
      return src_channel;
    case GL_ONE_MINUS_SRC_COLOR:
      return 1.0f - src_channel;
    case GL_DST_ALPHA:
      return dst_alpha;
    case GL_ONE_MINUS_DST_ALPHA:
      return 1.0f - dst_alpha;
    default:
      (void)dst_channel;
      return 1.0f;
  }
}

bool depth_passes(GLenum func, float incoming, float stored) {
  switch (func) {
    case GL_NEVER:
      return false;
    case GL_LESS:
      return incoming < stored;
    case GL_EQUAL:
      return incoming == stored;
    case GL_LEQUAL:
      return incoming <= stored;
    case GL_GREATER:
      return incoming > stored;
    case GL_NOTEQUAL:
      return incoming != stored;
    case GL_GEQUAL:
      return incoming >= stored;
    case GL_ALWAYS:
    default:
      return true;
  }
}

// Writes one fragment's color, blended with the destination when `blend`.
void write_color(std::uint8_t* dst, const Vec4& color, bool blend,
                 GLenum blend_src, GLenum blend_dst) {
  if (!blend) {
    dst[0] = unorm_to_byte(color.x);
    dst[1] = unorm_to_byte(color.y);
    dst[2] = unorm_to_byte(color.z);
    dst[3] = unorm_to_byte(color.w);
    return;
  }
  float out[4] = {std::clamp(color.x, 0.0f, 1.0f), std::clamp(color.y, 0.0f, 1.0f),
                  std::clamp(color.z, 0.0f, 1.0f), std::clamp(color.w, 0.0f, 1.0f)};
  constexpr float kInv255 = 1.0f / 255.0f;
  const float dst_rgba[4] = {dst[0] * kInv255, dst[1] * kInv255,
                             dst[2] * kInv255, dst[3] * kInv255};
  const float sa = out[3];
  const float da = dst_rgba[3];
  for (int ch = 0; ch < 4; ++ch) {
    const float sf = blend_factor(blend_src, sa, da, out[ch], dst_rgba[ch]);
    const float df = blend_factor(blend_dst, sa, da, out[ch], dst_rgba[ch]);
    out[ch] = std::clamp(out[ch] * sf + dst_rgba[ch] * df, 0.0f, 1.0f);
  }
  for (int ch = 0; ch < 4; ++ch) dst[ch] = unorm_to_byte(out[ch]);
}

// The fragment-shader register file of the calling worker. Tiles and row
// bands run to completion on one worker, so each binds it for its own draw.
LaneRegisters& fragment_lanes() {
  thread_local LaneRegisters lanes;
  return lanes;
}

// Perspective-correct varyings of `tri` at screen weights (w0, w1, w2) into
// `lane`. The left-associated sums are the row-band rasterizer's exactly.
void interpolate(const ProgramObject& prog, const Vec4* arena,
                 const AssembledTriangle& tri, float w0, float w1, float w2,
                 LaneRegisters& regs, int lane) {
  const ScreenVertex& a = tri.a;
  const ScreenVertex& b = tri.b;
  const ScreenVertex& c = tri.c;
  const float iw = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w;
  const float p0 = w0 * a.inv_w / iw;
  const float p1 = w1 * b.inv_w / iw;
  const float p2 = w2 * c.inv_w / iw;
  const Vec4* va = arena + a.record + 1;
  const Vec4* vb = arena + b.record + 1;
  const Vec4* vc = arena + c.record + 1;
  for (std::size_t i = 0; i < prog.varyings.size(); ++i) {
    regs.at(prog.varyings[i].fs_register, lane) =
        va[i] * p0 + vb[i] * p1 + vc[i] * p2;
  }
}

}  // namespace

GlContext::~GlContext() = default;

namespace {

constexpr int kTileSize = GlContext::kRasterTileSize;
constexpr int kTilePixels = kTileSize * kTileSize;

// Early-Z bookkeeping: the fragment currently winning a pixel's depth race.
// w2 is recomputed as 1 - w0 - w1 at shade time — the same expression the
// rasterizer used, so the deferred shade sees bit-identical weights.
struct PixelWinner {
  std::int32_t entry = -1;  // index into the tile's bin, -1 = none
  float w0 = 0.0f;
  float w1 = 0.0f;
};

struct TileStats {
  std::uint64_t candidates = 0;  // depth-passing fragments (legacy count)
  std::uint64_t shaded = 0;      // fragment shader invocations
};

// Rasterizes one tile's binned triangles in submission order. Each pixel of
// the tile is owned exclusively by this call, so tiles parallelize freely.
TileStats raster_tile(const TileBinning& bin, Framebuffer& fb,
                      std::span<const BinEntry> entries, int tx0, int ty0,
                      int tx1, int ty1) {
  TileStats stats;
  std::array<PixelWinner, kTilePixels> winners{};
  bool have_winners = false;
  const Vec4* arena = bin.arena.data();

  // The worker's register file, rebound only when the draw changes.
  LaneRegisters& regs = fragment_lanes();
  std::uint32_t bound_draw = 0xffffffffu;
  const auto select_draw = [&](std::uint32_t di) {
    if (di == bound_draw) return;
    bound_draw = di;
    const DeferredDraw& d = bin.draws[di];
    regs.bind(d.prog->fragment,
              {arena + d.fs_preload, d.prog->fragment.register_file_size});
  };

  // Resolves every pending winner: one fragment-shader run per surviving
  // pixel. Winners only come from non-blended draws, so the write is a
  // plain replace — which is also the sequential rasterizer's final value,
  // since its last depth-passing fragment overwrote all earlier ones. The
  // winners are shaded draw by draw, in lane batches; each pixel is written
  // once, so the order does not change any byte.
  std::array<std::uint16_t, kTilePixels> order;      // winner pixels
  std::array<std::uint32_t, kTilePixels> order_draw;  // and their draws
  const auto flush_winners = [&]() {
    if (!have_winners) return;
    std::size_t count = 0;
    for (int py = ty0; py < ty1; ++py) {
      for (int px = tx0; px < tx1; ++px) {
        const auto pixel =
            static_cast<std::uint16_t>((py - ty0) * kTileSize + (px - tx0));
        if (winners[pixel].entry < 0) continue;
        order[count] = pixel;
        order_draw[count] =
            entries[static_cast<std::size_t>(winners[pixel].entry)].draw;
        ++count;
      }
    }
    for (std::size_t done = 0; done < count;) {
      // Move the winners of the first pending pixel's draw to the front.
      const std::uint32_t di = order_draw[done];
      std::size_t end = done;
      for (std::size_t i = done; i < count; ++i) {
        if (order_draw[i] != di) continue;
        std::swap(order[i], order[end]);
        std::swap(order_draw[i], order_draw[end]);
        ++end;
      }
      select_draw(di);
      const DeferredDraw& d = bin.draws[di];
      const ProgramObject& prog = *d.prog;
      const auto lanes = static_cast<std::size_t>(regs.lanes());
      for (std::size_t lo = done; lo < end; lo += lanes) {
        const int n = static_cast<int>(std::min(lanes, end - lo));
        regs.prepare(n);
        for (int l = 0; l < n; ++l) {
          const PixelWinner& w = winners[order[lo + static_cast<std::size_t>(l)]];
          const BinEntry e = entries[static_cast<std::size_t>(w.entry)];
          interpolate(prog, arena, bin.tris[e.tri], w.w0, w.w1,
                      1.0f - w.w0 - w.w1, regs, l);
        }
        run_lanes(prog.fragment, regs, n, d.fs_textures);
        const Vec4* color = regs.reg(prog.fragment.fragcolor_register);
        for (int l = 0; l < n; ++l) {
          const std::uint16_t pixel = order[lo + static_cast<std::size_t>(l)];
          write_color(fb.color().pixel(tx0 + pixel % kTileSize,
                                       ty0 + pixel / kTileSize),
                      color[l], false, GL_ONE, GL_ZERO);
          winners[pixel].entry = -1;
        }
      }
      stats.shaded += static_cast<std::uint64_t>(end - done);
      done = end;
    }
    have_winners = false;
  };

  // Row-sized scratch for the vectorized edge functions.
  std::array<float, kTileSize> w0_row{}, w1_row{}, w2_row{}, z_row{};

  for (std::size_t pos = 0; pos < entries.size(); ++pos) {
    const BinEntry e = entries[pos];
    const DeferredDraw& d = bin.draws[e.draw];
    const AssembledTriangle& tri = bin.tris[e.tri];
    const ScreenVertex& a = tri.a;
    const ScreenVertex& b = tri.b;
    const ScreenVertex& c = tri.c;
    const int x0 = std::max(tri.bx0, tx0);
    const int x1 = std::min(tri.bx1, tx1);
    const int y0 = std::max(tri.by0, ty0);
    const int y1 = std::min(tri.by1, ty1);
    const bool blended = d.blend;
    if (blended) {
      // Blending reads the destination color, so every earlier fragment must
      // have landed; after this triangle, winner tracking restarts.
      flush_winners();
      select_draw(e.draw);
    }
    for (int py = y0; py < y1; ++py) {
      const float fy = static_cast<float>(py) + 0.5f;
      const int span = x1 - x0;
      // Edge functions and depth for the whole row at once. The expressions
      // are lane-independent and identical to the row-band rasterizer's, so
      // vectorization cannot change any pixel's weights.
      GB_SIMD_LOOP
      for (int i = 0; i < span; ++i) {
        const float fx = static_cast<float>(x0 + i) + 0.5f;
        const float w0 =
            ((b.x - fx) * (c.y - fy) - (b.y - fy) * (c.x - fx)) * tri.inv_area;
        const float w1 =
            ((c.x - fx) * (a.y - fy) - (c.y - fy) * (a.x - fx)) * tri.inv_area;
        const float w2 = 1.0f - w0 - w1;
        w0_row[static_cast<std::size_t>(i)] = w0;
        w1_row[static_cast<std::size_t>(i)] = w1;
        w2_row[static_cast<std::size_t>(i)] = w2;
        z_row[static_cast<std::size_t>(i)] = w0 * a.z + w1 * b.z + w2 * c.z;
      }
      for (int i = 0; i < span; ++i) {
        const float w0 = w0_row[static_cast<std::size_t>(i)];
        const float w1 = w1_row[static_cast<std::size_t>(i)];
        const float w2 = w2_row[static_cast<std::size_t>(i)];
        if (w0 < 0.0f || w1 < 0.0f || w2 < 0.0f) continue;
        if ((w0 == 0.0f && !tri.zero0) || (w1 == 0.0f && !tri.zero1) ||
            (w2 == 0.0f && !tri.zero2)) {
          continue;
        }
        const float depth = z_row[static_cast<std::size_t>(i)];
        if (depth < 0.0f || depth > 1.0f) continue;
        const float iw = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w;
        if (iw == 0.0f) continue;
        const int px = x0 + i;
        if (d.depth_test) {
          float& stored = fb.depth(px, py);
          if (!depth_passes(d.depth_func, depth, stored)) continue;
          stored = depth;
        }
        stats.candidates++;
        if (!blended) {
          PixelWinner& w =
              winners[static_cast<std::size_t>((py - ty0) * kTileSize +
                                               (px - tx0))];
          w.entry = static_cast<std::int32_t>(pos);
          w.w0 = w0;
          w.w1 = w1;
          have_winners = true;
          continue;
        }
        regs.prepare(1);
        interpolate(*d.prog, arena, tri, w0, w1, w2, regs, 0);
        run_lanes(d.prog->fragment, regs, 1, d.fs_textures);
        stats.shaded++;
        write_color(fb.color().pixel(px, py),
                    regs.at(d.prog->fragment.fragcolor_register, 0), true,
                    d.blend_src, d.blend_dst);
      }
    }
  }
  flush_winners();
  return stats;
}

}  // namespace

void GlContext::flush() {
  if (binning_ == nullptr || binning_->draws.empty()) return;
  flush_impl({});
}

void GlContext::flush_tiles(TileSink sink) { flush_impl(sink); }

void GlContext::flush_impl(TileSink sink) {
  const int fb_w = framebuffer_.width();
  const int fb_h = framebuffer_.height();
  const int tiles_x = (fb_w + kTileSize - 1) / kTileSize;
  const std::int64_t tile_count =
      static_cast<std::int64_t>(tiles_x) * ((fb_h + kTileSize - 1) / kTileSize);
  TileBinning* bin = binning_.get();
  const bool pending = bin != nullptr && !bin->draws.empty();
  if (!pending && !sink) return;

  std::atomic<std::uint64_t> total_candidates{0};
  std::atomic<std::uint64_t> total_shaded{0};
  // Per-tile shaded-pixel fraction; each slot is written only by the worker
  // that owns the tile, then read serially after the join (the registry's
  // counters and histograms are not thread-safe). -1 marks an empty tile.
  if (pending) {
    bin->sort_bins(static_cast<std::size_t>(tile_count));
    bin->occupancy.assign(static_cast<std::size_t>(tile_count), -1.0f);
  }

  const auto run_tiles = [&](std::int64_t lo, std::int64_t hi) {
    std::uint64_t candidates = 0;
    std::uint64_t shaded = 0;
    for (std::int64_t t = lo; t < hi; ++t) {
      const int tile_x0 = static_cast<int>(t % tiles_x) * kTileSize;
      const int tile_y0 = static_cast<int>(t / tiles_x) * kTileSize;
      const int tile_x1 = std::min(tile_x0 + kTileSize, fb_w);
      const int tile_y1 = std::min(tile_y0 + kTileSize, fb_h);
      const std::uint32_t begin =
          pending ? bin->tile_begin[static_cast<std::size_t>(t)] : 0;
      const std::uint32_t end =
          pending ? bin->tile_begin[static_cast<std::size_t>(t) + 1] : 0;
      if (begin != end) {
        const TileStats ts = raster_tile(
            *bin, framebuffer_,
            std::span<const BinEntry>(bin->tile_entries).subspan(begin, end - begin),
            tile_x0, tile_y0, tile_x1, tile_y1);
        candidates += ts.candidates;
        shaded += ts.shaded;
        bin->occupancy[static_cast<std::size_t>(t)] =
            static_cast<float>(ts.shaded) /
            static_cast<float>((tile_x1 - tile_x0) * (tile_y1 - tile_y0));
      }
      // The tile's pixels are final: hand it to the fused consumer while
      // other tiles may still be rasterizing.
      if (sink) sink(framebuffer_.color(), static_cast<int>(t));
    }
    total_candidates.fetch_add(candidates, std::memory_order_relaxed);
    total_shaded.fetch_add(shaded, std::memory_order_relaxed);
  };

  runtime::ThreadPool* workers = raster_pool();
  if (workers == nullptr || workers->serial()) {
    run_tiles(0, tile_count);
  } else {
    const std::int64_t grain = std::max<std::int64_t>(
        1, tile_count / (4 * workers->thread_count()));
    workers->parallel_for(0, tile_count, grain, run_tiles);
  }

  if (!pending) return;
  std::uint64_t tiles_shaded = 0;
  for (const float occ : bin->occupancy) {
    if (occ >= 0.0f) tiles_shaded++;
  }
  const std::uint64_t candidates =
      total_candidates.load(std::memory_order_relaxed);
  const std::uint64_t shaded = total_shaded.load(std::memory_order_relaxed);
  stats_.fragments_shaded += candidates;
  stats_.fragments_early_z_culled += candidates - shaded;
  stats_.tiles_shaded += tiles_shaded;
  stats_.tiles_empty += static_cast<std::uint64_t>(tile_count) - tiles_shaded;
  if (metrics_ != nullptr) {
    metrics_->counter("raster.tiles_shaded").add(tiles_shaded);
    metrics_->counter("raster.tiles_empty")
        .add(static_cast<std::uint64_t>(tile_count) - tiles_shaded);
    metrics_->counter("raster.fragments_early_z_culled").add(candidates - shaded);
    runtime::Histogram& occupancy_hist = metrics_->histogram(
        "raster.tile_occupancy",
        std::vector<double>{0.125, 0.25, 0.5, 0.75, 0.9, 1.0});
    for (const float occ : bin->occupancy) {
      if (occ >= 0.0f) occupancy_hist.observe(occ);
    }
  }
  bin->clear_frame();
}

TileBinning& GlContext::frame_state() {
  if (binning_ == nullptr) binning_ = std::make_unique<TileBinning>();
  return *binning_;
}

Vec4 GlContext::fetch_attribute(const VertexAttribState& state,
                                std::size_t vertex_index) {
  if (!state.enabled) return state.generic_value;
  const int elem = scalar_type_size(state.type);
  const int stride =
      state.stride != 0 ? state.stride : elem * state.size;
  const std::uint8_t* base = nullptr;
  std::size_t available = 0;
  if (state.buffer != 0) {
    const auto it = buffers_.find(state.buffer);
    if (it == buffers_.end()) return state.generic_value;
    if (state.offset >= it->second.data.size()) return state.generic_value;
    base = it->second.data.data() + state.offset;
    available = it->second.data.size() - state.offset;
  } else if (state.client_pointer != nullptr) {
    base = static_cast<const std::uint8_t*>(state.client_pointer);
    available = state.client_bytes;
  } else {
    return state.generic_value;
  }
  const std::size_t byte_offset =
      vertex_index * static_cast<std::size_t>(stride);
  if (byte_offset + static_cast<std::size_t>(elem) * state.size > available) {
    return state.generic_value;  // out-of-range reads yield defaults
  }
  Vec4 out{0, 0, 0, 1};
  const std::uint8_t* src = base + byte_offset;
  float* lanes[4] = {&out.x, &out.y, &out.z, &out.w};
  for (int c = 0; c < state.size; ++c) {
    *lanes[c] = decode_component(src + static_cast<std::size_t>(c) * elem,
                                 state.type, state.normalized);
  }
  return out;
}

bool GlContext::gather_indices(GLsizei count, GLenum type, const void* indices,
                               std::vector<std::uint32_t>& out) {
  out.clear();
  const int elem = scalar_type_size(type);
  const std::uint8_t* base = nullptr;
  if (element_buffer_binding_ != 0) {
    const auto it = buffers_.find(element_buffer_binding_);
    if (it == buffers_.end()) return false;
    const std::size_t offset = reinterpret_cast<std::size_t>(indices);
    const std::size_t size = it->second.data.size();
    if (offset > size || static_cast<std::size_t>(count) * elem > size - offset) {
      set_error(GL_INVALID_OPERATION);
      return false;
    }
    base = it->second.data.data() + offset;
  } else {
    base = static_cast<const std::uint8_t*>(indices);
    if (base == nullptr) return false;
  }
  out.resize(static_cast<std::size_t>(count));
  for (GLsizei i = 0; i < count; ++i) {
    const std::uint8_t* src = base + static_cast<std::size_t>(i) * elem;
    std::uint32_t& index = out[static_cast<std::size_t>(i)];
    switch (type) {
      case GL_UNSIGNED_BYTE:
        index = *src;
        break;
      case GL_UNSIGNED_SHORT: {
        std::uint16_t v = 0;
        std::memcpy(&v, src, sizeof(v));
        index = v;
        break;
      }
      case GL_UNSIGNED_INT:
        std::memcpy(&index, src, sizeof(index));
        break;
      default:
        set_error(GL_INVALID_ENUM);
        return false;
    }
  }
  return true;
}

void GlContext::draw_arrays(GLenum mode, GLint first, GLsizei count) {
  if (count < 0 || first < 0) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  // Validate before building the index list: a rejected draw must not pay
  // for (or allocate) `count` indices.
  if (!draw_ready(mode, static_cast<std::size_t>(count))) return;
  std::vector<std::uint32_t>& indices = frame_state().indices;
  indices.resize(static_cast<std::size_t>(count));
  for (GLsizei i = 0; i < count; ++i) {
    // Unsigned: first + i can pass INT32_MAX.
    indices[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>(first) + static_cast<std::uint32_t>(i);
  }
  draw_internal(mode, indices);
}

void GlContext::draw_elements(GLenum mode, GLsizei count, GLenum type,
                              const void* indices) {
  if (count < 0) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  // Validate before reading any index, as draw_arrays does.
  if (!draw_ready(mode, static_cast<std::size_t>(count))) return;
  std::vector<std::uint32_t>& idx = frame_state().indices;
  if (!gather_indices(count, type, indices, idx)) return;
  draw_internal(mode, idx);
}

bool GlContext::draw_ready(GLenum mode, std::size_t count) {
  ProgramObject* prog = current_program();
  if (prog == nullptr || !prog->linked) {
    set_error(GL_INVALID_OPERATION);
    return false;
  }
  if (count == 0) return false;
  if (mode != GL_TRIANGLES && mode != GL_TRIANGLE_STRIP &&
      mode != GL_TRIANGLE_FAN && mode != GL_POINTS && mode != GL_LINES) {
    set_error(GL_INVALID_ENUM);
    return false;
  }
  return true;
}

namespace {

// How many leading indices `mode`'s primitives use: the vertex stage shades
// exactly these, as a draw that shaded vertices on first use would.
std::size_t used_index_count(GLenum mode, std::size_t count) {
  switch (mode) {
    case GL_TRIANGLES:
      return count - count % 3;
    case GL_TRIANGLE_STRIP:
    case GL_TRIANGLE_FAN:
      return count >= 3 ? count : 0;
    case GL_LINES:
      return count - count % 2;
    default:
      return count;
  }
}

}  // namespace

void GlContext::draw_internal(GLenum mode,
                              std::span<const std::uint32_t> indices) {
  ProgramObject* prog = current_program();
  stats_.draw_calls++;

  const bool triangle_mode = mode == GL_TRIANGLES ||
                             mode == GL_TRIANGLE_STRIP ||
                             mode == GL_TRIANGLE_FAN;
  const bool defer = triangle_mode && raster_mode_ == RasterMode::kTileBinned;
  // Points and lines (and row-band triangles) write the framebuffer now, so
  // anything binned earlier must land first.
  if (!defer) flush();
  TileBinning& frame = frame_state();

  // --- register preloads and sampler tables -----------------------------------
  // The fragment preload goes into the frame arena, where a deferred draw
  // keeps it until the flush. A draw that defers nothing truncates the arena
  // back to `mark` on the way out.
  const auto mark = static_cast<std::uint32_t>(frame.arena.size());
  const std::size_t tris_mark = frame.tris.size();
  const std::size_t fs_size = prog->fragment.register_file_size;
  frame.arena.resize(mark + fs_size);
  const std::span<Vec4> fs_preload(frame.arena.data() + mark, fs_size);
  frame.vs_preload.assign(prog->vertex.register_file_size, Vec4{});
  load_constants(prog->vertex, frame.vs_preload);
  load_constants(prog->fragment, fs_preload);

  // Samplers resolve to texture objects now: a deferred draw must not chase
  // bindings that change before the flush. Unresolvable slots sample
  // {0, 0, 0, 1}.
  SamplerTable vs_textures{};
  SamplerTable fs_textures{};
  for (const UniformInfo& u : prog->uniforms) {
    if (u.type == ShaderType::kSampler2D) {
      const int unit = static_cast<int>(u.value[0]);
      const TextureObject* tex = nullptr;
      if (unit >= 0 && unit < kMaxTextureUnits) {
        const auto it = textures_.find(texture_bindings_[unit]);
        if (it != textures_.end()) tex = &it->second;
      }
      if (u.vs_sampler_slot >= 0 &&
          static_cast<std::size_t>(u.vs_sampler_slot) < kMaxSamplerSlots) {
        vs_textures[static_cast<std::size_t>(u.vs_sampler_slot)] = tex;
      }
      if (u.fs_sampler_slot >= 0 &&
          static_cast<std::size_t>(u.fs_sampler_slot) < kMaxSamplerSlots) {
        fs_textures[static_cast<std::size_t>(u.fs_sampler_slot)] = tex;
      }
      continue;
    }
    const int regs = register_count(u.type);
    for (int r = 0; r < regs; ++r) {
      const Vec4 v{u.value[static_cast<std::size_t>(r * 4 + 0)],
                   u.value[static_cast<std::size_t>(r * 4 + 1)],
                   u.value[static_cast<std::size_t>(r * 4 + 2)],
                   u.value[static_cast<std::size_t>(r * 4 + 3)]};
      if (u.vs_register >= 0) {
        frame.vs_preload[static_cast<std::size_t>(u.vs_register + r)] = v;
      }
      if (u.fs_register >= 0) {
        fs_preload[static_cast<std::size_t>(u.fs_register + r)] = v;
      }
    }
  }

  const auto discard = [&] {
    frame.arena.resize(mark);
    frame.tris.resize(tris_mark);
  };

  // --- raster target bounds ----------------------------------------------------
  const int fb_w = framebuffer_.width();
  const int fb_h = framebuffer_.height();
  int min_x = std::max(0, viewport_[0]);
  int min_y = std::max(0, viewport_[1]);
  int max_x = std::min(fb_w, viewport_[0] + viewport_[2]);
  int max_y = std::min(fb_h, viewport_[1] + viewport_[3]);
  if (scissor_test_) {
    min_x = std::max(min_x, scissor_[0]);
    min_y = std::max(min_y, scissor_[1]);
    max_x = std::min(max_x, scissor_[0] + scissor_[2]);
    max_y = std::min(max_y, scissor_[1] + scissor_[3]);
  }
  const std::span<const std::uint32_t> used =
      indices.first(used_index_count(mode, indices.size()));
  if (min_x >= max_x || min_y >= max_y || used.empty()) {
    discard();
    return;
  }

  // --- vertex stage: each distinct index shaded once, in lane batches --------
  // A dense slot table over [min, max] when the indices are compact (every
  // real mesh); a sorted index list otherwise, so a stray huge index never
  // sizes an allocation.
  const auto [min_it, max_it] = std::minmax_element(used.begin(), used.end());
  const std::uint32_t base = *min_it;
  const std::size_t range = static_cast<std::size_t>(*max_it - base) + 1;
  const bool dense = range <= 2 * used.size() + 64;
  constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::vector<std::uint32_t>& unique = frame.unique;
  unique.clear();
  if (dense) {
    frame.slot_of.assign(range, kNoSlot);
    for (const std::uint32_t index : used) {
      std::uint32_t& slot = frame.slot_of[index - base];
      if (slot != kNoSlot) continue;
      slot = static_cast<std::uint32_t>(unique.size());
      unique.push_back(index);
    }
  } else {
    unique.assign(used.begin(), used.end());
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  }
  const auto slot_of = [&](std::uint32_t index) -> std::size_t {
    if (dense) return frame.slot_of[index - base];
    return static_cast<std::size_t>(
        std::lower_bound(unique.begin(), unique.end(), index) - unique.begin());
  };

  // Each vertex's arena record is its clip position, then its varyings.
  const std::size_t stride = 1 + prog->varyings.size();
  const auto first_record = static_cast<std::uint32_t>(frame.arena.size());
  frame.arena.resize(first_record + unique.size() * stride);
  frame.screen.resize(unique.size());
  LaneRegisters& vs = frame.vs_lanes;
  vs.bind(prog->vertex, frame.vs_preload);
  for (std::size_t lo = 0; lo < unique.size();
       lo += static_cast<std::size_t>(vs.lanes())) {
    const int n = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(vs.lanes()), unique.size() - lo));
    vs.prepare(n);
    for (int l = 0; l < n; ++l) {
      for (const AttribInfo& attr : prog->attributes) {
        vs.at(attr.vs_register, l) = fetch_attribute(
            attribs_[static_cast<std::size_t>(attr.location)],
            unique[lo + static_cast<std::size_t>(l)]);
      }
    }
    run_lanes(prog->vertex, vs, n, vs_textures);
    for (int l = 0; l < n; ++l) {
      const std::size_t slot = lo + static_cast<std::size_t>(l);
      const auto record = static_cast<std::uint32_t>(first_record + slot * stride);
      Vec4* out = frame.arena.data() + record;
      const Vec4 clip = vs.at(prog->vertex.position_register, l);
      out[0] = clip;
      for (std::size_t i = 0; i < prog->varyings.size(); ++i) {
        out[1 + i] = vs.at(prog->varyings[i].vs_register, l);
      }
      // Viewport transform; clip-space +Y maps up, framebuffer rows go down.
      ScreenVertex& sv = frame.screen[slot];
      const float inv_w = 1.0f / clip.w;
      const float ndc_x = clip.x * inv_w;
      const float ndc_y = clip.y * inv_w;
      const float ndc_z = clip.z * inv_w;
      sv.x = static_cast<float>(viewport_[0]) +
             (ndc_x + 1.0f) * 0.5f * static_cast<float>(viewport_[2]);
      sv.y = static_cast<float>(viewport_[1]) +
             (1.0f - (ndc_y + 1.0f) * 0.5f) * static_cast<float>(viewport_[3]);
      sv.z = (ndc_z + 1.0f) * 0.5f;
      sv.inv_w = inv_w;
      sv.record = record;
    }
  }
  stats_.vertices_processed += unique.size();
  // The arena does not grow again during this draw, so these stay valid.
  const Vec4* arena = frame.arena.data();
  const std::span<const Vec4> fs_regs(arena + mark, fs_size);

  // Near-plane handling: primitives with a vertex at w<=0 are rejected
  // rather than clipped; the synthetic scenes keep geometry in front of the
  // camera.
  constexpr float kMinW = 1e-6f;
  // The screen vertex of `index`, or null when its clip w is at or below
  // kMinW.
  const auto vertex = [&](std::uint32_t index) -> const ScreenVertex* {
    const ScreenVertex& sv = frame.screen[slot_of(index)];
    return arena[sv.record].w <= kMinW ? nullptr : &sv;
  };

  // Primitive assembly: culling, fill-rule setup, and bounding box. Survivors
  // go to the frame's triangle list, where fragment work is partitioned
  // (into tiles or bands).
  const auto assemble_triangle = [&](const ScreenVertex& a,
                                     const ScreenVertex& b,
                                     const ScreenVertex& c) {
    // Signed area in screen space; also used for facing.
    const float area =
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    if (area == 0.0f) return;
    if (cull_face_enabled_) {
      // Screen Y points down, so a counter-clockwise triangle in GL terms has
      // negative screen-space area.
      const bool front_is_ccw = front_face_ == GL_CCW;
      const bool is_front = front_is_ccw ? (area < 0.0f) : (area > 0.0f);
      if ((cull_mode_ == GL_BACK && !is_front) ||
          (cull_mode_ == GL_FRONT && is_front)) {
        return;
      }
    }
    stats_.triangles_rasterized++;

    AssembledTriangle tri;
    tri.a = a;
    tri.b = b;
    tri.c = c;
    tri.bx0 = std::max(min_x, static_cast<int>(std::floor(
                                  std::min({a.x, b.x, c.x}))));
    tri.by0 = std::max(min_y, static_cast<int>(std::floor(
                                  std::min({a.y, b.y, c.y}))));
    tri.bx1 = std::min(max_x, static_cast<int>(std::ceil(
                                  std::max({a.x, b.x, c.x}))));
    tri.by1 = std::min(max_y, static_cast<int>(std::ceil(
                                  std::max({a.y, b.y, c.y}))));
    if (tri.bx0 >= tri.bx1 || tri.by0 >= tri.by1) return;
    tri.inv_area = 1.0f / area;

    // Top-left fill rule: a pixel center exactly on an edge belongs to the
    // triangle only when that (orientation-normalized) edge is a top or left
    // edge, so triangles sharing an edge shade each covered pixel exactly
    // once — no double blending, no cracks.
    const float orient = area > 0.0f ? 1.0f : -1.0f;
    const auto accepts_zero = [orient](float from_x, float from_y, float to_x,
                                       float to_y) {
      const float dx = (to_x - from_x) * orient;
      const float dy = (to_y - from_y) * orient;
      return dy < 0.0f || (dy == 0.0f && dx > 0.0f);
    };
    tri.zero0 = accepts_zero(b.x, b.y, c.x, c.y);
    tri.zero1 = accepts_zero(c.x, c.y, a.x, a.y);
    tri.zero2 = accepts_zero(a.x, a.y, b.x, b.y);
    frame.tris.push_back(tri);
  };
  const auto emit_triangle = [&](std::uint32_t i0, std::uint32_t i1,
                                 std::uint32_t i2) {
    const ScreenVertex* a = vertex(i0);
    const ScreenVertex* b = vertex(i1);
    const ScreenVertex* c = vertex(i2);
    if (a != nullptr && b != nullptr && c != nullptr) assemble_triangle(*a, *b, *c);
  };

  // Points and lines write sparse, arbitrary pixels; they run serially on
  // the caller's fragment register file, one lane per fragment.
  LaneRegisters& serial_regs = fragment_lanes();
  if (!triangle_mode) serial_regs.bind(prog->fragment, fs_regs);
  std::uint64_t serial_fragments = 0;
  const auto shade_fragment = [&](int px, int py, float depth,
                                  const ScreenVertex* v0, const ScreenVertex* v1,
                                  float b0, float b1) {
    if (depth_test_) {
      float& stored = framebuffer_.depth(px, py);
      if (!depth_passes(depth_func_, depth, stored)) return;
      stored = depth;
    }
    serial_regs.prepare(1);
    for (std::size_t i = 0; i < prog->varyings.size(); ++i) {
      Vec4 value = arena[v0->record + 1 + i] * b0;
      if (v1 != nullptr) value = value + arena[v1->record + 1 + i] * b1;
      serial_regs.at(prog->varyings[i].fs_register, 0) = value;
    }
    run_lanes(prog->fragment, serial_regs, 1, fs_textures);
    serial_fragments++;
    write_color(framebuffer_.color().pixel(px, py),
                serial_regs.at(prog->fragment.fragcolor_register, 0), blend_,
                blend_src_, blend_dst_);
  };

  switch (mode) {
    case GL_TRIANGLES:
      for (std::size_t i = 0; i + 2 < used.size(); i += 3) {
        emit_triangle(used[i], used[i + 1], used[i + 2]);
      }
      break;
    case GL_TRIANGLE_STRIP:
      for (std::size_t i = 0; i + 2 < used.size(); ++i) {
        if (i % 2 == 0) {
          emit_triangle(used[i], used[i + 1], used[i + 2]);
        } else {
          emit_triangle(used[i + 1], used[i], used[i + 2]);
        }
      }
      break;
    case GL_TRIANGLE_FAN:
      for (std::size_t i = 1; i + 1 < used.size(); ++i) {
        emit_triangle(used[0], used[i], used[i + 1]);
      }
      break;
    case GL_POINTS:
      for (const std::uint32_t index : used) {
        const ScreenVertex* v = vertex(index);
        if (v == nullptr) continue;
        const int px = static_cast<int>(v->x);
        const int py = static_cast<int>(v->y);
        if (px < min_x || px >= max_x || py < min_y || py >= max_y) continue;
        if (v->z < 0.0f || v->z > 1.0f) continue;
        shade_fragment(px, py, v->z, v, nullptr, 1.0f, 0.0f);
      }
      break;
    case GL_LINES:
      for (std::size_t i = 0; i + 1 < used.size(); i += 2) {
        const ScreenVertex* a = vertex(used[i]);
        const ScreenVertex* b = vertex(used[i + 1]);
        if (a == nullptr || b == nullptr) continue;
        const float dx = b->x - a->x;
        const float dy = b->y - a->y;
        const int steps = std::max(
            1, static_cast<int>(std::max(std::fabs(dx), std::fabs(dy))));
        for (int s = 0; s <= steps; ++s) {
          const float t = static_cast<float>(s) / static_cast<float>(steps);
          const int px = static_cast<int>(a->x + dx * t);
          const int py = static_cast<int>(a->y + dy * t);
          if (px < min_x || px >= max_x || py < min_y || py >= max_y) continue;
          const float depth = a->z + (b->z - a->z) * t;
          if (depth < 0.0f || depth > 1.0f) continue;
          shade_fragment(px, py, depth, a, b, 1.0f - t, t);
        }
      }
      break;
    default:
      break;
  }
  stats_.fragments_shaded += serial_fragments;

  if (frame.tris.size() == tris_mark) {
    discard();
    return;
  }

  // --- tile-binned path: snapshot the draw and defer the fragment stage ------
  if (defer) {
    const int tiles_x = (fb_w + kRasterTileSize - 1) / kRasterTileSize;
    const auto draw_index = static_cast<std::uint32_t>(frame.draws.size());
    for (std::size_t t = tris_mark; t < frame.tris.size(); ++t) {
      const AssembledTriangle& tri = frame.tris[t];
      const int tile_x0 = tri.bx0 / kRasterTileSize;
      const int tile_x1 = (tri.bx1 - 1) / kRasterTileSize;
      const int tile_y0 = tri.by0 / kRasterTileSize;
      const int tile_y1 = (tri.by1 - 1) / kRasterTileSize;
      for (int ty = tile_y0; ty <= tile_y1; ++ty) {
        for (int tx = tile_x0; tx <= tile_x1; ++tx) {
          frame.binned.push_back(
              {static_cast<std::uint32_t>(ty * tiles_x + tx),
               BinEntry{draw_index, static_cast<std::uint32_t>(t)}});
        }
      }
    }
    DeferredDraw d;
    d.prog = prog;
    d.fs_preload = mark;
    d.fs_textures = fs_textures;
    d.depth_test = depth_test_;
    d.blend = blend_;
    d.depth_func = depth_func_;
    d.blend_src = blend_src_;
    d.blend_dst = blend_dst_;
    frame.draws.push_back(d);
    return;
  }

  // --- row-band path: immediate fragment stage -------------------------------
  // Each row band is owned by exactly one worker, and every worker visits
  // triangles in submission order, so each pixel sees the same
  // depth/blend/write sequence as the serial rasterizer — output is
  // bit-identical for any thread count.
  const std::span<const AssembledTriangle> assembled(
      frame.tris.data() + tris_mark, frame.tris.size() - tris_mark);
  const auto raster_rows = [&](int row_lo, int row_hi) -> std::uint64_t {
    LaneRegisters& regs = fragment_lanes();
    regs.bind(prog->fragment, fs_regs);
    std::uint64_t fragments = 0;
    for (const AssembledTriangle& tri : assembled) {
      const ScreenVertex& a = tri.a;
      const ScreenVertex& b = tri.b;
      const ScreenVertex& c = tri.c;
      const int y0 = std::max(tri.by0, row_lo);
      const int y1 = std::min(tri.by1, row_hi);
      for (int py = y0; py < y1; ++py) {
        for (int px = tri.bx0; px < tri.bx1; ++px) {
          const float fx = static_cast<float>(px) + 0.5f;
          const float fy = static_cast<float>(py) + 0.5f;
          // Barycentric weights via edge functions; consistent sign for
          // either winding thanks to inv_area.
          const float w0 = ((b.x - fx) * (c.y - fy) - (b.y - fy) * (c.x - fx)) *
                           tri.inv_area;
          const float w1 = ((c.x - fx) * (a.y - fy) - (c.y - fy) * (a.x - fx)) *
                           tri.inv_area;
          const float w2 = 1.0f - w0 - w1;
          if (w0 < 0.0f || w1 < 0.0f || w2 < 0.0f) continue;
          if ((w0 == 0.0f && !tri.zero0) || (w1 == 0.0f && !tri.zero1) ||
              (w2 == 0.0f && !tri.zero2)) {
            continue;
          }
          const float depth = w0 * a.z + w1 * b.z + w2 * c.z;
          if (depth < 0.0f || depth > 1.0f) continue;
          const float iw = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w;
          if (iw == 0.0f) continue;
          if (depth_test_) {
            float& stored = framebuffer_.depth(px, py);
            if (!depth_passes(depth_func_, depth, stored)) continue;
            stored = depth;
          }
          regs.prepare(1);
          interpolate(*prog, arena, tri, w0, w1, w2, regs, 0);
          run_lanes(prog->fragment, regs, 1, fs_textures);
          fragments++;
          write_color(framebuffer_.color().pixel(px, py),
                      regs.at(prog->fragment.fragcolor_register, 0), blend_,
                      blend_src_, blend_dst_);
        }
      }
    }
    return fragments;
  };

  runtime::ThreadPool* workers = raster_pool();
  if (workers == nullptr || workers->serial()) {
    stats_.fragments_shaded += raster_rows(min_y, max_y);
  } else {
    const std::int64_t rows = max_y - min_y;
    const std::int64_t band_rows =
        std::max<std::int64_t>(4, rows / (4 * workers->thread_count()));
    std::atomic<std::uint64_t> total_fragments{0};
    workers->parallel_for(
        min_y, max_y, band_rows, [&](std::int64_t row_lo, std::int64_t row_hi) {
          total_fragments.fetch_add(
              raster_rows(static_cast<int>(row_lo), static_cast<int>(row_hi)),
              std::memory_order_relaxed);
        });
    stats_.fragments_shaded += total_fragments.load(std::memory_order_relaxed);
  }
  discard();
}

}  // namespace gb::gles
