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
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/simd.h"
#include "gles/context.h"
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

float wrap_coord(float t, GLenum mode) {
  if (mode == GL_CLAMP_TO_EDGE) return std::clamp(t, 0.0f, 1.0f);
  return t - std::floor(t);  // GL_REPEAT
}

Vec4 fetch_texel(const Image& img, int x, int y) {
  x = std::clamp(x, 0, img.width() - 1);
  y = std::clamp(y, 0, img.height() - 1);
  const std::uint8_t* p = img.pixel(x, y);
  constexpr float kInv255 = 1.0f / 255.0f;
  return {p[0] * kInv255, p[1] * kInv255, p[2] * kInv255, p[3] * kInv255};
}

Vec4 sample_texture(const TextureObject& tex, float u, float v) {
  const Image& img = tex.image;
  if (img.empty()) return {0, 0, 0, 1};
  u = wrap_coord(u, tex.wrap_s);
  v = wrap_coord(v, tex.wrap_t);
  const float fx = u * static_cast<float>(img.width()) - 0.5f;
  const float fy = v * static_cast<float>(img.height()) - 0.5f;
  if (tex.mag_filter == GL_NEAREST) {
    return fetch_texel(img, static_cast<int>(std::lround(fx)),
                       static_cast<int>(std::lround(fy)));
  }
  const int x0 = static_cast<int>(std::floor(fx));
  const int y0 = static_cast<int>(std::floor(fy));
  const float ax = fx - static_cast<float>(x0);
  const float ay = fy - static_cast<float>(y0);
  const Vec4 t00 = fetch_texel(img, x0, y0);
  const Vec4 t10 = fetch_texel(img, x0 + 1, y0);
  const Vec4 t01 = fetch_texel(img, x0, y0 + 1);
  const Vec4 t11 = fetch_texel(img, x0 + 1, y0 + 1);
  const Vec4 top = t00 + (t10 - t00) * ax;
  const Vec4 bottom = t01 + (t11 - t01) * ax;
  return top + (bottom - top) * ay;
}

// Per-worker fragment state for the row-band path: a private register file
// (so concurrent bands never share shader scratch space) and a private
// shaded-fragment count, summed into RenderStats after the bands join.
struct FragmentLane {
  std::vector<Vec4>* registers = nullptr;
  std::uint64_t fragments_shaded = 0;
};

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
                      const std::vector<BinEntry>& entries, int tx0, int ty0,
                      int tx1, int ty1) {
  TileStats stats;
  std::array<PixelWinner, kTilePixels> winners{};
  bool have_winners = false;

  // Per-draw shading state, rebuilt only when the draw changes.
  std::vector<Vec4> regs;
  TextureSampleFn sampler;
  std::uint32_t regs_draw = 0xffffffffu;
  const auto select_draw = [&](std::uint32_t di) {
    if (di == regs_draw) return;
    regs_draw = di;
    const DeferredDraw& d = bin.draws[di];
    regs = d.fs_registers;
    const std::array<const TextureObject*, 16>* texs = &d.fs_textures;
    sampler = [texs](int slot, float u, float v) -> Vec4 {
      const TextureObject* tex = (*texs)[static_cast<std::size_t>(slot)];
      if (tex == nullptr) return {0, 0, 0, 1};
      return sample_texture(*tex, u, v);
    };
  };

  // Interpolates varyings, runs the fragment shader, and returns the shader
  // color. Left-associated sum matches the immediate rasterizer exactly.
  const auto run_fragment = [&](const DeferredDraw& d,
                                const AssembledTriangle& tri, float w0,
                                float w1, float w2) -> Vec4 {
    const ScreenVertex& a = tri.a;
    const ScreenVertex& b = tri.b;
    const ScreenVertex& c = tri.c;
    const float iw = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w;
    const float p0 = w0 * a.inv_w / iw;
    const float p1 = w1 * b.inv_w / iw;
    const float p2 = w2 * c.inv_w / iw;
    const ProgramObject& prog = *d.prog;
    for (std::size_t i = 0; i < prog.varyings.size(); ++i) {
      regs[prog.varyings[i].fs_register] = a.shaded->varyings[i] * p0 +
                                           b.shaded->varyings[i] * p1 +
                                           c.shaded->varyings[i] * p2;
    }
    run_shader(prog.fragment, regs, sampler);
    stats.shaded++;
    return regs[prog.fragment.fragcolor_register];
  };

  // Resolves every pending winner: one fragment-shader run per surviving
  // pixel. Winners only come from non-blended draws, so the write is a
  // plain replace — which is also the sequential rasterizer's final value,
  // since its last depth-passing fragment overwrote all earlier ones.
  const auto flush_winners = [&]() {
    if (!have_winners) return;
    for (int py = ty0; py < ty1; ++py) {
      for (int px = tx0; px < tx1; ++px) {
        PixelWinner& w =
            winners[static_cast<std::size_t>((py - ty0) * kTileSize +
                                             (px - tx0))];
        if (w.entry < 0) continue;
        const BinEntry e = entries[static_cast<std::size_t>(w.entry)];
        const DeferredDraw& d = bin.draws[e.draw];
        select_draw(e.draw);
        const Vec4 color = run_fragment(d, d.tris[e.tri], w.w0, w.w1,
                                        1.0f - w.w0 - w.w1);
        std::uint8_t* dst = fb.color().pixel(px, py);
        dst[0] = static_cast<std::uint8_t>(
            std::lround(std::clamp(color.x, 0.0f, 1.0f) * 255.0f));
        dst[1] = static_cast<std::uint8_t>(
            std::lround(std::clamp(color.y, 0.0f, 1.0f) * 255.0f));
        dst[2] = static_cast<std::uint8_t>(
            std::lround(std::clamp(color.z, 0.0f, 1.0f) * 255.0f));
        dst[3] = static_cast<std::uint8_t>(
            std::lround(std::clamp(color.w, 0.0f, 1.0f) * 255.0f));
        w.entry = -1;
      }
    }
    have_winners = false;
  };

  // Row-sized scratch for the vectorized edge functions.
  std::array<float, kTileSize> w0_row{}, w1_row{}, w2_row{}, z_row{};

  for (std::size_t pos = 0; pos < entries.size(); ++pos) {
    const BinEntry e = entries[pos];
    const DeferredDraw& d = bin.draws[e.draw];
    const AssembledTriangle& tri = d.tris[e.tri];
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
        const Vec4 color = run_fragment(d, tri, w0, w1, w2);
        std::uint8_t* dst = fb.color().pixel(px, py);
        float out[4] = {std::clamp(color.x, 0.0f, 1.0f),
                        std::clamp(color.y, 0.0f, 1.0f),
                        std::clamp(color.z, 0.0f, 1.0f),
                        std::clamp(color.w, 0.0f, 1.0f)};
        constexpr float kInv255 = 1.0f / 255.0f;
        const float dst_rgba[4] = {dst[0] * kInv255, dst[1] * kInv255,
                                   dst[2] * kInv255, dst[3] * kInv255};
        const float sa = out[3];
        const float da = dst_rgba[3];
        for (int ch = 0; ch < 4; ++ch) {
          const float sf =
              blend_factor(d.blend_src, sa, da, out[ch], dst_rgba[ch]);
          const float df =
              blend_factor(d.blend_dst, sa, da, out[ch], dst_rgba[ch]);
          out[ch] = std::clamp(out[ch] * sf + dst_rgba[ch] * df, 0.0f, 1.0f);
        }
        for (int ch = 0; ch < 4; ++ch) {
          dst[ch] = static_cast<std::uint8_t>(std::lround(out[ch] * 255.0f));
        }
      }
    }
  }
  flush_winners();
  return stats;
}

}  // namespace

void GlContext::flush() {
  if (binning_ == nullptr || binning_->draws.empty()) return;
  flush_impl(nullptr);
}

void GlContext::flush_tiles(const TileSink& sink) { flush_impl(&sink); }

void GlContext::flush_impl(const TileSink* sink) {
  const int fb_w = framebuffer_.width();
  const int fb_h = framebuffer_.height();
  const int tiles_x = (fb_w + kTileSize - 1) / kTileSize;
  const std::int64_t tile_count =
      static_cast<std::int64_t>(tiles_x) * ((fb_h + kTileSize - 1) / kTileSize);
  TileBinning* bin = binning_.get();
  const bool pending = bin != nullptr && !bin->draws.empty();
  if (!pending && sink == nullptr) return;

  std::atomic<std::uint64_t> total_candidates{0};
  std::atomic<std::uint64_t> total_shaded{0};
  // Per-tile shaded-pixel fraction; each slot is written only by the worker
  // that owns the tile, then read serially after the join (the registry's
  // counters and histograms are not thread-safe). -1 marks an empty tile.
  std::vector<float> occupancy;
  if (pending) occupancy.assign(static_cast<std::size_t>(tile_count), -1.0f);

  const auto run_tiles = [&](std::int64_t lo, std::int64_t hi) {
    std::uint64_t candidates = 0;
    std::uint64_t shaded = 0;
    for (std::int64_t t = lo; t < hi; ++t) {
      const int tile_x0 = static_cast<int>(t % tiles_x) * kTileSize;
      const int tile_y0 = static_cast<int>(t / tiles_x) * kTileSize;
      const int tile_x1 = std::min(tile_x0 + kTileSize, fb_w);
      const int tile_y1 = std::min(tile_y0 + kTileSize, fb_h);
      if (pending && !bin->bins[static_cast<std::size_t>(t)].empty()) {
        const TileStats ts =
            raster_tile(*bin, framebuffer_, bin->bins[static_cast<std::size_t>(t)],
                        tile_x0, tile_y0, tile_x1, tile_y1);
        candidates += ts.candidates;
        shaded += ts.shaded;
        occupancy[static_cast<std::size_t>(t)] =
            static_cast<float>(ts.shaded) /
            static_cast<float>((tile_x1 - tile_x0) * (tile_y1 - tile_y0));
      }
      // The tile's pixels are final: hand it to the fused consumer while
      // other tiles may still be rasterizing.
      if (sink != nullptr) (*sink)(framebuffer_.color(), static_cast<int>(t));
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
  for (const float occ : occupancy) {
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
    for (const float occ : occupancy) {
      if (occ >= 0.0f) occupancy_hist.observe(occ);
    }
  }
  bin->draws.clear();
  for (std::vector<BinEntry>& b : bin->bins) b.clear();
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

std::vector<std::uint32_t> GlContext::gather_indices(GLsizei count, GLenum type,
                                                     const void* indices) {
  std::vector<std::uint32_t> out;
  out.reserve(static_cast<std::size_t>(count));
  const int elem = scalar_type_size(type);
  const std::uint8_t* base = nullptr;
  if (element_buffer_binding_ != 0) {
    const auto it = buffers_.find(element_buffer_binding_);
    if (it == buffers_.end()) return out;
    const std::size_t offset = reinterpret_cast<std::size_t>(indices);
    const std::size_t size = it->second.data.size();
    if (offset > size || static_cast<std::size_t>(count) * elem > size - offset) {
      set_error(GL_INVALID_OPERATION);
      return out;
    }
    base = it->second.data.data() + offset;
  } else {
    base = static_cast<const std::uint8_t*>(indices);
    if (base == nullptr) return out;
  }
  for (GLsizei i = 0; i < count; ++i) {
    const std::uint8_t* src = base + static_cast<std::size_t>(i) * elem;
    switch (type) {
      case GL_UNSIGNED_BYTE:
        out.push_back(*src);
        break;
      case GL_UNSIGNED_SHORT: {
        std::uint16_t v = 0;
        std::memcpy(&v, src, sizeof(v));
        out.push_back(v);
        break;
      }
      case GL_UNSIGNED_INT: {
        std::uint32_t v = 0;
        std::memcpy(&v, src, sizeof(v));
        out.push_back(v);
        break;
      }
      default:
        set_error(GL_INVALID_ENUM);
        return {};
    }
  }
  return out;
}

void GlContext::draw_arrays(GLenum mode, GLint first, GLsizei count) {
  if (count < 0 || first < 0) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  // Validate before building the index list: a rejected draw must not pay
  // for (or allocate) `count` indices.
  if (!draw_ready(mode, static_cast<std::size_t>(count))) return;
  std::vector<std::uint32_t> indices(static_cast<std::size_t>(count));
  for (GLsizei i = 0; i < count; ++i) {
    // Unsigned: first + i can pass INT32_MAX.
    indices[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>(first) + static_cast<std::uint32_t>(i);
  }
  draw_internal(mode, indices, /*sequential=*/true, first);
}

void GlContext::draw_elements(GLenum mode, GLsizei count, GLenum type,
                              const void* indices) {
  if (count < 0) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  // Validate before reading any index, as draw_arrays does.
  if (!draw_ready(mode, static_cast<std::size_t>(count))) return;
  const std::vector<std::uint32_t> idx = gather_indices(count, type, indices);
  if (idx.size() != static_cast<std::size_t>(count)) return;
  draw_internal(mode, idx, /*sequential=*/false, 0);
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

void GlContext::draw_internal(GLenum mode,
                              std::span<const std::uint32_t> indices,
                              bool sequential, GLint first) {
  (void)sequential;
  (void)first;
  ProgramObject* prog = current_program();
  stats_.draw_calls++;

  const bool triangle_mode = mode == GL_TRIANGLES ||
                             mode == GL_TRIANGLE_STRIP ||
                             mode == GL_TRIANGLE_FAN;
  const bool defer = triangle_mode && raster_mode_ == RasterMode::kTileBinned;
  // Points and lines (and row-band triangles) write the framebuffer now, so
  // anything binned earlier must land first.
  if (!defer) flush();

  // --- prepare register files ------------------------------------------------
  vs_registers_.assign(prog->vertex.register_file_size, Vec4{});
  fs_registers_.assign(prog->fragment.register_file_size, Vec4{});
  load_constants(prog->vertex, vs_registers_);
  load_constants(prog->fragment, fs_registers_);

  // Sampler slot -> texture unit mapping, and uniform register loads.
  std::array<int, 16> vs_sampler_units{};
  std::array<int, 16> fs_sampler_units{};
  vs_sampler_units.fill(-1);
  fs_sampler_units.fill(-1);
  for (const UniformInfo& u : prog->uniforms) {
    if (u.type == ShaderType::kSampler2D) {
      const int unit = static_cast<int>(u.value[0]);
      if (u.vs_sampler_slot >= 0) {
        vs_sampler_units[static_cast<std::size_t>(u.vs_sampler_slot)] = unit;
      }
      if (u.fs_sampler_slot >= 0) {
        fs_sampler_units[static_cast<std::size_t>(u.fs_sampler_slot)] = unit;
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
        vs_registers_[static_cast<std::size_t>(u.vs_register + r)] = v;
      }
      if (u.fs_register >= 0) {
        fs_registers_[static_cast<std::size_t>(u.fs_register + r)] = v;
      }
    }
  }

  const auto sampler_for = [this](const std::array<int, 16>& units) {
    return [this, &units](int slot, float u, float v) -> Vec4 {
      const int unit = units[static_cast<std::size_t>(slot)];
      if (unit < 0 || unit >= kMaxTextureUnits) return {0, 0, 0, 1};
      const GLuint name = texture_bindings_[unit];
      const auto it = textures_.find(name);
      if (it == textures_.end()) return {0, 0, 0, 1};
      return sample_texture(it->second, u, v);
    };
  };
  const TextureSampleFn vs_sampler = sampler_for(vs_sampler_units);
  const TextureSampleFn fs_sampler = sampler_for(fs_sampler_units);

  // Deferred draws must not chase texture bindings later (they may change
  // before the flush), so resolve sampler slots to texture objects now.
  // Unresolvable slots sample {0,0,0,1}, exactly like the live lookup.
  std::array<const TextureObject*, 16> fs_textures{};
  if (defer) {
    for (int slot = 0; slot < 16; ++slot) {
      const int unit = fs_sampler_units[static_cast<std::size_t>(slot)];
      if (unit < 0 || unit >= kMaxTextureUnits) continue;
      const auto it = textures_.find(texture_bindings_[unit]);
      if (it != textures_.end()) {
        fs_textures[static_cast<std::size_t>(slot)] = &it->second;
      }
    }
  }

  // --- vertex stage with per-index memoization --------------------------------
  // Dense over [min, max] index when the indices are compact (every real
  // mesh); a hash map otherwise, so a stray huge index or `first` never
  // sizes an allocation. Either way each index is shaded once.
  const auto [min_it, max_it] =
      std::minmax_element(indices.begin(), indices.end());
  const std::uint32_t base = *min_it;
  const std::size_t range = static_cast<std::size_t>(*max_it - base) + 1;
  const bool dense = range <= 2 * indices.size() + 64;
  std::vector<ShadedVertex> cache(dense ? range : 0);
  std::unordered_map<std::uint32_t, ShadedVertex> sparse;

  const auto shade_vertex = [&](std::uint32_t index) -> const ShadedVertex& {
    ShadedVertex& sv = dense ? cache[index - base] : sparse[index];
    if (sv.shaded) return sv;
    for (const AttribInfo& attr : prog->attributes) {
      const Vec4 v = fetch_attribute(
          attribs_[static_cast<std::size_t>(attr.location)], index);
      vs_registers_[attr.vs_register] = v;
    }
    run_shader(prog->vertex, vs_registers_, vs_sampler);
    sv.clip = vs_registers_[prog->vertex.position_register];
    sv.varyings.resize(prog->varyings.size());
    for (std::size_t i = 0; i < prog->varyings.size(); ++i) {
      sv.varyings[i] = vs_registers_[prog->varyings[i].vs_register];
    }
    sv.shaded = true;
    stats_.vertices_processed++;
    return sv;
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
  if (min_x >= max_x || min_y >= max_y) return;

  const auto to_screen = [&](const ShadedVertex& sv) -> ScreenVertex {
    ScreenVertex out;
    const float inv_w = 1.0f / sv.clip.w;
    const float ndc_x = sv.clip.x * inv_w;
    const float ndc_y = sv.clip.y * inv_w;
    const float ndc_z = sv.clip.z * inv_w;
    // Viewport transform; clip-space +Y maps up, framebuffer rows go down.
    out.x = static_cast<float>(viewport_[0]) +
            (ndc_x + 1.0f) * 0.5f * static_cast<float>(viewport_[2]);
    out.y = static_cast<float>(viewport_[1]) +
            (1.0f - (ndc_y + 1.0f) * 0.5f) * static_cast<float>(viewport_[3]);
    out.z = (ndc_z + 1.0f) * 0.5f;
    out.inv_w = inv_w;
    out.shaded = &sv;
    return out;
  };

  // Runs the fragment shader for one pixel with interpolated varyings and
  // performs depth/blend/write. `bary` are perspective-corrected weights.
  // All mutable state lives in `lane`, so concurrent row bands stay isolated.
  const auto shade_fragment = [&](FragmentLane& lane, int px, int py,
                                  float depth, const ScreenVertex* v0,
                                  const ScreenVertex* v1,
                                  const ScreenVertex* v2, float b0, float b1,
                                  float b2) {
    if (depth_test_) {
      float& stored = framebuffer_.depth(px, py);
      if (!depth_passes(depth_func_, depth, stored)) return;
      stored = depth;
    }
    std::vector<Vec4>& regs = *lane.registers;
    for (std::size_t i = 0; i < prog->varyings.size(); ++i) {
      Vec4 value = v0->shaded->varyings[i] * b0;
      if (v1 != nullptr) value = value + v1->shaded->varyings[i] * b1;
      if (v2 != nullptr) value = value + v2->shaded->varyings[i] * b2;
      regs[prog->varyings[i].fs_register] = value;
    }
    run_shader(prog->fragment, regs, fs_sampler);
    const Vec4 color = regs[prog->fragment.fragcolor_register];
    lane.fragments_shaded++;

    std::uint8_t* dst = framebuffer_.color().pixel(px, py);
    float out[4] = {std::clamp(color.x, 0.0f, 1.0f),
                    std::clamp(color.y, 0.0f, 1.0f),
                    std::clamp(color.z, 0.0f, 1.0f),
                    std::clamp(color.w, 0.0f, 1.0f)};
    if (blend_) {
      constexpr float kInv255 = 1.0f / 255.0f;
      const float dst_rgba[4] = {dst[0] * kInv255, dst[1] * kInv255,
                                 dst[2] * kInv255, dst[3] * kInv255};
      const float sa = out[3];
      const float da = dst_rgba[3];
      for (int c = 0; c < 4; ++c) {
        const float sf = blend_factor(blend_src_, sa, da, out[c], dst_rgba[c]);
        const float df = blend_factor(blend_dst_, sa, da, out[c], dst_rgba[c]);
        out[c] = std::clamp(out[c] * sf + dst_rgba[c] * df, 0.0f, 1.0f);
      }
    }
    for (int c = 0; c < 4; ++c) {
      dst[c] = static_cast<std::uint8_t>(std::lround(out[c] * 255.0f));
    }
  };

  // Primitive assembly: culling, fill-rule setup, and bounding box. Survivors
  // are buffered so fragment work can be partitioned (into tiles or bands).
  std::vector<AssembledTriangle> assembled;
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
    assembled.push_back(tri);
  };

  // Scan-converts the rows of `tri` that fall inside [row_lo, row_hi). The
  // caller guarantees no other thread touches those rows.
  const auto raster_triangle_rows = [&](const AssembledTriangle& tri,
                                        int row_lo, int row_hi,
                                        FragmentLane& lane) {
    const ScreenVertex& a = tri.a;
    const ScreenVertex& b = tri.b;
    const ScreenVertex& c = tri.c;
    const int y0 = std::max(tri.by0, row_lo);
    const int y1 = std::min(tri.by1, row_hi);
    for (int py = y0; py < y1; ++py) {
      for (int px = tri.bx0; px < tri.bx1; ++px) {
        const float fx = static_cast<float>(px) + 0.5f;
        const float fy = static_cast<float>(py) + 0.5f;
        // Barycentric weights via edge functions; consistent sign for either
        // winding thanks to inv_area.
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
        // Perspective-correct varying weights.
        const float iw = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w;
        if (iw == 0.0f) continue;
        const float p0 = w0 * a.inv_w / iw;
        const float p1 = w1 * b.inv_w / iw;
        const float p2 = w2 * c.inv_w / iw;
        shade_fragment(lane, px, py, depth, &a, &b, &c, p0, p1, p2);
      }
    }
  };

  constexpr float kMinW = 1e-6f;
  const auto emit_triangle = [&](std::uint32_t i0, std::uint32_t i1,
                                 std::uint32_t i2) {
    const ShadedVertex& s0 = shade_vertex(i0);
    const ShadedVertex& s1 = shade_vertex(i1);
    const ShadedVertex& s2 = shade_vertex(i2);
    // Near-plane handling: triangles that cross w<=0 are rejected rather than
    // clipped; the synthetic scenes keep geometry in front of the camera.
    if (s0.clip.w <= kMinW || s1.clip.w <= kMinW || s2.clip.w <= kMinW) return;
    assemble_triangle(to_screen(s0), to_screen(s1), to_screen(s2));
  };

  // Points and lines write sparse, arbitrary pixels; they stay serial on the
  // caller's register file.
  FragmentLane serial_lane{&fs_registers_, 0};

  const auto raster_point = [&](const ScreenVertex& v) {
    const int px = static_cast<int>(v.x);
    const int py = static_cast<int>(v.y);
    if (px < min_x || px >= max_x || py < min_y || py >= max_y) return;
    if (v.z < 0.0f || v.z > 1.0f) return;
    shade_fragment(serial_lane, px, py, v.z, &v, nullptr, nullptr, 1.0f, 0.0f,
                   0.0f);
  };

  const auto raster_line = [&](const ScreenVertex& a, const ScreenVertex& b) {
    const float dx = b.x - a.x;
    const float dy = b.y - a.y;
    const int steps =
        std::max(1, static_cast<int>(std::max(std::fabs(dx), std::fabs(dy))));
    for (int s = 0; s <= steps; ++s) {
      const float t = static_cast<float>(s) / static_cast<float>(steps);
      const int px = static_cast<int>(a.x + dx * t);
      const int py = static_cast<int>(a.y + dy * t);
      if (px < min_x || px >= max_x || py < min_y || py >= max_y) continue;
      const float depth = a.z + (b.z - a.z) * t;
      if (depth < 0.0f || depth > 1.0f) continue;
      shade_fragment(serial_lane, px, py, depth, &a, &b, nullptr, 1.0f - t, t,
                     0.0f);
    }
  };

  switch (mode) {
    case GL_TRIANGLES:
      for (std::size_t i = 0; i + 2 < indices.size(); i += 3) {
        emit_triangle(indices[i], indices[i + 1], indices[i + 2]);
      }
      break;
    case GL_TRIANGLE_STRIP:
      for (std::size_t i = 0; i + 2 < indices.size(); ++i) {
        if (i % 2 == 0) {
          emit_triangle(indices[i], indices[i + 1], indices[i + 2]);
        } else {
          emit_triangle(indices[i + 1], indices[i], indices[i + 2]);
        }
      }
      break;
    case GL_TRIANGLE_FAN:
      for (std::size_t i = 1; i + 1 < indices.size(); ++i) {
        emit_triangle(indices[0], indices[i], indices[i + 1]);
      }
      break;
    case GL_POINTS:
      for (const std::uint32_t index : indices) {
        const ShadedVertex& sv = shade_vertex(index);
        if (sv.clip.w <= kMinW) continue;
        raster_point(to_screen(sv));
      }
      break;
    case GL_LINES:
      for (std::size_t i = 0; i + 1 < indices.size(); i += 2) {
        const ShadedVertex& s0 = shade_vertex(indices[i]);
        const ShadedVertex& s1 = shade_vertex(indices[i + 1]);
        if (s0.clip.w <= kMinW || s1.clip.w <= kMinW) continue;
        raster_line(to_screen(s0), to_screen(s1));
      }
      break;
    default:
      break;
  }
  stats_.fragments_shaded += serial_lane.fragments_shaded;

  if (assembled.empty()) return;

  // --- tile-binned path: snapshot the draw and defer the fragment stage ------
  if (defer) {
    if (binning_ == nullptr) binning_ = std::make_unique<TileBinning>();
    TileBinning& bin = *binning_;
    if (bin.draws.empty()) {
      bin.tiles_x = (fb_w + kRasterTileSize - 1) / kRasterTileSize;
      bin.tiles_y = (fb_h + kRasterTileSize - 1) / kRasterTileSize;
      bin.bins.resize(static_cast<std::size_t>(bin.tiles_x) * bin.tiles_y);
    }
    const auto draw_index = static_cast<std::uint32_t>(bin.draws.size());
    for (std::size_t t = 0; t < assembled.size(); ++t) {
      const AssembledTriangle& tri = assembled[t];
      const int tile_x0 = tri.bx0 / kRasterTileSize;
      const int tile_x1 = (tri.bx1 - 1) / kRasterTileSize;
      const int tile_y0 = tri.by0 / kRasterTileSize;
      const int tile_y1 = (tri.by1 - 1) / kRasterTileSize;
      for (int ty = tile_y0; ty <= tile_y1; ++ty) {
        for (int tx = tile_x0; tx <= tile_x1; ++tx) {
          bin.bins[static_cast<std::size_t>(ty * bin.tiles_x + tx)].push_back(
              BinEntry{draw_index, static_cast<std::uint32_t>(t)});
        }
      }
    }
    DeferredDraw d;
    d.prog = prog;
    d.fs_registers = fs_registers_;
    d.fs_textures = fs_textures;
    d.depth_test = depth_test_;
    d.blend = blend_;
    d.depth_func = depth_func_;
    d.blend_src = blend_src_;
    d.blend_dst = blend_dst_;
    // Moving the vectors keeps their buffers, so the ScreenVertex pointers
    // into `cache` stay valid for the life of the deferred draw.
    d.vertices = std::move(cache);
    d.tris = std::move(assembled);
    bin.draws.push_back(std::move(d));
    return;
  }

  // --- row-band path: immediate fragment stage -------------------------------
  // Each row band is owned by exactly one worker, and every worker visits
  // triangles in submission order, so each pixel sees the same
  // depth/blend/write sequence as the serial rasterizer — output is
  // bit-identical for any thread count.
  runtime::ThreadPool* workers = raster_pool();
  if (workers == nullptr || workers->serial()) {
    FragmentLane lane{&fs_registers_, 0};
    for (const AssembledTriangle& tri : assembled) {
      raster_triangle_rows(tri, min_y, max_y, lane);
    }
    stats_.fragments_shaded += lane.fragments_shaded;
    return;
  }
  const std::int64_t rows = max_y - min_y;
  const std::int64_t band_rows =
      std::max<std::int64_t>(4, rows / (4 * workers->thread_count()));
  std::atomic<std::uint64_t> total_fragments{0};
  workers->parallel_for(
      min_y, max_y, band_rows, [&](std::int64_t row_lo, std::int64_t row_hi) {
        // Private register file seeded with this draw's constants/uniforms.
        std::vector<Vec4> registers = fs_registers_;
        FragmentLane lane{&registers, 0};
        const int lo = static_cast<int>(row_lo);
        const int hi = static_cast<int>(row_hi);
        for (const AssembledTriangle& tri : assembled) {
          if (tri.by1 <= lo || tri.by0 >= hi) continue;
          raster_triangle_rows(tri, lo, hi, lane);
        }
        total_fragments.fetch_add(lane.fragments_shaded,
                                  std::memory_order_relaxed);
      });
  stats_.fragments_shaded += total_fragments.load(std::memory_order_relaxed);
}

}  // namespace gb::gles
