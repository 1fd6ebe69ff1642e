// Per-frame draw state for the rasterizer (DESIGN.md §12). A triangle draw
// runs its vertex stage and primitive assembly eagerly, then snapshots what
// the fragment stage needs into a DeferredDraw and scatters (draw, triangle)
// references into the 16x16 screen-tile bins. GlContext::flush() drains the
// bins tile-parallel. Everything here is cleared, not freed, at the flush,
// so a steady frame reuses the previous frame's allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "gles/objects.h"
#include "gles/shader_vm.h"
#include "gles/types.h"

namespace gb::gles {

struct ScreenVertex {
  float x = 0, y = 0;        // pixel coordinates
  float z = 0;               // depth in [0, 1]
  float inv_w = 0;           // 1 / clip.w for perspective correction
  // Arena offset of the vertex's record: its clip position, then one Vec4
  // per varying in the program's VaryingLink order.
  std::uint32_t record = 0;
};

// A triangle that survived culling, with its raster-time derived data.
struct AssembledTriangle {
  ScreenVertex a, b, c;
  float inv_area = 0;
  // Top-left fill rule acceptance for each edge's zero-weight case.
  bool zero0 = false, zero1 = false, zero2 = false;
  int bx0 = 0, by0 = 0, bx1 = 0, by1 = 0;  // clipped pixel bounding box
};

// One triangle draw whose fragment stage has been deferred: everything the
// tile rasterizer needs, snapshotted at submission time. Mutations that
// would invalidate the snapshot (texture uploads, program relinks, state
// restores) force a flush first, so the pointers below stay valid — and the
// std::map object tables never move their nodes anyway.
struct DeferredDraw {
  const ProgramObject* prog = nullptr;
  std::uint32_t fs_preload = 0;  // arena offset: constants + uniforms
  SamplerTable fs_textures{};
  bool depth_test = false;
  bool blend = false;
  GLenum depth_func = GL_LESS;
  GLenum blend_src = GL_ONE;
  GLenum blend_dst = GL_ZERO;
};

// (draw, triangle) reference; each tile lists these in submission order.
struct BinEntry {
  std::uint32_t draw = 0;
  std::uint32_t tri = 0;  // index into TileBinning::tris
};

// A BinEntry and the tile (row-major index) it was scattered into.
struct BinnedEntry {
  std::uint32_t tile = 0;
  BinEntry entry;
};

struct TileBinning {
  std::vector<DeferredDraw> draws;
  std::vector<AssembledTriangle> tris;
  // The frame's vertex records and fragment preloads. Only offsets point
  // into it, so it may grow while a frame is being recorded.
  std::vector<Vec4> arena;
  std::vector<BinnedEntry> binned;  // submission order, every tile
  // Filled at the flush by a stable counting sort of `binned`: tile t's
  // entries are tile_entries[tile_begin[t], tile_begin[t + 1]).
  std::vector<BinEntry> tile_entries;
  std::vector<std::uint32_t> tile_begin;
  std::vector<std::uint32_t> tile_fill;
  std::vector<float> occupancy;  // per tile, for the flush

  // Vertex-stage scratch, reused by every draw.
  std::vector<std::uint32_t> indices;  // the draw's index list
  std::vector<std::uint32_t> unique;   // distinct indices, shading order
  std::vector<std::uint32_t> slot_of;  // dense: index - base -> slot
  std::vector<ScreenVertex> screen;    // per slot
  std::vector<Vec4> vs_preload;
  LaneRegisters vs_lanes;

  // Groups `binned` by tile into tile_entries/tile_begin.
  void sort_bins(std::size_t tile_count) {
    tile_begin.assign(tile_count + 1, 0);
    for (const BinnedEntry& b : binned) ++tile_begin[b.tile + 1];
    for (std::size_t t = 0; t < tile_count; ++t) tile_begin[t + 1] += tile_begin[t];
    tile_fill.assign(tile_begin.begin(), tile_begin.end() - 1);
    tile_entries.resize(binned.size());
    for (const BinnedEntry& b : binned) tile_entries[tile_fill[b.tile]++] = b.entry;
  }

  void clear_frame() {
    draws.clear();
    tris.clear();
    arena.clear();
    binned.clear();
  }
};

}  // namespace gb::gles
