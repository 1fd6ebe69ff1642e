// Pins the heap traffic of a steady frame on the software GPU: once the
// frame arena, bins and scratch have grown to a frame's size, the app's GL
// calls, the vertex stage, binning, the tile flush and the present make no
// heap allocation at all. This binary replaces the global operator new to
// count every allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/game_app.h"
#include "apps/workload.h"
#include "common/rng.h"
#include "gles/direct_backend.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gb {
namespace {

// Heap allocations made while rendering and presenting one frame.
std::uint64_t allocations_for_frame(apps::GameApp& app, double t) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  app.render_frame(t, false);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(RasterAlloc, SteadyG1FrameMakesNoHeapAllocation) {
  // The G1 workload at the offload benchmark's 300x240 on the default
  // tile-binned rasterizer. Before the frame arena, each such frame made
  // about 9,000 allocations: a varying vector per shaded vertex, plus each
  // draw's vertex cache, triangle list and register copies.
  gles::DirectBackend backend(300, 240, {});
  apps::GameApp app(apps::g1_gta_san_andreas(), backend, 300, 240, Rng(1));
  app.setup();
  for (int f = 0; f < 4; ++f) app.render_frame(f / 30.0, false);
  const std::uint64_t first = allocations_for_frame(app, 4 / 30.0);
  const std::uint64_t second = allocations_for_frame(app, 5 / 30.0);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 0u);
  EXPECT_GT(backend.context().stats().vertices_processed, 0u);
}

}  // namespace
}  // namespace gb
