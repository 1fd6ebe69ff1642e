// Executes compiled shader bytecode over a batch of lanes: one vertex or
// fragment per lane, every lane running the same instruction stream. Each
// lane evaluates exactly the expressions a one-invocation VM would, in the
// same order, so a lane's result does not depend on the batch it ran in.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "gles/objects.h"
#include "gles/shader.h"

namespace gb::gles {

// Sampler slot -> texture, resolved when the draw is issued. Null slots, and
// slots past the table, sample {0, 0, 0, 1}.
inline constexpr std::size_t kMaxSamplerSlots = 16;
using SamplerTable = std::array<const TextureObject*, kMaxSamplerSlots>;

// Bilinear or nearest lookup of `tex` at (u, v) with its wrap modes.
Vec4 sample_texture(const TextureObject& tex, float u, float v);

// A worker's register file for one shader, laid out [register][lane]:
// register r of lane l lives at r * lanes() + l. A shader gets up to
// kMaxLanes lanes; a large register file gets fewer, so the file stays a
// few kilobytes. Lanes are filled from the draw's preload (constants and
// uniforms) the first time a batch uses them after bind().
class LaneRegisters {
 public:
  static constexpr int kMaxLanes = 16;

  // Makes this the file for `shader`, preloaded from `preload` (which has
  // shader.register_file_size entries and must outlive the binding). Keeps
  // the allocation when it is already large enough.
  void bind(const CompiledShader& shader, std::span<const Vec4> preload);

  // Ensures lanes [0, n) hold the preload or a later invocation's state.
  void prepare(int n);

  [[nodiscard]] int lanes() const noexcept { return lanes_; }
  [[nodiscard]] Vec4* reg(std::size_t r) noexcept {
    return regs_.data() + r * static_cast<std::size_t>(lanes_);
  }
  [[nodiscard]] Vec4& at(std::size_t r, int lane) noexcept {
    return reg(r)[lane];
  }

 private:
  std::vector<Vec4> regs_;
  std::span<const Vec4> preload_;
  std::size_t registers_ = 0;
  int lanes_ = 0;
  int loaded_ = 0;
};

// Runs `shader` on lanes [0, n) of `regs`, which must be bound to it and
// prepared for n lanes.
void run_lanes(const CompiledShader& shader, LaneRegisters& regs, int n,
               const SamplerTable& textures);

// Writes the shader's literal pool into a one-lane register image.
void load_constants(const CompiledShader& shader, std::span<Vec4> registers);

}  // namespace gb::gles
