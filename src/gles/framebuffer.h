// Default framebuffer of a software GL context: RGBA color plane plus a
// float depth plane. Rows use the display convention (top-left origin);
// clip-space Y is flipped at viewport transform time.
#pragma once

#include <cstdint>
#include <vector>

#include "common/image.h"

namespace gb::gles {

// The byte std::lround(std::clamp(v, 0.0f, 1.0f) * 255.0f) stores, without
// the libm call. The scaled value is below 2^8, so adding 0.5 in double is
// exact and truncation rounds half away from zero as lround does. NaN passes
// through std::clamp, and lround(NaN) is LONG_MIN, whose low byte is 0.
inline std::uint8_t unorm_to_byte(float v) {
  if (!(v > 0.0f)) return 0;
  if (v >= 1.0f) return 255;
  return static_cast<std::uint8_t>(static_cast<double>(v * 255.0f) + 0.5);
}

class Framebuffer {
 public:
  Framebuffer(int width, int height)
      : color_(width, height),
        depth_(static_cast<std::size_t>(width) * height, 1.0f) {}

  [[nodiscard]] int width() const noexcept { return color_.width(); }
  [[nodiscard]] int height() const noexcept { return color_.height(); }

  [[nodiscard]] Image& color() noexcept { return color_; }
  [[nodiscard]] const Image& color() const noexcept { return color_; }

  [[nodiscard]] float& depth(int x, int y) noexcept {
    return depth_[static_cast<std::size_t>(y) * color_.width() + x];
  }
  [[nodiscard]] float depth(int x, int y) const noexcept {
    return depth_[static_cast<std::size_t>(y) * color_.width() + x];
  }

  void clear_color(std::uint8_t r, std::uint8_t g, std::uint8_t b,
                   std::uint8_t a) {
    color_.fill(r, g, b, a);
  }

  void clear_depth(float value) {
    for (float& d : depth_) d = value;
  }

 private:
  Image color_;
  std::vector<float> depth_;
};

}  // namespace gb::gles
