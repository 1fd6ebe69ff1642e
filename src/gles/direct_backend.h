// The "genuine" OpenGL ES library: a GlesApi implementation that executes
// every call immediately on a local GlContext (the device's own GPU). This
// is what an unmodified application binds to when GBooster is not installed.
#pragma once

#include <functional>
#include <memory>

#include "gles/api.h"
#include "gles/context.h"

namespace gb::gles {

// Invoked on eglSwapBuffers with the finished frame. The display system
// (or a test) owns what happens next.
using PresentFn = std::function<void(const Image&)>;

class DirectBackend final : public GlesApi {
 public:
  DirectBackend(int surface_width, int surface_height, PresentFn present);

  // The underlying context, exposed for tests and for the service-device
  // executor which replays remote command streams into a DirectBackend.
  [[nodiscard]] GlContext& context() noexcept { return *context_; }
  [[nodiscard]] const GlContext& context() const noexcept { return *context_; }

  // Every entry point but the swap forwards to its GlContext method.
#define GB_DIRECT_FORWARD(kind, ret, name, params, args, method, wire) \
  GB_IF(direct, kind)(ret name params override {                       \
    return context_->method args;                                      \
  })
  GB_GLES_CALLS(GB_DIRECT_FORWARD)
#undef GB_DIRECT_FORWARD
  bool eglSwapBuffers() override;
  void vertex_attrib_pointer_staged(
      GLuint index, GLint size, GLenum type, GLboolean normalized,
      GLsizei stride, std::span<const std::uint8_t> data) override {
    context_->vertex_attrib_pointer(index, size, type, normalized, stride,
                                    data.data(), data.size());
  }

 private:
  std::unique_ptr<GlContext> context_;
  PresentFn present_;
};

}  // namespace gb::gles
