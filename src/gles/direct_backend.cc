#include "gles/direct_backend.h"

namespace gb::gles {

DirectBackend::DirectBackend(int surface_width, int surface_height,
                             PresentFn present)
    : context_(std::make_unique<GlContext>(surface_width, surface_height)),
      present_(std::move(present)) {}

bool DirectBackend::eglSwapBuffers() {
  if (present_) present_(context_->color_buffer());
  return true;
}

}  // namespace gb::gles
