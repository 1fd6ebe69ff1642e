// CommandRecorder — the wrapper library GBooster injects (§IV-A/B).
//
// Implements the full GlesApi so applications cannot tell it from the real
// driver. Every call is serialized into the current frame's record list; a
// *shadow context* (a local GlContext that executes state commands but never
// draws) answers synchronous queries — glGetError, shader compile status,
// uniform/attribute locations — without a network round trip, and provides
// the buffer contents needed to resolve deferred client-memory pointers.
//
// The shadow context is also the source of the paper's §VII-G memory
// overhead: it duplicates buffer/texture storage on the user device.
//
// Deferred glVertexAttribPointer (§IV-B): when an application supplies a
// client-memory pointer, the byte length is unknowable at call time — it is
// determined by the vertex count of the *next* draw call. The recorder keeps
// the pointer pending and emits the serialized attribute data immediately
// before the draw record; the paper observes this reordering is safe because
// the pointer only takes effect at draw time.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "gles/api.h"
#include "gles/context.h"
#include "wire/protocol.h"

namespace gb::wire {

using gles::GLboolean;
using gles::GLbitfield;
using gles::GLenum;
using gles::GLfloat;
using gles::GLint;
using gles::GLintptr;
using gles::GLsizei;
using gles::GLsizeiptr;
using gles::GLuint;

// Receives each completed frame (rendering request) at SwapBuffers time.
// Returns true when the frame was accepted and will eventually be displayed
// (the recorder reports this as the eglSwapBuffers result).
using FrameSink = std::function<bool(FrameCommands)>;

// Per-frame statistics exposed to the traffic forecaster (§V-B): command
// count and texture count are the ARMAX exogenous attributes 2 and 3.
struct FrameProfile {
  std::size_t command_count = 0;
  std::size_t texture_bind_count = 0;
  std::size_t draw_call_count = 0;
  std::size_t serialized_bytes = 0;
  // Estimated GPU workload of the frame in shaded pixels; the dispatcher's
  // `r` term in Eq. 4. Derived from draw-call vertex counts and the current
  // viewport area, matching the fillrate units of Table I.
  double workload_pixels = 0.0;
};

class CommandRecorder final : public gles::GlesApi {
 public:
  // `surface_width/height` size the shadow context (and thus the remote
  // render target); `sink` receives finished frames.
  CommandRecorder(int surface_width, int surface_height, FrameSink sink);
  ~CommandRecorder() override;

  // Profile of the most recently completed frame.
  [[nodiscard]] const FrameProfile& last_frame_profile() const noexcept {
    return last_profile_;
  }
  // Memory attributable to the wrapper layer (shadow context + buffers).
  [[nodiscard]] std::size_t overhead_bytes() const;
  [[nodiscard]] const gles::GlContext& shadow() const noexcept {
    return *shadow_;
  }
  // Sequence the next completed frame will carry. At a frame boundary the
  // shadow context holds exactly the state of frames below this sequence —
  // the capture point for GL-state snapshots. (The in-progress frame already
  // holds its allocated sequence; the internal counter is one past it.)
  [[nodiscard]] std::uint64_t next_sequence() const noexcept {
    return frame_.sequence;
  }

  // GlesApi implementation: plain calls, queries and glFlush/glFinish are
  // generated from gles/call_table.h; special calls are hand-written.
#define GB_RECORDER_DECL(kind, ret, name, params, args, method, wire) \
  ret name params override;
  GB_GLES_CALLS(GB_RECORDER_DECL)
#undef GB_RECORDER_DECL

 private:
  struct PendingClientPointer {
    bool active = false;
    GLint size = 4;
    GLenum type = 0;
    bool normalized = false;
    GLsizei stride = 0;
    const void* pointer = nullptr;
  };

  // Encodes `args` as one `Op` command record and appends it to the frame.
  template <CmdOp Op, typename... Args>
  void record(const Args&... args);
  // Emits any pending client-memory attribute pointers sized for
  // `vertex_count` vertices starting at vertex 0 (§IV-B deferral).
  void flush_pending_pointers(std::size_t vertex_count);
  // Largest index referenced by a draw-elements call (to size client arrays).
  std::optional<std::uint32_t> max_element_index(GLsizei count, GLenum type,
                                                 const void* indices) const;
  void note_draw(GLenum mode, std::size_t vertex_count);

  std::unique_ptr<gles::GlContext> shadow_;
  FrameSink sink_;
  FrameCommands frame_;
  FrameProfile profile_;
  FrameProfile last_profile_;
  std::uint64_t next_sequence_ = 0;
  std::array<PendingClientPointer, gles::GlContext::kMaxVertexAttribs>
      pending_;
};

}  // namespace gb::wire
