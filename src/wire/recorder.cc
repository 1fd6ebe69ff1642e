#include "wire/recorder.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "wire/arg_codec.h"

namespace gb::wire {
namespace {

std::span<const std::uint8_t> as_bytes(const void* data, std::size_t size) {
  return {static_cast<const std::uint8_t*>(data), size};
}

// The texel bytes a texture upload ships: width x height x channels of
// `format`, or none when there is nothing to read.
std::span<const std::uint8_t> texels(const void* pixels, GLsizei width,
                                     GLsizei height, GLenum format) {
  const int channels = gles::format_channels(format);
  if (pixels == nullptr || channels <= 0 || width <= 0 || height <= 0) {
    return {};
  }
  return as_bytes(pixels, static_cast<std::size_t>(width) * height * channels);
}

}  // namespace

CommandRecorder::CommandRecorder(int surface_width, int surface_height,
                                 FrameSink sink)
    : shadow_(std::make_unique<gles::GlContext>(surface_width, surface_height)),
      sink_(std::move(sink)) {
  frame_.sequence = next_sequence_++;
}

CommandRecorder::~CommandRecorder() = default;

template <CmdOp Op, typename... Args>
void CommandRecorder::record(const Args&... args) {
  if constexpr (Op == CmdOp::kBindTexture) profile_.texture_bind_count++;
  CommandRecord record;
  record.bytes = encode<Op>(args...);
  profile_.command_count++;
  profile_.serialized_bytes += record.bytes.size();
  frame_.records.push_back(std::move(record));
}

std::size_t CommandRecorder::overhead_bytes() const {
  return shadow_->object_memory_bytes() + frame_.total_bytes();
}

// --- generated: plain calls, shadow queries, glFlush/glFinish -----------------
//
// A plain call runs on the shadow context when it changes state that
// outlives the frame (the shadow never draws or clears) and is serialized as
// its table kinds. Queries are answered by the shadow without a network
// round trip. glFlush/glFinish have nothing to ship.

#define GB_WIRE_OP(op, ...) op
#define GB_RECORD_plain(ret, name, params, args, method, wire) \
  void CommandRecorder::name params {                           \
    if constexpr (op_spec(CmdOp::GB_WIRE_OP wire).shared) {     \
      shadow_->method args;                                     \
    }                                                           \
    record<CmdOp::GB_WIRE_OP wire> args;                        \
  }
#define GB_RECORD_query(ret, name, params, args, method, wire) \
  ret CommandRecorder::name params { return shadow_->method args; }
#define GB_RECORD_local(ret, name, params, args, method, wire) \
  ret CommandRecorder::name params {}
#define GB_RECORD_special(...)
#define GB_RECORD_swap(...)
#define GB_RECORD(kind, ...) GB_RECORD_##kind(__VA_ARGS__)
GB_GLES_CALLS(GB_RECORD)
#undef GB_RECORD
#undef GB_RECORD_swap
#undef GB_RECORD_special
#undef GB_RECORD_local
#undef GB_RECORD_query
#undef GB_RECORD_plain
#undef GB_WIRE_OP

// --- special calls ---------------------------------------------------------------

void CommandRecorder::glGenBuffers(GLsizei n, GLuint* out) {
  shadow_->gen_buffers(n, out);
  // The chosen names travel so the replica can check it allocates the same.
  record<CmdOp::kGenBuffers>(n, out);
}

void CommandRecorder::glGenTextures(GLsizei n, GLuint* out) {
  shadow_->gen_textures(n, out);
  record<CmdOp::kGenTextures>(n, out);
}

GLuint CommandRecorder::glCreateShader(GLenum type) {
  const GLuint name = shadow_->create_shader(type);
  record<CmdOp::kCreateShader>(type, name);
  return name;
}

GLuint CommandRecorder::glCreateProgram() {
  const GLuint name = shadow_->create_program();
  record<CmdOp::kCreateProgram>(name);
  return name;
}

void CommandRecorder::glBufferData(GLenum target, GLsizeiptr size,
                                   const void* data, GLenum usage) {
  if (size < 0) return;
  shadow_->buffer_data(target, size, data, usage);
  // Wire order puts usage before the (possibly empty) contents.
  record<CmdOp::kBufferData>(
      target, usage,
      data != nullptr ? as_bytes(data, static_cast<std::size_t>(size))
                      : std::span<const std::uint8_t>{});
}

void CommandRecorder::glBufferSubData(GLenum target, GLintptr offset,
                                      GLsizeiptr size, const void* data) {
  if (size < 0 || offset < 0 || data == nullptr) return;
  shadow_->buffer_sub_data(target, offset, size, data);
  record<CmdOp::kBufferSubData>(
      target, offset, as_bytes(data, static_cast<std::size_t>(size)));
}

void CommandRecorder::glTexImage2D(GLenum target, GLint level,
                                   GLenum internal_format, GLsizei width,
                                   GLsizei height, GLint border, GLenum format,
                                   GLenum type, const void* pixels) {
  shadow_->tex_image_2d(target, level, internal_format, width, height, border,
                        format, type, pixels);
  record<CmdOp::kTexImage2D>(target, level, internal_format, width, height,
                             format, type,
                             texels(pixels, width, height, format));
}

void CommandRecorder::glTexSubImage2D(GLenum target, GLint level, GLint xoffset,
                                      GLint yoffset, GLsizei width,
                                      GLsizei height, GLenum format,
                                      GLenum type, const void* pixels) {
  shadow_->tex_sub_image_2d(target, level, xoffset, yoffset, width, height,
                            format, type, pixels);
  record<CmdOp::kTexSubImage2D>(target, level, xoffset, yoffset, width, height,
                                format, type,
                                texels(pixels, width, height, format));
}

void CommandRecorder::glUniformMatrix4fv(GLint location, GLsizei count,
                                         GLboolean transpose,
                                         const GLfloat* value) {
  if (count < 1 || value == nullptr) return;
  shadow_->uniform_matrix4fv(location, count, transpose, value);
  record<CmdOp::kUniformMatrix4fv>(location, transpose, value);
}

void CommandRecorder::glVertexAttribPointer(GLuint index, GLint size,
                                            GLenum type, GLboolean normalized,
                                            GLsizei stride,
                                            const void* pointer) {
  shadow_->vertex_attrib_pointer(index, size, type, normalized, stride,
                                 pointer);
  if (index >= pending_.size()) return;
  if (shadow_->array_buffer_binding() != 0) {
    // Buffer-sourced: length is known (it lives in the buffer object), so
    // this serializes immediately with just the offset.
    pending_[index].active = false;
    record<CmdOp::kVertexAttribPointerBuffer>(
        index, size, type, normalized, stride,
        reinterpret_cast<std::uint64_t>(pointer));
    return;
  }
  // Client-memory pointer: the referenced length is unknown until the next
  // draw call reveals the vertex count — keep it pending (§IV-B).
  pending_[index] =
      PendingClientPointer{true, size, type, normalized, stride, pointer};
}

void CommandRecorder::flush_pending_pointers(std::size_t vertex_count) {
  // The deferred records are emitted at draw time, when the application may
  // have re-bound GL_ARRAY_BUFFER since the original call. A client-memory
  // pointer is only interpreted as such while binding 0 is current, so
  // bracket the deferred records with an unbind/rebind pair when needed.
  const gles::GLuint saved_binding = shadow_->array_buffer_binding();
  bool any_pending = false;
  for (const PendingClientPointer& p : pending_) any_pending |= p.active;
  if (any_pending && saved_binding != 0) {
    record<CmdOp::kBindBuffer>(gles::GL_ARRAY_BUFFER, GLuint{0});
  }
  for (std::size_t index = 0; index < pending_.size(); ++index) {
    PendingClientPointer& p = pending_[index];
    if (!p.active) continue;
    const int elem = gles::scalar_type_size(p.type);
    const std::size_t stride =
        p.stride != 0 ? static_cast<std::size_t>(p.stride)
                      : static_cast<std::size_t>(elem) * p.size;
    // Last vertex needs only its own elements, not a full stride.
    const std::size_t length =
        vertex_count == 0
            ? 0
            : (vertex_count - 1) * stride +
                  static_cast<std::size_t>(elem) * p.size;
    record<CmdOp::kVertexAttribPointerClient>(index, p.size, p.type,
                                              p.normalized, p.stride,
                                              as_bytes(p.pointer, length));
    // The record now carries the data; the pointer stays pending because a
    // later draw with a larger vertex count must re-ship a longer prefix.
  }
  if (any_pending && saved_binding != 0) {
    record<CmdOp::kBindBuffer>(gles::GL_ARRAY_BUFFER, saved_binding);
  }
}

std::optional<std::uint32_t> CommandRecorder::max_element_index(
    GLsizei count, GLenum type, const void* indices) const {
  if (count <= 0) return std::nullopt;
  const int elem = gles::scalar_type_size(type);
  const std::uint8_t* base = nullptr;
  if (shadow_->element_buffer_binding() != 0) {
    const auto contents =
        shadow_->buffer_contents(shadow_->element_buffer_binding());
    const std::size_t offset = reinterpret_cast<std::size_t>(indices);
    if (offset + static_cast<std::size_t>(count) * elem > contents.size()) {
      return std::nullopt;
    }
    base = contents.data() + offset;
  } else {
    base = static_cast<const std::uint8_t*>(indices);
    if (base == nullptr) return std::nullopt;
  }
  std::uint32_t max_index = 0;
  for (GLsizei i = 0; i < count; ++i) {
    const std::uint8_t* src = base + static_cast<std::size_t>(i) * elem;
    std::uint32_t v = 0;
    switch (type) {
      case gles::GL_UNSIGNED_BYTE:
        v = *src;
        break;
      case gles::GL_UNSIGNED_SHORT: {
        std::uint16_t s = 0;
        std::memcpy(&s, src, sizeof(s));
        v = s;
        break;
      }
      case gles::GL_UNSIGNED_INT:
        std::memcpy(&v, src, sizeof(v));
        break;
      default:
        return std::nullopt;
    }
    max_index = std::max(max_index, v);
  }
  return max_index;
}

void CommandRecorder::note_draw(GLenum mode, std::size_t vertex_count) {
  (void)mode;
  profile_.draw_call_count++;
  // Fillrate proxy: triangles roughly cover viewport_area * coverage_factor;
  // we approximate per-request workload as half the surface per 100 vertices,
  // accumulated per draw. The absolute scale is calibrated in src/device.
  const double surface_pixels = static_cast<double>(shadow_->surface_width()) *
                                shadow_->surface_height();
  profile_.workload_pixels +=
      surface_pixels * 0.005 * static_cast<double>(vertex_count);
}

void CommandRecorder::glDrawArrays(GLenum mode, GLint first, GLsizei count) {
  if (first < 0 || count < 0) return;
  flush_pending_pointers(static_cast<std::size_t>(first) +
                         static_cast<std::size_t>(count));
  record<CmdOp::kDrawArrays>(mode, first, count);
  note_draw(mode, static_cast<std::size_t>(count));
}

void CommandRecorder::glDrawElements(GLenum mode, GLsizei count, GLenum type,
                                     const void* indices) {
  if (count < 0) return;
  const auto max_index = max_element_index(count, type, indices);
  flush_pending_pointers(max_index ? static_cast<std::size_t>(*max_index) + 1
                                   : 0);
  if (shadow_->element_buffer_binding() != 0) {
    record<CmdOp::kDrawElementsBuffer>(
        mode, count, type, reinterpret_cast<std::uint64_t>(indices));
  } else {
    const std::size_t bytes =
        static_cast<std::size_t>(count) * gles::scalar_type_size(type);
    record<CmdOp::kDrawElementsClient>(
        mode, count, type,
        indices != nullptr ? as_bytes(indices, bytes)
                           : std::span<const std::uint8_t>{});
  }
  note_draw(mode, static_cast<std::size_t>(count));
}

bool CommandRecorder::eglSwapBuffers() {
  record<CmdOp::kSwapBuffers>();

  FrameCommands finished = std::move(frame_);
  frame_ = FrameCommands{};
  frame_.sequence = next_sequence_++;
  last_profile_ = profile_;
  profile_ = FrameProfile{};

  // Client-memory pointers do not survive the frame boundary in this
  // protocol: applications re-specify them each frame (the common GLES
  // pattern) and stale host pointers must never be dereferenced later.
  for (auto& p : pending_) p.active = false;

  if (!sink_) return false;
  return sink_(std::move(finished));
}

}  // namespace gb::wire
