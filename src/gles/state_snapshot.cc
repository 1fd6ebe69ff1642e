#include "gles/state_snapshot.h"

#include <algorithm>

#include "common/error.h"
#include "gles/context.h"

namespace gb::gles {

namespace {

constexpr std::uint8_t kSnapshotVersion = 1;
// Sanity bound on deserialized surface dimensions; matches the largest
// surface any simulated device profile uses by a wide margin.
constexpr int kMaxSurfaceDim = 16384;

void write_image(ByteWriter& w, const Image& image) {
  w.i32(image.width());
  w.i32(image.height());
  w.raw(image.bytes());
}

Image read_image(ByteReader& r) {
  const int width = r.i32();
  const int height = r.i32();
  check(width >= 0 && width <= kMaxSurfaceDim && height >= 0 &&
            height <= kMaxSurfaceDim,
        "snapshot image dimensions out of range");
  // The pixels must be in the message before the image is allocated.
  const std::size_t bytes = static_cast<std::size_t>(width) * height * 4;
  check(r.remaining() >= bytes, "snapshot image truncated");
  Image image(width, height);
  const auto src = r.raw(image.byte_size());
  std::copy(src.begin(), src.end(), image.data());
  return image;
}

}  // namespace

Bytes GlStateSnapshot::serialize() const {
  ByteWriter w;
  w.u8(kSnapshotVersion);
  w.i32(surface_width);
  w.i32(surface_height);

  for (const float c : clear_color) w.f32(c);
  w.u8(depth_test ? 1 : 0);
  w.u8(blend ? 1 : 0);
  w.u8(cull_face_enabled ? 1 : 0);
  w.u8(scissor_test ? 1 : 0);
  w.u32(blend_src);
  w.u32(blend_dst);
  w.u32(depth_func);
  w.u32(cull_mode);
  w.u32(front_face);
  for (const GLint v : viewport) w.i32(v);
  for (const GLint v : scissor) w.i32(v);

  w.varint(buffers.size());
  for (const Buffer& b : buffers) {
    w.u32(b.name);
    w.u32(b.usage);
    w.blob(b.data);
  }
  w.varint(textures.size());
  for (const Texture& t : textures) {
    w.u32(t.name);
    w.u32(t.min_filter);
    w.u32(t.mag_filter);
    w.u32(t.wrap_s);
    w.u32(t.wrap_t);
    write_image(w, t.image);
  }
  w.varint(shaders.size());
  for (const Shader& s : shaders) {
    w.u32(s.name);
    w.u32(s.type);
    w.str(s.source);
    w.u8(s.compiled ? 1 : 0);
  }
  w.varint(programs.size());
  for (const Program& p : programs) {
    w.u32(p.name);
    w.varint(p.attached_shaders.size());
    for (const GLuint s : p.attached_shaders) w.u32(s);
    w.varint(p.requested_attrib_locations.size());
    for (const auto& [attr_name, location] : p.requested_attrib_locations) {
      w.str(attr_name);
      w.i32(location);
    }
    w.u8(p.linked ? 1 : 0);
    w.varint(p.uniform_values.size());
    for (const auto& value : p.uniform_values) {
      for (const float f : value) w.f32(f);
    }
  }
  w.u32(next_buffer_name);
  w.u32(next_texture_name);
  w.u32(next_shader_name);
  w.u32(next_program_name);

  w.u32(array_buffer_binding);
  w.u32(element_buffer_binding);
  w.i32(active_texture_unit);
  w.varint(texture_bindings.size());
  for (const GLuint b : texture_bindings) w.u32(b);
  w.u32(current_program);

  w.varint(attribs.size());
  for (const Attrib& a : attribs) {
    w.u8(a.enabled ? 1 : 0);
    w.i32(a.size);
    w.u32(a.type);
    w.u8(a.normalized ? 1 : 0);
    w.i32(a.stride);
    w.u32(a.buffer);
    w.u64(a.offset);
    for (const float f : a.generic_value) w.f32(f);
  }

  write_image(w, framebuffer_color);
  for (const float d : framebuffer_depth) w.f32(d);
  return w.take();
}

GlStateSnapshot GlStateSnapshot::deserialize(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  check(r.u8() == kSnapshotVersion, "unknown snapshot version");
  GlStateSnapshot snap;
  snap.surface_width = r.i32();
  snap.surface_height = r.i32();
  check(snap.surface_width > 0 && snap.surface_width <= kMaxSurfaceDim &&
            snap.surface_height > 0 && snap.surface_height <= kMaxSurfaceDim,
        "snapshot surface size out of range");

  for (float& c : snap.clear_color) c = r.f32();
  snap.depth_test = r.u8() != 0;
  snap.blend = r.u8() != 0;
  snap.cull_face_enabled = r.u8() != 0;
  snap.scissor_test = r.u8() != 0;
  snap.blend_src = r.u32();
  snap.blend_dst = r.u32();
  snap.depth_func = r.u32();
  snap.cull_mode = r.u32();
  snap.front_face = r.u32();
  for (GLint& v : snap.viewport) v = r.i32();
  for (GLint& v : snap.scissor) v = r.i32();

  const auto count = [&r](const char* what) {
    const std::uint64_t n = r.varint();
    // Every element consumes at least one byte, so this bound guarantees
    // the loop below hits "byte reader overrun" rather than allocating
    // based on a hostile count.
    check(n <= r.remaining(), what);
    return static_cast<std::size_t>(n);
  };

  const std::size_t buffer_count = count("snapshot buffer count");
  for (std::size_t i = 0; i < buffer_count; ++i) {
    Buffer b;
    b.name = r.u32();
    b.usage = r.u32();
    const auto blob = r.blob();
    b.data.assign(blob.begin(), blob.end());
    snap.buffers.push_back(std::move(b));
  }
  const std::size_t texture_count = count("snapshot texture count");
  for (std::size_t i = 0; i < texture_count; ++i) {
    Texture t;
    t.name = r.u32();
    t.min_filter = r.u32();
    t.mag_filter = r.u32();
    t.wrap_s = r.u32();
    t.wrap_t = r.u32();
    t.image = read_image(r);
    snap.textures.push_back(std::move(t));
  }
  const std::size_t shader_count = count("snapshot shader count");
  for (std::size_t i = 0; i < shader_count; ++i) {
    Shader s;
    s.name = r.u32();
    s.type = r.u32();
    s.source = r.str();
    s.compiled = r.u8() != 0;
    snap.shaders.push_back(std::move(s));
  }
  const std::size_t program_count = count("snapshot program count");
  for (std::size_t i = 0; i < program_count; ++i) {
    Program p;
    p.name = r.u32();
    const std::size_t attached = count("snapshot attached-shader count");
    for (std::size_t j = 0; j < attached; ++j) {
      p.attached_shaders.push_back(r.u32());
    }
    const std::size_t requested = count("snapshot attrib-location count");
    for (std::size_t j = 0; j < requested; ++j) {
      std::string attr_name = r.str();
      const GLint location = r.i32();
      p.requested_attrib_locations.emplace(std::move(attr_name), location);
    }
    p.linked = r.u8() != 0;
    const std::size_t uniforms = count("snapshot uniform count");
    for (std::size_t j = 0; j < uniforms; ++j) {
      std::array<float, 16> value{};
      for (float& f : value) f = r.f32();
      p.uniform_values.push_back(value);
    }
    snap.programs.push_back(std::move(p));
  }
  snap.next_buffer_name = r.u32();
  snap.next_texture_name = r.u32();
  snap.next_shader_name = r.u32();
  snap.next_program_name = r.u32();

  snap.array_buffer_binding = r.u32();
  snap.element_buffer_binding = r.u32();
  snap.active_texture_unit = r.i32();
  const std::size_t binding_count = count("snapshot texture-binding count");
  check(binding_count == GlContext::kMaxTextureUnits,
        "snapshot texture-binding count mismatch");
  for (std::size_t i = 0; i < binding_count; ++i) {
    snap.texture_bindings.push_back(r.u32());
  }
  snap.current_program = r.u32();

  const std::size_t attrib_count = count("snapshot attrib count");
  check(attrib_count == GlContext::kMaxVertexAttribs,
        "snapshot attrib count mismatch");
  for (std::size_t i = 0; i < attrib_count; ++i) {
    Attrib a;
    a.enabled = r.u8() != 0;
    a.size = r.i32();
    a.type = r.u32();
    a.normalized = r.u8() != 0;
    a.stride = r.i32();
    a.buffer = r.u32();
    a.offset = r.u64();
    for (float& f : a.generic_value) f = r.f32();
    snap.attribs.push_back(a);
  }

  snap.framebuffer_color = read_image(r);
  check(snap.framebuffer_color.width() == snap.surface_width &&
            snap.framebuffer_color.height() == snap.surface_height,
        "snapshot framebuffer size mismatch");
  check(r.remaining() / sizeof(float) >= snap.framebuffer_color.pixel_count(),
        "snapshot depth plane truncated");
  snap.framebuffer_depth.resize(snap.framebuffer_color.pixel_count());
  for (float& d : snap.framebuffer_depth) d = r.f32();
  check(r.done(), "trailing bytes after snapshot");
  return snap;
}

GlStateSnapshot capture_gl_state(const GlContext& ctx) {
  // The snapshot reads the framebuffer directly; deferred tile-binned draws
  // must land first or they would be silently dropped from the capture.
  const_cast<GlContext&>(ctx).flush();
  GlStateSnapshot snap;
  snap.surface_width = ctx.framebuffer_.width();
  snap.surface_height = ctx.framebuffer_.height();

  snap.clear_color[0] = ctx.clear_color_.x;
  snap.clear_color[1] = ctx.clear_color_.y;
  snap.clear_color[2] = ctx.clear_color_.z;
  snap.clear_color[3] = ctx.clear_color_.w;
  snap.depth_test = ctx.depth_test_;
  snap.blend = ctx.blend_;
  snap.cull_face_enabled = ctx.cull_face_enabled_;
  snap.scissor_test = ctx.scissor_test_;
  snap.blend_src = ctx.blend_src_;
  snap.blend_dst = ctx.blend_dst_;
  snap.depth_func = ctx.depth_func_;
  snap.cull_mode = ctx.cull_mode_;
  snap.front_face = ctx.front_face_;
  std::copy(std::begin(ctx.viewport_), std::end(ctx.viewport_),
            std::begin(snap.viewport));
  std::copy(std::begin(ctx.scissor_), std::end(ctx.scissor_),
            std::begin(snap.scissor));

  for (const auto& [name, buffer] : ctx.buffers_) {
    snap.buffers.push_back({name, buffer.usage, buffer.data});
  }
  for (const auto& [name, texture] : ctx.textures_) {
    GlStateSnapshot::Texture t;
    t.name = name;
    t.min_filter = texture.min_filter;
    t.mag_filter = texture.mag_filter;
    t.wrap_s = texture.wrap_s;
    t.wrap_t = texture.wrap_t;
    t.image = texture.image;
    snap.textures.push_back(std::move(t));
  }
  for (const auto& [name, shader] : ctx.shaders_) {
    snap.shaders.push_back(
        {name, shader.type, shader.source, shader.compiled.has_value()});
  }
  for (const auto& [name, program] : ctx.programs_) {
    GlStateSnapshot::Program p;
    p.name = name;
    p.attached_shaders = program.attached_shaders;
    p.requested_attrib_locations = program.requested_attrib_locations;
    p.linked = program.linked;
    if (program.linked) {
      p.uniform_values.reserve(program.uniforms.size());
      for (const UniformInfo& u : program.uniforms) {
        p.uniform_values.push_back(u.value);
      }
    }
    snap.programs.push_back(std::move(p));
  }
  snap.next_buffer_name = ctx.next_buffer_name_;
  snap.next_texture_name = ctx.next_texture_name_;
  snap.next_shader_name = ctx.next_shader_name_;
  snap.next_program_name = ctx.next_program_name_;

  snap.array_buffer_binding = ctx.array_buffer_binding_;
  snap.element_buffer_binding = ctx.element_buffer_binding_;
  snap.active_texture_unit = ctx.active_texture_unit_;
  snap.texture_bindings.assign(std::begin(ctx.texture_bindings_),
                               std::end(ctx.texture_bindings_));
  snap.current_program = ctx.current_program_name_;

  for (const VertexAttribState& a : ctx.attribs_) {
    GlStateSnapshot::Attrib out;
    out.enabled = a.enabled;
    out.size = a.size;
    out.type = a.type;
    out.normalized = a.normalized;
    out.stride = a.stride;
    out.buffer = a.buffer;
    out.offset = a.offset;
    out.generic_value[0] = a.generic_value.x;
    out.generic_value[1] = a.generic_value.y;
    out.generic_value[2] = a.generic_value.z;
    out.generic_value[3] = a.generic_value.w;
    snap.attribs.push_back(out);
  }

  snap.framebuffer_color = ctx.framebuffer_.color();
  snap.framebuffer_depth.resize(snap.framebuffer_color.pixel_count());
  for (int y = 0; y < snap.surface_height; ++y) {
    for (int x = 0; x < snap.surface_width; ++x) {
      snap.framebuffer_depth[static_cast<std::size_t>(y) * snap.surface_width +
                             x] = ctx.framebuffer_.depth(x, y);
    }
  }
  return snap;
}

void install_gl_state(const GlStateSnapshot& snap, GlContext& ctx) {
  check(snap.texture_bindings.size() == GlContext::kMaxTextureUnits &&
            snap.attribs.size() == GlContext::kMaxVertexAttribs,
        "snapshot binding tables malformed");

  // Deferred draws reference objects the install below replaces; they must
  // not survive across a state restore.
  ctx.flush();

  ctx.error_ = GL_NO_ERROR;
  ctx.clear_color_ = {snap.clear_color[0], snap.clear_color[1],
                      snap.clear_color[2], snap.clear_color[3]};
  ctx.depth_test_ = snap.depth_test;
  ctx.blend_ = snap.blend;
  ctx.cull_face_enabled_ = snap.cull_face_enabled;
  ctx.scissor_test_ = snap.scissor_test;
  ctx.blend_src_ = snap.blend_src;
  ctx.blend_dst_ = snap.blend_dst;
  ctx.depth_func_ = snap.depth_func;
  ctx.cull_mode_ = snap.cull_mode;
  ctx.front_face_ = snap.front_face;
  std::copy(std::begin(snap.viewport), std::end(snap.viewport),
            std::begin(ctx.viewport_));
  std::copy(std::begin(snap.scissor), std::end(snap.scissor),
            std::begin(ctx.scissor_));

  ctx.buffers_.clear();
  for (const GlStateSnapshot::Buffer& b : snap.buffers) {
    BufferObject obj;
    obj.data = b.data;
    obj.usage = b.usage;
    ctx.buffers_.emplace(b.name, std::move(obj));
  }
  ctx.textures_.clear();
  for (const GlStateSnapshot::Texture& t : snap.textures) {
    TextureObject obj;
    obj.image = t.image;
    obj.min_filter = t.min_filter;
    obj.mag_filter = t.mag_filter;
    obj.wrap_s = t.wrap_s;
    obj.wrap_t = t.wrap_t;
    ctx.textures_.emplace(t.name, std::move(obj));
  }
  ctx.shaders_.clear();
  for (const GlStateSnapshot::Shader& s : snap.shaders) {
    ShaderObject obj;
    obj.type = s.type;
    obj.source = s.source;
    if (s.compiled) {
      const ShaderKind kind = s.type == GL_VERTEX_SHADER ? ShaderKind::kVertex
                                                         : ShaderKind::kFragment;
      obj.compiled = gles::compile_shader(kind, obj.source, obj.info_log);
      if (!obj.compiled.has_value()) {
        throw Error("snapshot shader failed to re-compile: " + obj.info_log);
      }
    }
    ctx.shaders_.emplace(s.name, std::move(obj));
  }
  ctx.programs_.clear();
  for (const GlStateSnapshot::Program& p : snap.programs) {
    ProgramObject obj;
    obj.attached_shaders = p.attached_shaders;
    obj.requested_attrib_locations = p.requested_attrib_locations;
    ctx.programs_.emplace(p.name, std::move(obj));
  }
  // Re-link after the whole shader table exists; linking is deterministic,
  // so the rebuilt location tables match the capture-side ones. A program
  // whose shaders were deleted or re-sourced after linking cannot be
  // restored — surface that as a hard error rather than diverging silently.
  for (const GlStateSnapshot::Program& p : snap.programs) {
    if (!p.linked) continue;
    ctx.link_program(p.name);
    ProgramObject& obj = ctx.programs_.at(p.name);
    if (!obj.linked) {
      throw Error("snapshot program failed to re-link: " + obj.info_log);
    }
    check(obj.uniforms.size() == p.uniform_values.size(),
          "snapshot uniform table diverged on re-link");
    for (std::size_t i = 0; i < obj.uniforms.size(); ++i) {
      obj.uniforms[i].value = p.uniform_values[i];
    }
  }
  ctx.next_buffer_name_ = snap.next_buffer_name;
  ctx.next_texture_name_ = snap.next_texture_name;
  ctx.next_shader_name_ = snap.next_shader_name;
  ctx.next_program_name_ = snap.next_program_name;

  ctx.array_buffer_binding_ = snap.array_buffer_binding;
  ctx.element_buffer_binding_ = snap.element_buffer_binding;
  ctx.active_texture_unit_ = snap.active_texture_unit;
  std::copy(snap.texture_bindings.begin(), snap.texture_bindings.end(),
            std::begin(ctx.texture_bindings_));
  ctx.current_program_name_ = snap.current_program;

  for (std::size_t i = 0; i < snap.attribs.size(); ++i) {
    const GlStateSnapshot::Attrib& a = snap.attribs[i];
    VertexAttribState& out = ctx.attribs_[i];
    out.enabled = a.enabled;
    out.size = a.size;
    out.type = a.type;
    out.normalized = a.normalized;
    out.stride = a.stride;
    out.buffer = a.buffer;
    out.offset = static_cast<std::size_t>(a.offset);
    out.client_pointer = nullptr;
    out.client_bytes = SIZE_MAX;
    out.generic_value = {a.generic_value[0], a.generic_value[1],
                         a.generic_value[2], a.generic_value[3]};
  }

  // Pixels-in-progress carry over only between same-sized surfaces. A
  // replica rendering at reduced resolution still gets the full GL state
  // above; its framebuffer content converges at the next clear, exactly as
  // it would after any resolution change.
  if (snap.surface_width == ctx.framebuffer_.width() &&
      snap.surface_height == ctx.framebuffer_.height()) {
    ctx.framebuffer_.color() = snap.framebuffer_color;
    for (int y = 0; y < snap.surface_height; ++y) {
      for (int x = 0; x < snap.surface_width; ++x) {
        ctx.framebuffer_.depth(x, y) =
            snap.framebuffer_depth[static_cast<std::size_t>(y) *
                                       snap.surface_width +
                                   x];
      }
    }
  }
}

}  // namespace gb::gles
