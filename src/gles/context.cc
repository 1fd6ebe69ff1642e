// GlContext: object tables, state, shader compilation and program linking.
// The draw pipeline lives in context_draw.cc.
#include "gles/context.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "gles/tile_binning.h"

namespace gb::gles {

GlContext::GlContext(int surface_width, int surface_height)
    : framebuffer_(surface_width, surface_height) {
  check(surface_width > 0 && surface_height > 0, "bad surface size");
  viewport_[0] = 0;
  viewport_[1] = 0;
  viewport_[2] = surface_width;
  viewport_[3] = surface_height;
  scissor_[2] = surface_width;
  scissor_[3] = surface_height;
}

void GlContext::set_raster_threads(int threads) {
  flush();  // pending tiles must not straddle a pool swap
  owned_pool_ = threads == 1 ? nullptr
                             : std::make_unique<runtime::ThreadPool>(threads);
}

void GlContext::set_thread_pool(runtime::ThreadPool* pool) {
  flush();
  shared_pool_ = pool;
}

void GlContext::set_raster_mode(RasterMode mode) {
  flush();
  raster_mode_ = mode;
}

void GlContext::set_metrics(runtime::MetricsRegistry* metrics) {
  flush();
  metrics_ = metrics;
}

const Image& GlContext::color_buffer() const {
  const_cast<GlContext*>(this)->flush();
  return framebuffer_.color();
}

const RenderStats& GlContext::stats() const {
  const_cast<GlContext*>(this)->flush();
  return stats_;
}

RenderStats& GlContext::mutable_stats() {
  flush();
  return stats_;
}

GLenum GlContext::get_error() {
  const GLenum e = error_;
  error_ = GL_NO_ERROR;
  return e;
}

void GlContext::set_error(GLenum error) {
  // Sticky semantics: only the first error since the last glGetError is kept.
  if (error_ == GL_NO_ERROR) error_ = error;
}

// --- framebuffer -------------------------------------------------------------

void GlContext::clear_color(GLfloat r, GLfloat g, GLfloat b, GLfloat a) {
  clear_color_ = {std::clamp(r, 0.0f, 1.0f), std::clamp(g, 0.0f, 1.0f),
                  std::clamp(b, 0.0f, 1.0f), std::clamp(a, 0.0f, 1.0f)};
}

void GlContext::clear(GLbitfield mask) {
  if ((mask & ~(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT)) != 0) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  flush();  // deferred draws land before the clear overwrites them
  if (mask & GL_COLOR_BUFFER_BIT) {
    framebuffer_.clear_color(static_cast<std::uint8_t>(clear_color_.x * 255.0f),
                             static_cast<std::uint8_t>(clear_color_.y * 255.0f),
                             static_cast<std::uint8_t>(clear_color_.z * 255.0f),
                             static_cast<std::uint8_t>(clear_color_.w * 255.0f));
  }
  if (mask & GL_DEPTH_BUFFER_BIT) framebuffer_.clear_depth(1.0f);
}

void GlContext::viewport(GLint x, GLint y, GLsizei width, GLsizei height) {
  if (width < 0 || height < 0) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  viewport_[0] = x;
  viewport_[1] = y;
  viewport_[2] = width;
  viewport_[3] = height;
}

void GlContext::scissor(GLint x, GLint y, GLsizei width, GLsizei height) {
  if (width < 0 || height < 0) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  scissor_[0] = x;
  scissor_[1] = y;
  scissor_[2] = width;
  scissor_[3] = height;
}

Image GlContext::read_pixels() const {
  const_cast<GlContext*>(this)->flush();
  return framebuffer_.color();
}

// --- capabilities -------------------------------------------------------------

void GlContext::enable(GLenum cap) {
  switch (cap) {
    case GL_DEPTH_TEST:
      depth_test_ = true;
      break;
    case GL_BLEND:
      blend_ = true;
      break;
    case GL_CULL_FACE:
      cull_face_enabled_ = true;
      break;
    case GL_SCISSOR_TEST:
      scissor_test_ = true;
      break;
    default:
      set_error(GL_INVALID_ENUM);
  }
}

void GlContext::disable(GLenum cap) {
  switch (cap) {
    case GL_DEPTH_TEST:
      depth_test_ = false;
      break;
    case GL_BLEND:
      blend_ = false;
      break;
    case GL_CULL_FACE:
      cull_face_enabled_ = false;
      break;
    case GL_SCISSOR_TEST:
      scissor_test_ = false;
      break;
    default:
      set_error(GL_INVALID_ENUM);
  }
}

bool GlContext::is_enabled(GLenum cap) const {
  switch (cap) {
    case GL_DEPTH_TEST:
      return depth_test_;
    case GL_BLEND:
      return blend_;
    case GL_CULL_FACE:
      return cull_face_enabled_;
    case GL_SCISSOR_TEST:
      return scissor_test_;
    default:
      return false;
  }
}

void GlContext::blend_func(GLenum sfactor, GLenum dfactor) {
  const auto valid = [](GLenum f) {
    switch (f) {
      case GL_ZERO:
      case GL_ONE:
      case GL_SRC_ALPHA:
      case GL_ONE_MINUS_SRC_ALPHA:
      case GL_SRC_COLOR:
      case GL_ONE_MINUS_SRC_COLOR:
      case GL_DST_ALPHA:
      case GL_ONE_MINUS_DST_ALPHA:
        return true;
      default:
        return false;
    }
  };
  if (!valid(sfactor) || !valid(dfactor)) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  blend_src_ = sfactor;
  blend_dst_ = dfactor;
}

void GlContext::depth_func(GLenum func) {
  if (func < GL_NEVER || func > GL_ALWAYS) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  depth_func_ = func;
}

void GlContext::cull_face(GLenum mode) {
  if (mode != GL_FRONT && mode != GL_BACK) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  cull_mode_ = mode;
}

void GlContext::front_face(GLenum mode) {
  if (mode != GL_CW && mode != GL_CCW) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  front_face_ = mode;
}

// --- buffers -------------------------------------------------------------------

void GlContext::gen_buffers(GLsizei n, GLuint* out) {
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint name = next_buffer_name_++;
    buffers_.emplace(name, BufferObject{});
    out[i] = name;
  }
}

void GlContext::delete_buffers(GLsizei n, const GLuint* names) {
  for (GLsizei i = 0; i < n; ++i) {
    buffers_.erase(names[i]);
    if (array_buffer_binding_ == names[i]) array_buffer_binding_ = 0;
    if (element_buffer_binding_ == names[i]) element_buffer_binding_ = 0;
    for (auto& attrib : attribs_) {
      if (attrib.buffer == names[i]) attrib.buffer = 0;
    }
  }
}

void GlContext::bind_buffer(GLenum target, GLuint name) {
  if (name != 0 && !buffers_.contains(name)) {
    // Binding an unknown name implicitly creates it (GLES gen-less usage).
    buffers_.emplace(name, BufferObject{});
    next_buffer_name_ = std::max(next_buffer_name_, name + 1);
  }
  switch (target) {
    case GL_ARRAY_BUFFER:
      array_buffer_binding_ = name;
      break;
    case GL_ELEMENT_ARRAY_BUFFER:
      element_buffer_binding_ = name;
      break;
    default:
      set_error(GL_INVALID_ENUM);
  }
}

BufferObject* GlContext::bound_buffer(GLenum target) {
  GLuint name = 0;
  switch (target) {
    case GL_ARRAY_BUFFER:
      name = array_buffer_binding_;
      break;
    case GL_ELEMENT_ARRAY_BUFFER:
      name = element_buffer_binding_;
      break;
    default:
      set_error(GL_INVALID_ENUM);
      return nullptr;
  }
  if (name == 0) {
    set_error(GL_INVALID_OPERATION);
    return nullptr;
  }
  const auto it = buffers_.find(name);
  return it == buffers_.end() ? nullptr : &it->second;
}

void GlContext::buffer_data(GLenum target, std::span<const std::uint8_t> data,
                            GLenum usage) {
  BufferObject* buffer = bound_buffer(target);
  if (buffer == nullptr) return;
  buffer->data.assign(data.begin(), data.end());
  buffer->usage = usage;
}

void GlContext::buffer_sub_data(GLenum target, std::size_t offset,
                                std::span<const std::uint8_t> data) {
  BufferObject* buffer = bound_buffer(target);
  if (buffer == nullptr) return;
  if (offset + data.size() > buffer->data.size()) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  std::copy(data.begin(), data.end(), buffer->data.begin() + offset);
}

void GlContext::buffer_data(GLenum target, GLsizeiptr size, const void* data,
                            GLenum usage) {
  if (size < 0) return;
  const auto bytes = static_cast<std::size_t>(size);
  if (data == nullptr) {
    buffer_data(target, std::vector<std::uint8_t>(bytes), usage);
    return;
  }
  buffer_data(target, {static_cast<const std::uint8_t*>(data), bytes}, usage);
}

void GlContext::buffer_sub_data(GLenum target, GLintptr offset,
                                GLsizeiptr size, const void* data) {
  if (size < 0 || offset < 0 || data == nullptr) return;
  buffer_sub_data(target, static_cast<std::size_t>(offset),
                  {static_cast<const std::uint8_t*>(data),
                   static_cast<std::size_t>(size)});
}

// --- textures --------------------------------------------------------------------

void GlContext::gen_textures(GLsizei n, GLuint* out) {
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint name = next_texture_name_++;
    textures_.emplace(name, TextureObject{});
    out[i] = name;
  }
}

void GlContext::delete_textures(GLsizei n, const GLuint* names) {
  flush();  // deferred draws hold TextureObject pointers
  for (GLsizei i = 0; i < n; ++i) {
    textures_.erase(names[i]);
    for (auto& binding : texture_bindings_) {
      if (binding == names[i]) binding = 0;
    }
  }
}

void GlContext::active_texture(GLenum unit) {
  if (unit < GL_TEXTURE0 ||
      unit - GL_TEXTURE0 >= static_cast<GLenum>(kMaxTextureUnits)) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  active_texture_unit_ = static_cast<int>(unit - GL_TEXTURE0);
}

void GlContext::bind_texture(GLenum target, GLuint name) {
  if (target != GL_TEXTURE_2D) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  if (name != 0 && !textures_.contains(name)) {
    textures_.emplace(name, TextureObject{});
    next_texture_name_ = std::max(next_texture_name_, name + 1);
  }
  texture_bindings_[active_texture_unit_] = name;
}

void GlContext::tex_image_2d(GLenum target, GLint level, GLenum internal_format,
                             GLsizei width, GLsizei height, GLenum format,
                             GLenum type, const void* pixels) {
  if (target != GL_TEXTURE_2D || type != GL_UNSIGNED_BYTE) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  if (level != 0) return;  // mip levels other than 0 are accepted and ignored
  const int channels = format_channels(format);
  if (channels == 0 || format_channels(internal_format) == 0) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  if (width < 0 || height < 0) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  const GLuint name = texture_bindings_[active_texture_unit_];
  if (name == 0) {
    set_error(GL_INVALID_OPERATION);
    return;
  }
  flush();  // deferred draws sample the pre-upload texels
  TextureObject& tex = textures_[name];
  tex.image = Image(width, height);
  stats_.texture_uploads++;
  if (pixels == nullptr) return;
  const auto* src = static_cast<const std::uint8_t*>(pixels);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      std::uint8_t* dst = tex.image.pixel(x, y);
      const std::uint8_t* s = src + (static_cast<std::size_t>(y) * width + x) * channels;
      switch (channels) {
        case 1:
          dst[0] = dst[1] = dst[2] = s[0];
          dst[3] = 255;
          break;
        case 3:
          dst[0] = s[0];
          dst[1] = s[1];
          dst[2] = s[2];
          dst[3] = 255;
          break;
        default:
          std::memcpy(dst, s, 4);
      }
    }
  }
}

void GlContext::tex_image_2d(GLenum target, GLint level,
                             GLenum internal_format, GLsizei width,
                             GLsizei height, GLint /*border*/, GLenum format,
                             GLenum type, const void* pixels) {
  tex_image_2d(target, level, internal_format, width, height, format, type,
               pixels);
}

void GlContext::tex_sub_image_2d(GLenum target, GLint level, GLint xoffset,
                                 GLint yoffset, GLsizei width, GLsizei height,
                                 GLenum format, GLenum type,
                                 const void* pixels) {
  if (target != GL_TEXTURE_2D || type != GL_UNSIGNED_BYTE) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  if (level != 0 || pixels == nullptr) return;
  const int channels = format_channels(format);
  if (channels == 0) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  const GLuint name = texture_bindings_[active_texture_unit_];
  if (name == 0) {
    set_error(GL_INVALID_OPERATION);
    return;
  }
  TextureObject& tex = textures_[name];
  if (xoffset < 0 || yoffset < 0 ||
      std::int64_t{xoffset} + width > tex.image.width() ||
      std::int64_t{yoffset} + height > tex.image.height()) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  flush();  // deferred draws sample the pre-upload texels
  stats_.texture_uploads++;
  const auto* src = static_cast<const std::uint8_t*>(pixels);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      std::uint8_t* dst = tex.image.pixel(xoffset + x, yoffset + y);
      const std::uint8_t* s = src + (static_cast<std::size_t>(y) * width + x) * channels;
      switch (channels) {
        case 1:
          dst[0] = dst[1] = dst[2] = s[0];
          dst[3] = 255;
          break;
        case 3:
          dst[0] = s[0];
          dst[1] = s[1];
          dst[2] = s[2];
          dst[3] = 255;
          break;
        default:
          std::memcpy(dst, s, 4);
      }
    }
  }
}

void GlContext::tex_parameteri(GLenum target, GLenum pname, GLint param) {
  if (target != GL_TEXTURE_2D) {
    set_error(GL_INVALID_ENUM);
    return;
  }
  const GLuint name = texture_bindings_[active_texture_unit_];
  if (name == 0) {
    set_error(GL_INVALID_OPERATION);
    return;
  }
  TextureObject& tex = textures_[name];
  const auto value = static_cast<GLenum>(param);
  GLenum* field = nullptr;
  switch (pname) {
    case GL_TEXTURE_MIN_FILTER:
      field = &tex.min_filter;
      break;
    case GL_TEXTURE_MAG_FILTER:
      field = &tex.mag_filter;
      break;
    case GL_TEXTURE_WRAP_S:
      field = &tex.wrap_s;
      break;
    case GL_TEXTURE_WRAP_T:
      field = &tex.wrap_t;
      break;
    default:
      set_error(GL_INVALID_ENUM);
      return;
  }
  if (*field == value) return;  // redundant state — don't break batching
  flush();  // filter/wrap changes must not affect already-submitted draws
  *field = value;
}

// --- shaders & programs -------------------------------------------------------------

GLuint GlContext::create_shader(GLenum type) {
  if (type != GL_VERTEX_SHADER && type != GL_FRAGMENT_SHADER) {
    set_error(GL_INVALID_ENUM);
    return 0;
  }
  const GLuint name = next_shader_name_++;
  ShaderObject shader;
  shader.type = type;
  shaders_.emplace(name, std::move(shader));
  return name;
}

void GlContext::delete_shader(GLuint shader) { shaders_.erase(shader); }

void GlContext::shader_source(GLuint shader, std::string_view source) {
  const auto it = shaders_.find(shader);
  if (it == shaders_.end()) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  it->second.source = std::string(source);
}

void GlContext::compile_shader(GLuint shader) {
  const auto it = shaders_.find(shader);
  if (it == shaders_.end()) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  ShaderObject& obj = it->second;
  const ShaderKind kind = obj.type == GL_VERTEX_SHADER ? ShaderKind::kVertex
                                                       : ShaderKind::kFragment;
  obj.info_log.clear();
  obj.compiled = gles::compile_shader(kind, obj.source, obj.info_log);
}

GLint GlContext::get_shaderiv(GLuint shader, GLenum pname) const {
  const auto it = shaders_.find(shader);
  if (it == shaders_.end()) return 0;
  if (pname == GL_COMPILE_STATUS) return it->second.compiled.has_value() ? 1 : 0;
  return 0;
}

std::string GlContext::get_shader_info_log(GLuint shader) const {
  const auto it = shaders_.find(shader);
  return it == shaders_.end() ? std::string() : it->second.info_log;
}

GLuint GlContext::create_program() {
  const GLuint name = next_program_name_++;
  programs_.emplace(name, ProgramObject{});
  return name;
}

void GlContext::delete_program(GLuint program) {
  flush();  // deferred draws hold ProgramObject pointers
  programs_.erase(program);
  if (current_program_name_ == program) current_program_name_ = 0;
}

void GlContext::attach_shader(GLuint program, GLuint shader) {
  const auto it = programs_.find(program);
  if (it == programs_.end() || !shaders_.contains(shader)) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  it->second.attached_shaders.push_back(shader);
}

void GlContext::bind_attrib_location(GLuint program, GLuint index,
                                     std::string_view name) {
  const auto it = programs_.find(program);
  if (it == programs_.end()) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  if (index >= kMaxVertexAttribs) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  it->second.requested_attrib_locations[std::string(name)] =
      static_cast<GLint>(index);
}

void GlContext::link_program(GLuint program) {
  const auto it = programs_.find(program);
  if (it == programs_.end()) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  flush();  // relinking mutates the ProgramObject deferred draws point at
  ProgramObject& prog = it->second;
  prog.linked = false;
  prog.info_log.clear();
  prog.attributes.clear();
  prog.uniforms.clear();
  prog.varyings.clear();

  const CompiledShader* vs = nullptr;
  const CompiledShader* fs = nullptr;
  for (const GLuint shader_name : prog.attached_shaders) {
    const auto sit = shaders_.find(shader_name);
    if (sit == shaders_.end() || !sit->second.compiled) {
      prog.info_log = "attached shader not compiled";
      return;
    }
    if (sit->second.type == GL_VERTEX_SHADER) vs = &*sit->second.compiled;
    if (sit->second.type == GL_FRAGMENT_SHADER) fs = &*sit->second.compiled;
  }
  if (vs == nullptr || fs == nullptr) {
    prog.info_log = "program needs one vertex and one fragment shader";
    return;
  }
  prog.vertex = *vs;
  prog.fragment = *fs;

  // Attribute locations: honour glBindAttribLocation, then fill gaps.
  std::array<bool, kMaxVertexAttribs> taken{};
  for (const Symbol& attr : prog.vertex.attributes) {
    const auto req = prog.requested_attrib_locations.find(attr.name);
    if (req != prog.requested_attrib_locations.end()) {
      AttribInfo info;
      info.name = attr.name;
      info.type = attr.type;
      info.location = req->second;
      info.vs_register = attr.base_register;
      taken[static_cast<std::size_t>(req->second)] = true;
      prog.attributes.push_back(std::move(info));
    }
  }
  for (const Symbol& attr : prog.vertex.attributes) {
    if (prog.requested_attrib_locations.contains(attr.name)) continue;
    int location = -1;
    for (int i = 0; i < kMaxVertexAttribs; ++i) {
      if (!taken[static_cast<std::size_t>(i)]) {
        location = i;
        taken[static_cast<std::size_t>(i)] = true;
        break;
      }
    }
    if (location < 0) {
      prog.info_log = "too many attributes";
      return;
    }
    AttribInfo info;
    info.name = attr.name;
    info.type = attr.type;
    info.location = location;
    info.vs_register = attr.base_register;
    prog.attributes.push_back(std::move(info));
  }

  // Uniforms: fuse by name across stages.
  const auto add_uniform = [&prog](const Symbol& sym, bool vertex_stage) -> bool {
    for (UniformInfo& existing : prog.uniforms) {
      if (existing.name == sym.name) {
        if (existing.type != sym.type) return false;
        if (vertex_stage) {
          existing.vs_register = sym.base_register;
          existing.vs_sampler_slot = sym.sampler_slot;
        } else {
          existing.fs_register = sym.base_register;
          existing.fs_sampler_slot = sym.sampler_slot;
        }
        return true;
      }
    }
    UniformInfo info;
    info.name = sym.name;
    info.type = sym.type;
    if (vertex_stage) {
      info.vs_register = sym.base_register;
      info.vs_sampler_slot = sym.sampler_slot;
    } else {
      info.fs_register = sym.base_register;
      info.fs_sampler_slot = sym.sampler_slot;
    }
    prog.uniforms.push_back(std::move(info));
    return true;
  };
  for (const Symbol& sym : prog.vertex.uniforms) {
    if (!add_uniform(sym, true)) {
      prog.info_log = "uniform '" + sym.name + "' declared with conflicting types";
      return;
    }
  }
  for (const Symbol& sym : prog.fragment.uniforms) {
    if (!add_uniform(sym, false)) {
      prog.info_log = "uniform '" + sym.name + "' declared with conflicting types";
      return;
    }
  }

  // Varyings: every fragment-stage varying must have a matching vertex-stage
  // declaration of the same type.
  for (const Symbol& fvar : prog.fragment.varyings) {
    const Symbol* match = nullptr;
    for (const Symbol& vvar : prog.vertex.varyings) {
      if (vvar.name == fvar.name) {
        match = &vvar;
        break;
      }
    }
    if (match == nullptr || match->type != fvar.type) {
      prog.info_log = "varying '" + fvar.name + "' not written by vertex shader";
      return;
    }
    prog.varyings.push_back(VaryingLink{match->base_register, fvar.base_register,
                                        component_count(fvar.type)});
  }

  if (prog.vertex.position_register == 0xffff) {
    prog.info_log = "vertex shader never writes gl_Position";
    return;
  }
  if (prog.fragment.fragcolor_register == 0xffff) {
    prog.info_log = "fragment shader never writes gl_FragColor";
    return;
  }
  prog.linked = true;
}

GLint GlContext::get_programiv(GLuint program, GLenum pname) const {
  const auto it = programs_.find(program);
  if (it == programs_.end()) return 0;
  if (pname == GL_LINK_STATUS) return it->second.linked ? 1 : 0;
  return 0;
}

std::string GlContext::get_program_info_log(GLuint program) const {
  const auto it = programs_.find(program);
  return it == programs_.end() ? std::string() : it->second.info_log;
}

void GlContext::use_program(GLuint program) {
  if (program != 0) {
    const auto it = programs_.find(program);
    if (it == programs_.end() || !it->second.linked) {
      set_error(GL_INVALID_OPERATION);
      return;
    }
  }
  current_program_name_ = program;
}

ProgramObject* GlContext::current_program() {
  if (current_program_name_ == 0) return nullptr;
  const auto it = programs_.find(current_program_name_);
  return it == programs_.end() ? nullptr : &it->second;
}

GLint GlContext::get_attrib_location(GLuint program,
                                     std::string_view name) const {
  const auto it = programs_.find(program);
  if (it == programs_.end() || !it->second.linked) return -1;
  for (const AttribInfo& attr : it->second.attributes) {
    if (attr.name == name) return attr.location;
  }
  return -1;
}

GLint GlContext::get_uniform_location(GLuint program,
                                      std::string_view name) const {
  const auto it = programs_.find(program);
  if (it == programs_.end() || !it->second.linked) return -1;
  for (std::size_t i = 0; i < it->second.uniforms.size(); ++i) {
    if (it->second.uniforms[i].name == name) return static_cast<GLint>(i);
  }
  return -1;
}

// --- uniforms --------------------------------------------------------------------

namespace {

UniformInfo* uniform_at(ProgramObject* prog, GLint location) {
  if (prog == nullptr || location < 0 ||
      static_cast<std::size_t>(location) >= prog->uniforms.size()) {
    return nullptr;
  }
  return &prog->uniforms[static_cast<std::size_t>(location)];
}

}  // namespace

void GlContext::uniform1f(GLint location, GLfloat x) {
  UniformInfo* u = uniform_at(current_program(), location);
  if (u == nullptr) return;  // location -1 is silently ignored per spec
  if (u->type != ShaderType::kFloat) {
    set_error(GL_INVALID_OPERATION);
    return;
  }
  u->value[0] = x;
}

void GlContext::uniform2f(GLint location, GLfloat x, GLfloat y) {
  UniformInfo* u = uniform_at(current_program(), location);
  if (u == nullptr) return;
  if (u->type != ShaderType::kVec2) {
    set_error(GL_INVALID_OPERATION);
    return;
  }
  u->value[0] = x;
  u->value[1] = y;
}

void GlContext::uniform3f(GLint location, GLfloat x, GLfloat y, GLfloat z) {
  UniformInfo* u = uniform_at(current_program(), location);
  if (u == nullptr) return;
  if (u->type != ShaderType::kVec3) {
    set_error(GL_INVALID_OPERATION);
    return;
  }
  u->value[0] = x;
  u->value[1] = y;
  u->value[2] = z;
}

void GlContext::uniform4f(GLint location, GLfloat x, GLfloat y, GLfloat z,
                          GLfloat w) {
  UniformInfo* u = uniform_at(current_program(), location);
  if (u == nullptr) return;
  if (u->type != ShaderType::kVec4) {
    set_error(GL_INVALID_OPERATION);
    return;
  }
  u->value[0] = x;
  u->value[1] = y;
  u->value[2] = z;
  u->value[3] = w;
}

void GlContext::uniform1i(GLint location, GLint value) {
  UniformInfo* u = uniform_at(current_program(), location);
  if (u == nullptr) return;
  if (u->type != ShaderType::kSampler2D && u->type != ShaderType::kFloat) {
    set_error(GL_INVALID_OPERATION);
    return;
  }
  u->value[0] = static_cast<float>(value);
}

void GlContext::uniform_matrix4fv(GLint location, bool transpose,
                                  std::span<const GLfloat> value) {
  UniformInfo* u = uniform_at(current_program(), location);
  if (u == nullptr) return;
  if (u->type != ShaderType::kMat4 || value.size() < 16) {
    set_error(GL_INVALID_OPERATION);
    return;
  }
  if (!transpose) {
    std::copy_n(value.begin(), 16, u->value.begin());
  } else {
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        u->value[static_cast<std::size_t>(c * 4 + r)] =
            value[static_cast<std::size_t>(r * 4 + c)];
      }
    }
  }
}

void GlContext::uniform_matrix4fv(GLint location, GLsizei count,
                                  GLboolean transpose, const GLfloat* value) {
  if (count < 1 || value == nullptr) return;
  uniform_matrix4fv(location, transpose, std::span(value, 16));
}

// --- vertex arrays ------------------------------------------------------------------

void GlContext::enable_vertex_attrib_array(GLuint index) {
  if (index >= kMaxVertexAttribs) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  attribs_[index].enabled = true;
}

void GlContext::disable_vertex_attrib_array(GLuint index) {
  if (index >= kMaxVertexAttribs) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  attribs_[index].enabled = false;
}

void GlContext::vertex_attrib4f(GLuint index, GLfloat x, GLfloat y, GLfloat z,
                                GLfloat w) {
  if (index >= kMaxVertexAttribs) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  attribs_[index].generic_value = {x, y, z, w};
}

void GlContext::vertex_attrib_pointer(GLuint index, GLint size, GLenum type,
                                      bool normalized, GLsizei stride,
                                      const void* pointer,
                                      std::size_t client_bytes) {
  if (index >= kMaxVertexAttribs) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  if (size < 1 || size > 4 || stride < 0 || scalar_type_size(type) == 0) {
    set_error(GL_INVALID_VALUE);
    return;
  }
  VertexAttribState& attrib = attribs_[index];
  attrib.size = size;
  attrib.type = type;
  attrib.normalized = normalized;
  attrib.stride = stride;
  attrib.buffer = array_buffer_binding_;
  if (array_buffer_binding_ != 0) {
    attrib.offset = reinterpret_cast<std::size_t>(pointer);
    attrib.client_pointer = nullptr;
    attrib.client_bytes = SIZE_MAX;
  } else {
    attrib.offset = 0;
    attrib.client_pointer = pointer;
    attrib.client_bytes = client_bytes;
  }
}

std::span<const std::uint8_t> GlContext::buffer_contents(GLuint name) const {
  const auto it = buffers_.find(name);
  if (it == buffers_.end()) return {};
  return it->second.data;
}

const VertexAttribState& GlContext::attrib_state(GLuint index) const {
  check(index < kMaxVertexAttribs, "attrib index out of range");
  return attribs_[index];
}

std::size_t GlContext::object_memory_bytes() const {
  std::size_t total = 0;
  for (const auto& [name, buffer] : buffers_) total += buffer.data.size();
  for (const auto& [name, texture] : textures_) {
    total += texture.image.byte_size();
  }
  for (const auto& [name, shader] : shaders_) total += shader.source.size();
  for (const auto& [name, program] : programs_) {
    total += program.vertex.code.size() * sizeof(Instr);
    total += program.fragment.code.size() * sizeof(Instr);
  }
  return total;
}

}  // namespace gb::gles
