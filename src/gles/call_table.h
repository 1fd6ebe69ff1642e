// The OpenGL ES entry points GBooster intercepts (§IV-A) and replays on
// service devices (§VI), declared once.
//
// Every layer that spells out the call surface expands this table instead of
// restating it: the GlesApi virtuals and the dynamic symbol list (gles/api.h),
// the DirectBackend forwards, the PerSymbolApi dispatch (src/hooking), the
// CmdOp enum and per-opcode wire specs (wire/protocol.h), and the recorder's
// shadow/encode and the decoder's replay for plain calls (src/wire).
//
// GB_GLES_CALLS(X) invokes X(kind, ret, name, params, args, method, wire)
// once per entry point, in symbol-table order:
//   ret name params  the C++ signature; `args` names the parameters again as
//                    an argument list
//   method           the GlContext member that executes the call
//   wire             (op, code, shared, cap, kinds...) for recorded calls,
//                    () for the rest:
//     op, code       the CmdOp enumerator and its fixed numeric value; a code
//                    is never reused or renumbered (it is the wire format)
//     shared         true when the call changes context state that outlives
//                    the frame: multi-device mode replicates it to every
//                    service device (§VI-B), and the recorder's shadow context
//                    executes it
//     cap            largest value a `len`/`count` argument may carry on the
//                    wire (draw counts, texture sizes, object-name counts);
//                    the decoder rejects larger ones. 0 when there are none
//     kinds          wire encoding of each serialized value, in order:
//                    u8 (bool), u32, i32, f32, varint, str (length-prefixed),
//                    len (i32 <= cap), count (varint <= cap, sizes the next
//                    `names`), names (`count` varints), blob (length-prefixed
//                    bytes), mat4 (sixteen f32)
//
// Row kinds (the `kind` column: how the wrapper library treats the call):
//   plain    generated end to end: the recorder runs it on the shadow context
//            when `shared` and encodes the arguments as `kinds`; the decoder
//            reads them back and calls the target.
//   special  recorded, but encode and decode are hand-written
//            (wire/recorder.cc, wire/decoder.cc) because the record is not a
//            plain image of the arguments; `kinds` still declares its layout.
//   swap     eglSwapBuffers: special, and DirectBackend presents the frame.
//   query    answered by the recorder's shadow context; never recorded.
//   local    nothing a replica could observe (glFlush/glFinish); not recorded.
#pragma once

// clang-format off
#define GB_GLES_CALLS(X)                                                      \
  /* Error handling. */                                                       \
  X(query, GLenum, glGetError, (), (), get_error, ())                         \
  /* Framebuffer control. */                                                  \
  X(plain, void, glClearColor, (GLfloat r, GLfloat g, GLfloat b, GLfloat a),  \
    (r, g, b, a), clear_color, (kClearColor, 1, true, 0, f32, f32, f32, f32)) \
  X(plain, void, glClear, (GLbitfield mask), (mask), clear,                   \
    (kClear, 2, false, 0, u32))                                               \
  X(plain, void, glViewport, (GLint x, GLint y, GLsizei w, GLsizei h),        \
    (x, y, w, h), viewport, (kViewport, 3, true, 0, i32, i32, i32, i32))      \
  X(plain, void, glScissor, (GLint x, GLint y, GLsizei w, GLsizei h),         \
    (x, y, w, h), scissor, (kScissor, 4, true, 0, i32, i32, i32, i32))        \
  /* Capabilities and fixed-function state. */                                \
  X(plain, void, glEnable, (GLenum cap), (cap), enable,                       \
    (kEnable, 5, true, 0, u32))                                               \
  X(plain, void, glDisable, (GLenum cap), (cap), disable,                     \
    (kDisable, 6, true, 0, u32))                                              \
  X(plain, void, glBlendFunc, (GLenum sfactor, GLenum dfactor),               \
    (sfactor, dfactor), blend_func, (kBlendFunc, 7, true, 0, u32, u32))       \
  X(plain, void, glDepthFunc, (GLenum func), (func), depth_func,              \
    (kDepthFunc, 8, true, 0, u32))                                            \
  X(plain, void, glCullFace, (GLenum mode), (mode), cull_face,                \
    (kCullFace, 9, true, 0, u32))                                             \
  X(plain, void, glFrontFace, (GLenum mode), (mode), front_face,              \
    (kFrontFace, 10, true, 0, u32))                                           \
  /* Buffers. */                                                              \
  X(special, void, glGenBuffers, (GLsizei n, GLuint* out), (n, out),          \
    gen_buffers, (kGenBuffers, 11, true, 1024, count, names))                 \
  X(plain, void, glDeleteBuffers, (GLsizei n, const GLuint* names),           \
    (n, names), delete_buffers,                                               \
    (kDeleteBuffers, 12, true, 1024, count, names))                           \
  X(plain, void, glBindBuffer, (GLenum target, GLuint name), (target, name),  \
    bind_buffer, (kBindBuffer, 13, true, 0, u32, varint))                     \
  X(special, void, glBufferData,                                              \
    (GLenum target, GLsizeiptr size, const void* data, GLenum usage),         \
    (target, size, data, usage), buffer_data,                                 \
    (kBufferData, 14, true, 0, u32, u32, blob))                               \
  X(special, void, glBufferSubData,                                           \
    (GLenum target, GLintptr offset, GLsizeiptr size, const void* data),      \
    (target, offset, size, data), buffer_sub_data,                            \
    (kBufferSubData, 15, true, 0, u32, varint, blob))                         \
  /* Textures. */                                                             \
  X(special, void, glGenTextures, (GLsizei n, GLuint* out), (n, out),         \
    gen_textures, (kGenTextures, 16, true, 1024, count, names))               \
  X(plain, void, glDeleteTextures, (GLsizei n, const GLuint* names),          \
    (n, names), delete_textures,                                              \
    (kDeleteTextures, 17, true, 1024, count, names))                          \
  X(plain, void, glActiveTexture, (GLenum unit), (unit), active_texture,      \
    (kActiveTexture, 18, true, 0, u32))                                       \
  X(plain, void, glBindTexture, (GLenum target, GLuint name), (target, name), \
    bind_texture, (kBindTexture, 19, true, 0, u32, varint))                   \
  X(special, void, glTexImage2D,                                              \
    (GLenum target, GLint level, GLenum internal_format, GLsizei width,       \
     GLsizei height, GLint border, GLenum format, GLenum type,                \
     const void* pixels),                                                     \
    (target, level, internal_format, width, height, border, format, type,     \
     pixels), tex_image_2d,                                                   \
    (kTexImage2D, 20, true, 2048, u32, i32, u32, len, len, u32, u32, blob))   \
  X(special, void, glTexSubImage2D,                                           \
    (GLenum target, GLint level, GLint xoffset, GLint yoffset,                \
     GLsizei width, GLsizei height, GLenum format, GLenum type,               \
     const void* pixels),                                                     \
    (target, level, xoffset, yoffset, width, height, format, type, pixels),   \
    tex_sub_image_2d,                                                         \
    (kTexSubImage2D, 21, true, 2048, u32, i32, i32, i32, len, len, u32, u32,  \
     blob))                                                                   \
  X(plain, void, glTexParameteri, (GLenum target, GLenum pname, GLint param), \
    (target, pname, param), tex_parameteri,                                   \
    (kTexParameteri, 22, true, 0, u32, u32, i32))                             \
  /* Shaders and programs. */                                                 \
  X(special, GLuint, glCreateShader, (GLenum type), (type), create_shader,    \
    (kCreateShader, 23, true, 0, u32, varint))                                \
  X(plain, void, glDeleteShader, (GLuint shader), (shader), delete_shader,    \
    (kDeleteShader, 24, true, 0, varint))                                     \
  X(plain, void, glShaderSource, (GLuint shader, std::string_view source),    \
    (shader, source), shader_source,                                          \
    (kShaderSource, 25, true, 0, varint, str))                                \
  X(plain, void, glCompileShader, (GLuint shader), (shader), compile_shader,  \
    (kCompileShader, 26, true, 0, varint))                                    \
  X(query, GLint, glGetShaderiv, (GLuint shader, GLenum pname),               \
    (shader, pname), get_shaderiv, ())                                        \
  X(query, std::string, glGetShaderInfoLog, (GLuint shader), (shader),        \
    get_shader_info_log, ())                                                  \
  X(special, GLuint, glCreateProgram, (), (), create_program,                 \
    (kCreateProgram, 27, true, 0, varint))                                    \
  X(plain, void, glDeleteProgram, (GLuint program), (program),                \
    delete_program, (kDeleteProgram, 28, true, 0, varint))                    \
  X(plain, void, glAttachShader, (GLuint program, GLuint shader),             \
    (program, shader), attach_shader,                                         \
    (kAttachShader, 29, true, 0, varint, varint))                             \
  X(plain, void, glBindAttribLocation,                                        \
    (GLuint program, GLuint index, std::string_view name),                    \
    (program, index, name), bind_attrib_location,                             \
    (kBindAttribLocation, 30, true, 0, varint, varint, str))                  \
  X(plain, void, glLinkProgram, (GLuint program), (program), link_program,    \
    (kLinkProgram, 31, true, 0, varint))                                      \
  X(query, GLint, glGetProgramiv, (GLuint program, GLenum pname),             \
    (program, pname), get_programiv, ())                                      \
  X(plain, void, glUseProgram, (GLuint program), (program), use_program,      \
    (kUseProgram, 32, true, 0, varint))                                       \
  X(query, GLint, glGetAttribLocation,                                        \
    (GLuint program, std::string_view name), (program, name),                 \
    get_attrib_location, ())                                                  \
  X(query, GLint, glGetUniformLocation,                                       \
    (GLuint program, std::string_view name), (program, name),                 \
    get_uniform_location, ())                                                 \
  /* Uniforms. */                                                             \
  X(plain, void, glUniform1f, (GLint location, GLfloat x), (location, x),     \
    uniform1f, (kUniform1f, 33, true, 0, i32, f32))                           \
  X(plain, void, glUniform2f, (GLint location, GLfloat x, GLfloat y),         \
    (location, x, y), uniform2f, (kUniform2f, 34, true, 0, i32, f32, f32))    \
  X(plain, void, glUniform3f,                                                 \
    (GLint location, GLfloat x, GLfloat y, GLfloat z), (location, x, y, z),   \
    uniform3f, (kUniform3f, 35, true, 0, i32, f32, f32, f32))                 \
  X(plain, void, glUniform4f,                                                 \
    (GLint location, GLfloat x, GLfloat y, GLfloat z, GLfloat w),             \
    (location, x, y, z, w), uniform4f,                                        \
    (kUniform4f, 36, true, 0, i32, f32, f32, f32, f32))                       \
  X(plain, void, glUniform1i, (GLint location, GLint x), (location, x),       \
    uniform1i, (kUniform1i, 37, true, 0, i32, i32))                           \
  X(special, void, glUniformMatrix4fv,                                        \
    (GLint location, GLsizei count, GLboolean transpose,                      \
     const GLfloat* value), (location, count, transpose, value),              \
    uniform_matrix4fv, (kUniformMatrix4fv, 38, true, 0, i32, u8, mat4))       \
  /* Vertex arrays and draws. */                                              \
  X(plain, void, glEnableVertexAttribArray, (GLuint index), (index),          \
    enable_vertex_attrib_array,                                               \
    (kEnableVertexAttribArray, 39, true, 0, varint))                          \
  X(plain, void, glDisableVertexAttribArray, (GLuint index), (index),         \
    disable_vertex_attrib_array,                                              \
    (kDisableVertexAttribArray, 40, true, 0, varint))                         \
  X(plain, void, glVertexAttrib4f,                                            \
    (GLuint index, GLfloat x, GLfloat y, GLfloat z, GLfloat w),               \
    (index, x, y, z, w), vertex_attrib4f,                                     \
    (kVertexAttrib4f, 41, true, 0, varint, f32, f32, f32, f32))               \
  X(special, void, glVertexAttribPointer,                                     \
    (GLuint index, GLint size, GLenum type, GLboolean normalized,             \
     GLsizei stride, const void* pointer),                                    \
    (index, size, type, normalized, stride, pointer), vertex_attrib_pointer,  \
    (kVertexAttribPointerBuffer, 42, true, 0, varint, i32, u32, u8, i32,      \
     varint))                                                                 \
  X(special, void, glDrawArrays, (GLenum mode, GLint first, GLsizei count),   \
    (mode, first, count), draw_arrays,                                        \
    (kDrawArrays, 44, false, 65536, u32, i32, len))                           \
  X(special, void, glDrawElements,                                            \
    (GLenum mode, GLsizei count, GLenum type, const void* indices),           \
    (mode, count, type, indices), draw_elements,                              \
    (kDrawElementsClient, 45, false, 65536, u32, len, u32, blob))             \
  /* Synchronization (accepted; the software pipeline is synchronous). */     \
  X(local, void, glFlush, (), (), flush, ())                                  \
  X(local, void, glFinish, (), (), flush, ())                                 \
  /* EGL-level presentation: completes the pending frame and delivers it */   \
  /* to the display system, the call whose behaviour GBooster rewrites */     \
  /* (§IV-C, §VI-A). Returns true on success. */                              \
  X(swap, bool, eglSwapBuffers, (), (), none, (kSwapBuffers, 47, false, 0))

// Opcodes with no entry point of their own: the second wire form of a call
// whose record depends on state at call time. Same shape as a `wire` column.
//   kVertexAttribPointerClient  glVertexAttribPointer into client memory; its
//       data ships inline, deferred to just before the draw that reveals its
//       length (§IV-B). Draw-local input, so not shared.
//   kDrawElementsBuffer         glDrawElements with indices taken from the
//       bound element array buffer (its row is the inline-index form).
#define GB_GLES_EXTRA_OPS(X)                                                  \
  X(kVertexAttribPointerClient, 43, false, 0, varint, i32, u32, u8, i32, blob) \
  X(kDrawElementsBuffer, 46, false, 65536, u32, len, u32, varint)

// Row filters for the consumers: GB_IF(property, kind)(tokens) keeps the
// tokens only for rows whose kind has the property.
//   recorded  the call has an opcode (plain, special, swap)
//   direct    DirectBackend forwards it to `method` (all but swap)
#define GB_KEEP(...) __VA_ARGS__
#define GB_DROP(...)
#define GB_IF(property, kind) GB_IF_##property##_##kind
#define GB_IF_recorded_plain GB_KEEP
#define GB_IF_recorded_special GB_KEEP
#define GB_IF_recorded_swap GB_KEEP
#define GB_IF_recorded_query GB_DROP
#define GB_IF_recorded_local GB_DROP
#define GB_IF_direct_plain GB_KEEP
#define GB_IF_direct_special GB_KEEP
#define GB_IF_direct_swap GB_DROP
#define GB_IF_direct_query GB_KEEP
#define GB_IF_direct_local GB_KEEP
// clang-format on
