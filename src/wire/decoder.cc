#include "wire/decoder.h"

#include <tuple>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "wire/arg_codec.h"

namespace gb::wire {
namespace {

using gles::GLsizei;
using gles::GLuint;

const void* pointer_or_null(std::span<const std::uint8_t> data) {
  return data.empty() ? nullptr : data.data();
}

// GLES encodes buffer offsets as pointers.
const void* offset_pointer(std::uint64_t offset) {
  return reinterpret_cast<const void*>(static_cast<std::uintptr_t>(offset));
}

// Converts a decoded value to the parameter type of the call it feeds:
// object-name lists become pointers, a varint feeding a pointer parameter
// is a buffer offset, and integers narrow with a range check.
template <typename P, typename V>
P to_param(V& value) {
  if constexpr (std::is_same_v<V, std::vector<GLuint>>) {
    return value.data();
  } else if constexpr (std::is_pointer_v<P>) {
    return offset_pointer(value);
  } else if constexpr (std::is_arithmetic_v<V> && !std::is_same_v<P, V>) {
    return narrow<P>(value);
  } else {
    return value;
  }
}

template <CmdOp Op, typename... Params>
void replay_plain(ByteReader& r, gles::GlesApi& target,
                  void (gles::GlesApi::*call)(Params...)) {
  auto args = read_args<Op>(r);
  std::apply(
      [&](auto&... values) { (target.*call)(to_param<Params>(values)...); },
      args);
}

// The GenBuffers/GenTextures records carry the names chosen on the user
// device; the replica must adopt them. Our GlContext's bind-to-create
// semantics make that work: replaying a bind with an explicit name creates
// the object under exactly that name, and since the recorder's shadow
// context and the replica allocate names with the same deterministic
// counter, Create*/Gen* records always agree with replica allocation.
template <CmdOp Op>
void replay_gen(ByteReader& r, gles::GlesApi& target,
                void (gles::GlesApi::*gen)(GLsizei, GLuint*)) {
  const auto [n, expected] = read_args<Op>(r);
  std::vector<GLuint> names(expected.size());
  (target.*gen)(n, names.data());
  if (names != expected) {
    throw Error("replica object-name allocation diverged: got " +
                std::to_string(names.empty() ? 0 : names[0]) + " expected " +
                std::to_string(expected.empty() ? 0 : expected[0]) +
                (Op == CmdOp::kGenBuffers ? " (buffers)" : " (textures)"));
  }
}

// A texture upload's inline texels must cover width x height pixels of
// `format`, or the context would read past the record.
void check_texels(std::span<const std::uint8_t> data, GLsizei width,
                  GLsizei height, gles::GLenum format) {
  if (data.empty() || width <= 0 || height <= 0) return;
  const auto need = static_cast<std::size_t>(width) *
                    static_cast<std::size_t>(height) *
                    static_cast<std::size_t>(gles::format_channels(format));
  check(data.size() >= need, "texture upload shorter than its size");
}

}  // namespace

void replay_record(const CommandRecord& record, gles::GlesApi& target) {
  ByteReader r(record.bytes);
  const auto code = static_cast<CmdOp>(r.varint());
  switch (code) {
    // Plain calls: read the table kinds, call the entry point.
#define GB_WIRE_OP(op, ...) op
#define GB_REPLAY_plain(name, wire)                                        \
  case CmdOp::GB_WIRE_OP wire:                                             \
    replay_plain<CmdOp::GB_WIRE_OP wire>(r, target, &gles::GlesApi::name); \
    break;
#define GB_REPLAY_special(name, wire)
#define GB_REPLAY_swap(name, wire)
#define GB_REPLAY_query(name, wire)
#define GB_REPLAY_local(name, wire)
#define GB_REPLAY(kind, ret, name, params, args, method, wire) \
  GB_REPLAY_##kind(name, wire)
    GB_GLES_CALLS(GB_REPLAY)
#undef GB_REPLAY
#undef GB_REPLAY_local
#undef GB_REPLAY_query
#undef GB_REPLAY_swap
#undef GB_REPLAY_special
#undef GB_REPLAY_plain
#undef GB_WIRE_OP

    case CmdOp::kGenBuffers:
      replay_gen<CmdOp::kGenBuffers>(r, target, &gles::GlesApi::glGenBuffers);
      break;
    case CmdOp::kGenTextures:
      replay_gen<CmdOp::kGenTextures>(r, target,
                                      &gles::GlesApi::glGenTextures);
      break;
    case CmdOp::kCreateShader: {
      const auto [type, expected] = read_args<CmdOp::kCreateShader>(r);
      check(target.glCreateShader(type) == expected,
            "replica shader-name allocation diverged");
      break;
    }
    case CmdOp::kCreateProgram: {
      const auto [expected] = read_args<CmdOp::kCreateProgram>(r);
      check(target.glCreateProgram() == expected,
            "replica program-name allocation diverged");
      break;
    }
    case CmdOp::kBufferData: {
      const auto [t, usage, data] = read_args<CmdOp::kBufferData>(r);
      target.glBufferData(t, static_cast<gles::GLsizeiptr>(data.size()),
                          pointer_or_null(data), usage);
      break;
    }
    case CmdOp::kBufferSubData: {
      const auto [t, offset, data] = read_args<CmdOp::kBufferSubData>(r);
      target.glBufferSubData(t, narrow<gles::GLintptr>(offset),
                             static_cast<gles::GLsizeiptr>(data.size()),
                             data.data());
      break;
    }
    case CmdOp::kTexImage2D: {
      const auto [t, level, internal_format, width, height, format, type,
                  data] = read_args<CmdOp::kTexImage2D>(r);
      check_texels(data, width, height, format);
      target.glTexImage2D(t, level, internal_format, width, height, 0, format,
                          type, pointer_or_null(data));
      break;
    }
    case CmdOp::kTexSubImage2D: {
      const auto [t, level, xoffset, yoffset, width, height, format, type,
                  data] = read_args<CmdOp::kTexSubImage2D>(r);
      check_texels(data, width, height, format);
      target.glTexSubImage2D(t, level, xoffset, yoffset, width, height, format,
                             type, pointer_or_null(data));
      break;
    }
    case CmdOp::kUniformMatrix4fv: {
      const auto [location, transpose, m] =
          read_args<CmdOp::kUniformMatrix4fv>(r);
      target.glUniformMatrix4fv(location, 1, transpose, m.data());
      break;
    }
    case CmdOp::kVertexAttribPointerBuffer:
      replay_plain<CmdOp::kVertexAttribPointerBuffer>(
          r, target, &gles::GlesApi::glVertexAttribPointer);
      break;
    case CmdOp::kVertexAttribPointerClient:
      // The shipped attribute data must outlive the draw that consumes it.
      check(false,
            "kVertexAttribPointerClient must be replayed via replay_frame, "
            "which owns the staging storage");
      break;
    case CmdOp::kDrawArrays:
      replay_plain<CmdOp::kDrawArrays>(r, target, &gles::GlesApi::glDrawArrays);
      break;
    case CmdOp::kDrawElementsClient: {
      const auto [mode, count, type, data] =
          read_args<CmdOp::kDrawElementsClient>(r);
      // The context reads count x element-size bytes of inline indices.
      check(count <= 0 ||
                data.size() >= static_cast<std::size_t>(count) *
                                   static_cast<std::size_t>(
                                       gles::scalar_type_size(type)),
            "inline index data shorter than the draw count");
      target.glDrawElements(mode, count, type, pointer_or_null(data));
      break;
    }
    case CmdOp::kDrawElementsBuffer:
      replay_plain<CmdOp::kDrawElementsBuffer>(r, target,
                                               &gles::GlesApi::glDrawElements);
      break;
    case CmdOp::kSwapBuffers:
      target.eglSwapBuffers();
      break;
    default:
      throw Error("unknown command opcode in stream");
  }
}

void replay_frame(const FrameCommands& frame, gles::GlesApi& target) {
  // Client-memory attribute payloads shipped with the frame must stay alive
  // until the draw that reads them executes; they are staged here and the
  // pointer command replayed with a pointer into the staging arena.
  std::vector<std::vector<std::uint8_t>> staged;
  for (const CommandRecord& record : frame.records) {
    ByteReader r(record.bytes);
    if (static_cast<CmdOp>(r.varint()) != CmdOp::kVertexAttribPointerClient) {
      replay_record(record, target);
      continue;
    }
    const auto [index, size, type, normalized, stride, data] =
        read_args<CmdOp::kVertexAttribPointerClient>(r);
    staged.emplace_back(data.begin(), data.end());
    target.vertex_attrib_pointer_staged(narrow<GLuint>(index), size, type,
                                        normalized, stride, staged.back());
  }
}

}  // namespace gb::wire
