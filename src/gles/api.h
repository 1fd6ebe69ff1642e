// The OpenGL ES client API surface — the boundary the paper hooks.
//
// Applications never talk to a GlContext directly; they resolve a GlesApi
// through the dynamic linker model (src/hooking) exactly as an Android app
// resolves libGLESv2.so. GBooster's wrapper library implements this same
// interface to intercept and forward the command stream (§IV-A), so a call
// site cannot tell whether it is rendering locally or being offloaded.
//
// The entry points themselves are declared once, in gles/call_table.h.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "gles/call_table.h"
#include "gles/types.h"

namespace gb::gles {

class GlesApi {
 public:
  virtual ~GlesApi() = default;

#define GB_GLES_PURE(kind, ret, name, params, args, method, wire) \
  virtual ret name params = 0;
  GB_GLES_CALLS(GB_GLES_PURE)
#undef GB_GLES_PURE

  // Not an entry point: glVertexAttribPointer into staged client data of
  // known length (the wire decoder's kVertexAttribPointerClient blobs).
  // Vertex fetches read no further than data.size(); the default hands on
  // the bare pointer, as an application would.
  virtual void vertex_attrib_pointer_staged(
      GLuint index, GLint size, GLenum type, GLboolean normalized,
      GLsizei stride, std::span<const std::uint8_t> data) {
    glVertexAttribPointer(index, size, type, normalized, stride, data.data());
  }
};

// One id per entry point, in symbol-table order.
enum class SymbolId : std::uint8_t {
#define GB_SYMBOL_ID(kind, ret, name, params, args, method, wire) name,
  GB_GLES_CALLS(GB_SYMBOL_ID)
#undef GB_SYMBOL_ID
};

// Names of every entry point, as they appear in a shared library's dynamic
// symbol table, indexed by SymbolId. Used by the hooking layer and the
// interposition tests to exercise symbol-by-symbol resolution.
#define GB_SYMBOL_NAME(kind, ret, name, params, args, method, wire) \
  std::string_view(#name),
inline constexpr std::array kSymbolNames{GB_GLES_CALLS(GB_SYMBOL_NAME)};
#undef GB_SYMBOL_NAME
inline constexpr std::size_t kSymbolCount = kSymbolNames.size();

inline std::span<const std::string_view> gles_symbol_names() {
  return kSymbolNames;
}

}  // namespace gb::gles
