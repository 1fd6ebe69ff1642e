// Dynamic-linker model reproducing the three interception paths of §IV-A.
//
// On Android, GBooster injects a wrapper libGLESv2 by setting LD_PRELOAD so
// the dynamic linker resolves GLES symbols against the wrapper before the
// genuine driver, and additionally rewrites eglGetProcAddress / dlopen /
// dlsym so the other two lookup styles also land in the wrapper. This module
// models that machinery: libraries register per-symbol entry-point providers
// under an soname, a preload list shadows symbol resolution, and the three
// lookup paths (load-time linking, eglGetProcAddress, dlopen+dlsym) all
// honour the shadowing.
//
// Symbol granularity is real: a wrapper that exports only a subset of the
// GLES symbols shadows only those; the rest fall through to the genuine
// library, exactly as with ld.so.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "gles/api.h"

namespace gb::hooking {

using gles::GLboolean;
using gles::GLbitfield;
using gles::GLenum;
using gles::GLfloat;
using gles::GLint;
using gles::GLintptr;
using gles::GLsizei;
using gles::GLsizeiptr;
using gles::GLuint;

// The provider of one GLES entry point. In a real process this would be a
// code address; in the model every symbol of a library resolves to the
// GlesApi object that implements it, and dispatch stays per-symbol so partial
// interposition behaves faithfully.
using SymbolProvider = gles::GlesApi*;

// A loaded shared object: an soname plus its dynamic symbol table.
struct LibraryImage {
  std::string soname;
  std::map<std::string, SymbolProvider, std::less<>> symbols;

  // Convenience: exports every GLES entry point from one implementation,
  // which is how both the genuine driver and the full wrapper present
  // themselves.
  static LibraryImage exporting_all(std::string soname, gles::GlesApi* api);
};

class DynamicLinker {
 public:
  using Handle = std::size_t;  // dlopen handle; 0 is the null handle

  // Installs a library under its soname (ld.so.cache registration).
  void register_library(LibraryImage image);

  // Sets the LD_PRELOAD list; earlier entries shadow later ones and all of
  // them shadow normally-loaded libraries.
  void set_preload(std::vector<std::string> sonames);
  [[nodiscard]] const std::vector<std::string>& preload() const noexcept {
    return preload_;
  }

  // Path 1 — load-time direct linking: resolves every GLES symbol the way
  // ld.so would bind a DT_NEEDED dependency, honouring LD_PRELOAD per
  // symbol. Returns a dispatch table the application calls through.
  [[nodiscard]] std::unique_ptr<gles::GlesApi> link_gles(
      std::string_view soname) const;

  // Path 2 — eglGetProcAddress: per-symbol lookup, also shadowed by the
  // preload list (the wrapper rewrites this function on Android; here the
  // shadowing rule itself produces the rewritten behaviour).
  [[nodiscard]] SymbolProvider egl_get_proc_address(
      std::string_view symbol) const;

  // Path 3 — dlopen/dlsym: dlopen of an soname on the preload shadow list
  // returns the preloaded image's handle, so subsequent dlsym calls land in
  // the wrapper.
  [[nodiscard]] Handle dl_open(std::string_view soname) const;
  [[nodiscard]] SymbolProvider dl_sym(Handle handle,
                                      std::string_view symbol) const;

  // Resolution used internally and by tests: which provider does `symbol`
  // bind to when requested from `soname`, given the current preload list?
  [[nodiscard]] SymbolProvider resolve(std::string_view soname,
                                       std::string_view symbol) const;

 private:
  [[nodiscard]] const LibraryImage* find(std::string_view soname) const;

  std::vector<LibraryImage> libraries_;  // insertion order == load order
  std::vector<std::string> preload_;
};

// GlesApi implementation that binds each entry point to its per-symbol
// provider — the application-side view after relocation. Unresolved symbols
// throw on call (the moral equivalent of a lazy-binding failure).
class PerSymbolApi final : public gles::GlesApi {
 public:
  // `resolve` is invoked once per GLES symbol at construction (eager
  // binding, RTLD_NOW style); calls then index the bound table directly.
  using Resolver = SymbolProvider (*)(const void* ctx, std::string_view symbol);
  PerSymbolApi(const void* ctx, Resolver resolve);

#define GB_PER_SYMBOL_FORWARD(kind, ret, name, params, args, method, wire) \
  ret name params override {                                              \
    return bound(gles::SymbolId::name).name args;                         \
  }
  GB_GLES_CALLS(GB_PER_SYMBOL_FORWARD)
#undef GB_PER_SYMBOL_FORWARD

 private:
  [[nodiscard]] gles::GlesApi& bound(gles::SymbolId symbol) const {
    SymbolProvider provider = bindings_[static_cast<std::size_t>(symbol)];
    check(provider != nullptr,
          "unresolved GLES symbol called through dispatch table");
    return *provider;
  }

  std::array<SymbolProvider, gles::kSymbolCount> bindings_{};
};

}  // namespace gb::hooking
