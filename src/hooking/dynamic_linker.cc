#include "hooking/dynamic_linker.h"

#include <algorithm>

namespace gb::hooking {

LibraryImage LibraryImage::exporting_all(std::string soname,
                                         gles::GlesApi* api) {
  LibraryImage image;
  image.soname = std::move(soname);
  for (const std::string_view name : gles::gles_symbol_names()) {
    image.symbols.emplace(std::string(name), api);
  }
  return image;
}

void DynamicLinker::register_library(LibraryImage image) {
  check(find(image.soname) == nullptr, "library soname already registered");
  libraries_.push_back(std::move(image));
}

void DynamicLinker::set_preload(std::vector<std::string> sonames) {
  for (const std::string& soname : sonames) {
    check(find(soname) != nullptr, "LD_PRELOAD names an unknown library");
  }
  preload_ = std::move(sonames);
}

const LibraryImage* DynamicLinker::find(std::string_view soname) const {
  const auto it = std::find_if(
      libraries_.begin(), libraries_.end(),
      [&](const LibraryImage& lib) { return lib.soname == soname; });
  return it == libraries_.end() ? nullptr : &*it;
}

SymbolProvider DynamicLinker::resolve(std::string_view soname,
                                      std::string_view symbol) const {
  // LD_PRELOAD semantics: preloaded images are searched first, in order.
  for (const std::string& preloaded : preload_) {
    if (const LibraryImage* lib = find(preloaded)) {
      const auto it = lib->symbols.find(symbol);
      if (it != lib->symbols.end()) return it->second;
    }
  }
  if (const LibraryImage* lib = find(soname)) {
    const auto it = lib->symbols.find(symbol);
    if (it != lib->symbols.end()) return it->second;
  }
  return nullptr;
}

namespace {

struct LinkContext {
  const DynamicLinker* linker;
  std::string soname;
};

}  // namespace

std::unique_ptr<gles::GlesApi> DynamicLinker::link_gles(
    std::string_view soname) const {
  check(find(soname) != nullptr, "cannot link: unknown soname");
  const LinkContext ctx{this, std::string(soname)};
  return std::make_unique<PerSymbolApi>(
      &ctx, +[](const void* raw, std::string_view symbol) -> SymbolProvider {
        const auto* c = static_cast<const LinkContext*>(raw);
        return c->linker->resolve(c->soname, symbol);
      });
}

SymbolProvider DynamicLinker::egl_get_proc_address(
    std::string_view symbol) const {
  // eglGetProcAddress searches the global scope; with the wrapper preloaded
  // the same shadowing applies — this is the "rewritten" behaviour of §IV-A
  // case 2 emerging from ld.so rules rather than a special case.
  return resolve("libGLESv2.so", symbol);
}

DynamicLinker::Handle DynamicLinker::dl_open(std::string_view soname) const {
  // §IV-A case 3: the wrapper's dlopen returns the wrapper image when an
  // application tries to load the genuine GLES library by name.
  if (!preload_.empty() && (soname == "libGLESv2.so" || soname == "libEGL.so")) {
    for (std::size_t i = 0; i < libraries_.size(); ++i) {
      if (libraries_[i].soname == preload_.front()) return i + 1;
    }
  }
  for (std::size_t i = 0; i < libraries_.size(); ++i) {
    if (libraries_[i].soname == soname) return i + 1;
  }
  return 0;
}

SymbolProvider DynamicLinker::dl_sym(Handle handle,
                                     std::string_view symbol) const {
  if (handle == 0 || handle > libraries_.size()) return nullptr;
  const LibraryImage& lib = libraries_[handle - 1];
  const auto it = lib.symbols.find(symbol);
  if (it != lib.symbols.end()) return it->second;
  // dlsym falls back to dependency resolution order — which the preload
  // shadow list heads — when the image itself lacks the symbol.
  return resolve(lib.soname, symbol);
}

// --- PerSymbolApi -------------------------------------------------------------

PerSymbolApi::PerSymbolApi(const void* ctx, Resolver resolve) {
  for (std::size_t id = 0; id < gles::kSymbolCount; ++id) {
    bindings_[id] = resolve(ctx, gles::kSymbolNames[id]);
  }
}

}  // namespace gb::hooking
