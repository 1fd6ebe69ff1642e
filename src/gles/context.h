// The OpenGL ES 2.0-subset state machine — the "server" side of the paper's
// client/server model (§IV, Fig. 3). One GlContext corresponds to one GPU
// rendering context on either the user device or a service device.
//
// Semantics follow the GLES 2.0 specification for the implemented subset:
// object name tables, bind-to-edit, client-memory and buffer-offset vertex
// arrays, stateful uniforms, sticky glGetError, and framebuffer read-back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/function_ref.h"
#include "common/geometry.h"
#include "common/image.h"
#include "gles/framebuffer.h"
#include "gles/objects.h"
#include "gles/types.h"
#include "runtime/thread_pool.h"

namespace gb::runtime {
class MetricsRegistry;
}  // namespace gb::runtime

namespace gb::gles {

class GlContext;
struct GlStateSnapshot;
GlStateSnapshot capture_gl_state(const GlContext& ctx);
void install_gl_state(const GlStateSnapshot& snapshot, GlContext& ctx);

// Per-frame draw state (gles/tile_binning.h).
struct TileBinning;

// Fragment-stage scheduling strategy.
//
// kTileBinned (default) is the TBDR pipeline: triangle draws are assembled
// and binned into 16x16 screen tiles but not shaded; at the next flush point
// every tile is rasterized independently on the thread pool, walking its
// binned triangles in submission order with early-Z winner tracking (opaque
// overdraw runs the depth test but shades only the surviving fragment per
// pixel). Output is bit-identical to kRowBand for any thread count: tiles
// are disjoint, each pixel replays the exact sequential depth/blend/write
// order, and a pixel's final color is by definition its last surviving
// fragment's.
//
// kRowBand is the immediate-mode path (each draw call rasterizes to
// completion over framebuffer row bands), kept as the identity baseline.
enum class RasterMode { kTileBinned, kRowBand };

// Per-location vertex attribute array state (glVertexAttribPointer).
struct VertexAttribState {
  bool enabled = false;
  GLint size = 4;
  GLenum type = GL_FLOAT;
  bool normalized = false;
  GLsizei stride = 0;
  // When buffer != 0 the attribute sources from that buffer at `offset`;
  // otherwise it reads client memory at `client_pointer` (valid only during
  // the draw call, as in real GLES). An application's pointer is trusted,
  // as a driver trusts it; data staged from the wire carries its length in
  // `client_bytes`, and reads past it yield the generic value.
  GLuint buffer = 0;
  std::size_t offset = 0;
  const void* client_pointer = nullptr;
  std::size_t client_bytes = SIZE_MAX;
  // Generic attribute value used when the array is disabled
  // (glVertexAttrib4f).
  Vec4 generic_value{0, 0, 0, 1};
};

// Counters used for workload profiling; the paper's dispatcher (Eq. 4)
// needs a per-request workload estimate `r`, which we derive from the
// pixels a request fills — the same fillrate-based unit as Table I.
struct RenderStats {
  std::uint64_t draw_calls = 0;
  std::uint64_t vertices_processed = 0;
  std::uint64_t triangles_rasterized = 0;
  // Depth-passing fragments. Counted identically in both raster modes: a
  // tile-binned candidate that later loses to a closer fragment still counts
  // (the row-band rasterizer would have shaded it).
  std::uint64_t fragments_shaded = 0;
  // Of fragments_shaded, how many the tile-binned early-Z pass eliminated
  // without running the fragment shader (opaque overdraw).
  std::uint64_t fragments_early_z_culled = 0;
  // Tile-binned flushes: tiles that had at least one binned triangle vs.
  // tiles skipped outright.
  std::uint64_t tiles_shaded = 0;
  std::uint64_t tiles_empty = 0;
  std::uint64_t texture_uploads = 0;

  void reset() { *this = RenderStats{}; }
};

class GlContext {
 public:
  static constexpr int kMaxVertexAttribs = 16;
  static constexpr int kMaxTextureUnits = 8;
  // TBDR screen-tile edge; matches the Turbo codec's macroblock grid so a
  // finished render tile maps 1:1 onto an encoder tile.
  static constexpr int kRasterTileSize = 16;

  GlContext(int surface_width, int surface_height);
  ~GlContext();

  // --- error handling ------------------------------------------------------
  GLenum get_error();  // returns and clears the sticky error, like glGetError

  // --- framebuffer ---------------------------------------------------------
  void clear_color(GLfloat r, GLfloat g, GLfloat b, GLfloat a);
  void clear(GLbitfield mask);
  void viewport(GLint x, GLint y, GLsizei width, GLsizei height);
  void scissor(GLint x, GLint y, GLsizei width, GLsizei height);
  // Reads the full color buffer (the SwapBuffer path); top-left origin.
  // Flushes pending tile-binned draws first.
  [[nodiscard]] const Image& color_buffer() const;
  Image read_pixels() const;

  // --- capabilities & fixed-function state ----------------------------------
  void enable(GLenum cap);
  void disable(GLenum cap);
  [[nodiscard]] bool is_enabled(GLenum cap) const;
  void blend_func(GLenum sfactor, GLenum dfactor);
  void depth_func(GLenum func);
  void cull_face(GLenum mode);
  void front_face(GLenum mode);

  // --- buffers --------------------------------------------------------------
  void gen_buffers(GLsizei n, GLuint* out);
  void delete_buffers(GLsizei n, const GLuint* names);
  void bind_buffer(GLenum target, GLuint name);
  void buffer_data(GLenum target, std::span<const std::uint8_t> data,
                   GLenum usage);
  void buffer_sub_data(GLenum target, std::size_t offset,
                       std::span<const std::uint8_t> data);

  // --- textures --------------------------------------------------------------
  void gen_textures(GLsizei n, GLuint* out);
  void delete_textures(GLsizei n, const GLuint* names);
  void active_texture(GLenum unit);
  void bind_texture(GLenum target, GLuint name);
  void tex_image_2d(GLenum target, GLint level, GLenum internal_format,
                    GLsizei width, GLsizei height, GLenum format,
                    GLenum type, const void* pixels);
  void tex_sub_image_2d(GLenum target, GLint level, GLint xoffset,
                        GLint yoffset, GLsizei width, GLsizei height,
                        GLenum format, GLenum type, const void* pixels);
  void tex_parameteri(GLenum target, GLenum pname, GLint param);

  // GlesApi-shaped forms of the calls above whose API signature differs
  // (raw pointers and byte sizes, the unused border). Negative sizes and
  // null sub-data are ignored; null glBufferData data allocates zeroes.
  void buffer_data(GLenum target, GLsizeiptr size, const void* data,
                   GLenum usage);
  void buffer_sub_data(GLenum target, GLintptr offset, GLsizeiptr size,
                       const void* data);
  void tex_image_2d(GLenum target, GLint level, GLenum internal_format,
                    GLsizei width, GLsizei height, GLint border, GLenum format,
                    GLenum type, const void* pixels);

  // --- shaders & programs ----------------------------------------------------
  GLuint create_shader(GLenum type);
  void delete_shader(GLuint shader);
  void shader_source(GLuint shader, std::string_view source);
  void compile_shader(GLuint shader);
  [[nodiscard]] GLint get_shaderiv(GLuint shader, GLenum pname) const;
  [[nodiscard]] std::string get_shader_info_log(GLuint shader) const;

  GLuint create_program();
  void delete_program(GLuint program);
  void attach_shader(GLuint program, GLuint shader);
  void bind_attrib_location(GLuint program, GLuint index,
                            std::string_view name);
  void link_program(GLuint program);
  [[nodiscard]] GLint get_programiv(GLuint program, GLenum pname) const;
  [[nodiscard]] std::string get_program_info_log(GLuint program) const;
  void use_program(GLuint program);
  [[nodiscard]] GLint get_attrib_location(GLuint program,
                                          std::string_view name) const;
  [[nodiscard]] GLint get_uniform_location(GLuint program,
                                           std::string_view name) const;

  // --- uniforms --------------------------------------------------------------
  void uniform1f(GLint location, GLfloat x);
  void uniform2f(GLint location, GLfloat x, GLfloat y);
  void uniform3f(GLint location, GLfloat x, GLfloat y, GLfloat z);
  void uniform4f(GLint location, GLfloat x, GLfloat y, GLfloat z, GLfloat w);
  void uniform1i(GLint location, GLint value);
  void uniform_matrix4fv(GLint location, bool transpose,
                         std::span<const GLfloat> value);
  // GlesApi form: uploads the first matrix; ignored when count < 1 or null.
  void uniform_matrix4fv(GLint location, GLsizei count, GLboolean transpose,
                         const GLfloat* value);

  // --- vertex arrays & drawing ------------------------------------------------
  void enable_vertex_attrib_array(GLuint index);
  void disable_vertex_attrib_array(GLuint index);
  void vertex_attrib4f(GLuint index, GLfloat x, GLfloat y, GLfloat z,
                       GLfloat w);
  // `client_bytes` bounds reads through a client pointer (see
  // VertexAttribState); it is ignored while an array buffer is bound.
  void vertex_attrib_pointer(GLuint index, GLint size, GLenum type,
                             bool normalized, GLsizei stride,
                             const void* pointer,
                             std::size_t client_bytes = SIZE_MAX);
  void draw_arrays(GLenum mode, GLint first, GLsizei count);
  void draw_elements(GLenum mode, GLsizei count, GLenum type,
                     const void* indices);

  // --- raster threading & scheduling -----------------------------------------
  // Fragment shading/depth/blend runs in parallel — over screen tiles in
  // kTileBinned mode, over framebuffer row bands in kRowBand mode; either
  // way each pixel is exclusively owned by one worker, so output is
  // bit-identical to the serial rasterizer. 1 = serial, 0 = one per core.
  void set_raster_threads(int threads);
  // Borrows a shared pool (e.g. the service runtime's) instead of an owned
  // one; pass nullptr to return to the owned pool.
  void set_thread_pool(runtime::ThreadPool* pool);
  void set_raster_mode(RasterMode mode);
  [[nodiscard]] RasterMode raster_mode() const noexcept { return raster_mode_; }
  // Optional sink for tile-level observability counters ("raster.*");
  // pass nullptr to detach. The registry must outlive the context.
  void set_metrics(runtime::MetricsRegistry* metrics);

  // Drains all deferred tile-binned draws into the framebuffer. A no-op when
  // nothing is pending (and always in kRowBand mode, which never defers).
  void flush();
  // Like flush(), but hands every finished 16x16 screen tile to `sink` the
  // moment its pixels are final — the render-tile -> encode-tile fusion hook.
  // The sink is invoked exactly once per tile of the framebuffer's tile grid
  // (row-major index, including tiles with no pending geometry, whose pixels
  // are simply already final), possibly concurrently from pool workers for
  // distinct tiles. The Image reference is the live color buffer; the sink
  // must only read the given tile's rectangle.
  using TileSink = FunctionRef<void(const Image& color, int tile_index)>;
  void flush_tiles(TileSink sink);

  // --- introspection for the offload layer -----------------------------------
  // Flushes pending tile-binned draws so counters reflect submitted work.
  [[nodiscard]] const RenderStats& stats() const;
  RenderStats& mutable_stats();
  [[nodiscard]] int surface_width() const noexcept { return framebuffer_.width(); }
  [[nodiscard]] int surface_height() const noexcept {
    return framebuffer_.height();
  }
  // Approximate resident memory of context-owned objects; drives the paper's
  // §VII-G memory-overhead accounting.
  [[nodiscard]] std::size_t object_memory_bytes() const;
  // Introspection used by the command recorder's shadow context.
  [[nodiscard]] GLuint array_buffer_binding() const noexcept {
    return array_buffer_binding_;
  }
  [[nodiscard]] GLuint element_buffer_binding() const noexcept {
    return element_buffer_binding_;
  }
  [[nodiscard]] std::span<const std::uint8_t> buffer_contents(GLuint name) const;
  [[nodiscard]] const VertexAttribState& attrib_state(GLuint index) const;

 private:
  friend class Rasterizer;
  // The state-snapshot subsystem reads and writes the complete context
  // state directly (state_snapshot.cc).
  friend GlStateSnapshot capture_gl_state(const GlContext& ctx);
  friend void install_gl_state(const GlStateSnapshot& snapshot, GlContext& ctx);

  void set_error(GLenum error);
  BufferObject* bound_buffer(GLenum target);
  [[nodiscard]] ProgramObject* current_program();

  // Fetches attribute `state` for vertex `vertex_index` as a float Vec4.
  Vec4 fetch_attribute(const VertexAttribState& state, std::size_t vertex_index);
  // Resolves the index array for glDrawElements into `out`; false means
  // "draw nothing" (with the GL error set where GLES defines one).
  bool gather_indices(GLsizei count, GLenum type, const void* indices,
                      std::vector<std::uint32_t>& out);
  // Draw-call validation shared by both draw paths, run before any
  // per-vertex work: a linked program is current and `mode` is one the
  // rasterizer handles. False (with the GL error set) means "draw nothing".
  bool draw_ready(GLenum mode, std::size_t count);
  // Rasterizes a validated draw.
  void draw_internal(GLenum mode, std::span<const std::uint32_t> indices);
  // Shared implementation of flush()/flush_tiles() (context_draw.cc).
  void flush_impl(TileSink sink);
  // The frame's draw state and the vertex stage's scratch, made on first use.
  TileBinning& frame_state();

  Framebuffer framebuffer_;
  GLenum error_ = GL_NO_ERROR;

  // State.
  Vec4 clear_color_{0, 0, 0, 1};
  bool depth_test_ = false;
  bool blend_ = false;
  bool cull_face_enabled_ = false;
  bool scissor_test_ = false;
  GLenum blend_src_ = GL_ONE;
  GLenum blend_dst_ = GL_ZERO;
  GLenum depth_func_ = GL_LESS;
  GLenum cull_mode_ = GL_BACK;
  GLenum front_face_ = GL_CCW;
  GLint viewport_[4] = {0, 0, 0, 0};
  GLint scissor_[4] = {0, 0, 0, 0};

  // Objects.
  std::map<GLuint, BufferObject> buffers_;
  std::map<GLuint, TextureObject> textures_;
  std::map<GLuint, ShaderObject> shaders_;
  std::map<GLuint, ProgramObject> programs_;
  GLuint next_buffer_name_ = 1;
  GLuint next_texture_name_ = 1;
  GLuint next_shader_name_ = 1;
  GLuint next_program_name_ = 1;

  // Bindings.
  GLuint array_buffer_binding_ = 0;
  GLuint element_buffer_binding_ = 0;
  int active_texture_unit_ = 0;
  GLuint texture_bindings_[kMaxTextureUnits] = {};
  GLuint current_program_name_ = 0;

  VertexAttribState attribs_[kMaxVertexAttribs];
  RenderStats stats_;

  // Fragment parallelism (null pools = serial rasterization).
  [[nodiscard]] runtime::ThreadPool* raster_pool() const noexcept {
    return shared_pool_ != nullptr ? shared_pool_ : owned_pool_.get();
  }
  std::unique_ptr<runtime::ThreadPool> owned_pool_;
  runtime::ThreadPool* shared_pool_ = nullptr;

  // Per-frame draw state (deferred TBDR draws, the vertex arena) and the
  // vertex stage's scratch; allocated on the first draw.
  RasterMode raster_mode_ = RasterMode::kTileBinned;
  std::unique_ptr<TileBinning> binning_;
  runtime::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace gb::gles
