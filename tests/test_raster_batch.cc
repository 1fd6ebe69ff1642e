// Pins the tile rasterizer's batched fragment and vertex stages at their
// edges: a tile with more winners than one lane batch holds, winners that
// alternate between draws with different textures and uniforms, a blended
// draw after pending opaque winners, a fragment shader that uses every VM
// op, and the vertex stage's dense, sparse, strip, fan, point and line
// paths. Each scene's pixels and render counters are hashed; the hashes
// were captured from the one-fragment-at-a-time shader VM, and each scene
// must also match the row-band rasterizer at 1 and 4 threads.
//
// The vertex-stage hash is the row-band rasterizer's: before the vertex
// arena, a sparse-index draw left its deferred triangles pointing into a
// hash map freed when the draw returned, so the tile-binned pixels of that
// scene varied from run to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "gles/context.h"
#include "gles/framebuffer.h"
#include "gles/shader.h"
#include "test_support.h"

namespace gb::gles {
namespace {

constexpr std::string_view kTexturedVs = R"(
  attribute vec4 a_position;
  attribute vec2 a_uv;
  varying vec2 v_uv;
  void main() { gl_Position = a_position; v_uv = a_uv; }
)";

constexpr std::string_view kTexturedFs = R"(
  precision mediump float;
  varying vec2 v_uv;
  uniform sampler2D u_tex;
  uniform vec4 u_tint;
  void main() { gl_FragColor = texture2D(u_tex, v_uv) * u_tint; }
)";

// Uses every bytecode op (EveryOpShaderCompilesToEveryOp checks that).
constexpr std::string_view kEveryOpFs = R"(
  precision mediump float;
  varying vec2 v_uv;
  uniform sampler2D u_tex;
  uniform mat4 u_m;
  uniform vec4 u_tint;
  void main() {
    vec4 t = texture2D(u_tex, v_uv * 3.0);
    vec3 n = normalize(vec3(v_uv, 0.5));
    float d = dot(n, t.xyz);
    float l = length(v_uv - 0.25);
    vec4 m = u_m * vec4(v_uv, d, 1.0);
    vec4 q = m / (abs(t) + 1.0);
    vec2 s = vec2(sin(v_uv.x * 6.0), cos(v_uv.y * 6.0));
    float f = fract(l * 4.0) + sqrt(v_uv.x);
    vec4 c = mix(q, u_tint, f * 0.5);
    c = clamp(c, 0.0, 1.0);
    float lo = min(c.x, s.x + 1.0);
    float hi = max(c.y, -s.y);
    gl_FragColor = vec4(lo, hi, c.z - l, c.w);
  }
)";

GLuint compile(GlContext& gl, GLenum type, std::string_view source) {
  const GLuint shader = gl.create_shader(type);
  gl.shader_source(shader, source);
  gl.compile_shader(shader);
  EXPECT_EQ(gl.get_shaderiv(shader, GL_COMPILE_STATUS), 1)
      << gl.get_shader_info_log(shader);
  return shader;
}

GLuint link(GlContext& gl, std::string_view vs, std::string_view fs) {
  const GLuint prog = gl.create_program();
  gl.attach_shader(prog, compile(gl, GL_VERTEX_SHADER, vs));
  gl.attach_shader(prog, compile(gl, GL_FRAGMENT_SHADER, fs));
  gl.link_program(prog);
  EXPECT_EQ(gl.get_programiv(prog, GL_LINK_STATUS), 1)
      << gl.get_program_info_log(prog);
  return prog;
}

// A w x h RGBA texture with a per-texel pattern seeded by `salt`.
GLuint make_texture(GlContext& gl, int w, int h, int salt, GLenum filter,
                    GLenum wrap) {
  std::vector<std::uint8_t> texels(static_cast<std::size_t>(w) * h * 4);
  for (std::size_t i = 0; i < texels.size(); ++i) {
    texels[i] = static_cast<std::uint8_t>((i * 37 + salt * 101) % 256);
  }
  GLuint tex = 0;
  gl.gen_textures(1, &tex);
  gl.bind_texture(GL_TEXTURE_2D, tex);
  gl.tex_image_2d(GL_TEXTURE_2D, 0, GL_RGBA, w, h, GL_RGBA, GL_UNSIGNED_BYTE,
                  texels.data());
  gl.tex_parameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, static_cast<GLint>(filter));
  gl.tex_parameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, static_cast<GLint>(filter));
  gl.tex_parameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_S, static_cast<GLint>(wrap));
  gl.tex_parameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_T, static_cast<GLint>(wrap));
  return tex;
}

// Vertices as x, y, z, w, u, v. Positions are given in pixels and turned
// into clip space with the given w, so perspective-correct interpolation
// differs from screen-linear interpolation wherever w varies.
struct Vertex {
  float px, py, z, w, u, v;
};

class Scene {
 public:
  Scene(GlContext& gl, GLuint prog) : gl_(gl), prog_(prog) {}

  void draw(GLenum mode, const std::vector<Vertex>& verts) {
    upload(verts);
    gl_.draw_arrays(mode, 0, static_cast<GLsizei>(verts.size()));
  }

  void draw_indexed(GLenum mode, const std::vector<Vertex>& verts,
                    const std::vector<std::uint32_t>& indices) {
    upload(verts);
    gl_.draw_elements(mode, static_cast<GLsizei>(indices.size()),
                      GL_UNSIGNED_INT, indices.data());
  }

  // An axis-aligned quad over pixels [x0, x1) x [y0, y1) as two triangles.
  static std::vector<Vertex> quad(float x0, float y0, float x1, float y1,
                                  float z, float w0 = 1.0f, float w1 = 1.0f) {
    const Vertex a{x0, y0, z, w0, 0.0f, 0.0f};
    const Vertex b{x1, y0, z, w1, 1.0f, 0.0f};
    const Vertex c{x0, y1, z, w0, 0.0f, 1.0f};
    const Vertex d{x1, y1, z, w1, 1.0f, 1.0f};
    return {a, b, c, b, d, c};
  }

 private:
  void upload(const std::vector<Vertex>& verts) {
    const float sw = static_cast<float>(gl_.surface_width());
    const float sh = static_cast<float>(gl_.surface_height());
    positions_.clear();
    uvs_.clear();
    for (const Vertex& v : verts) {
      const float nx = v.px * 2.0f / sw - 1.0f;
      const float ny = 1.0f - v.py * 2.0f / sh;
      positions_.insert(positions_.end(), {nx * v.w, ny * v.w, v.z * v.w, v.w});
      uvs_.insert(uvs_.end(), {v.u, v.v});
    }
    gl_.bind_buffer(GL_ARRAY_BUFFER, 0);
    const GLint pos = gl_.get_attrib_location(prog_, "a_position");
    gl_.enable_vertex_attrib_array(static_cast<GLuint>(pos));
    gl_.vertex_attrib_pointer(static_cast<GLuint>(pos), 4, GL_FLOAT, false, 0,
                              positions_.data(), positions_.size() * sizeof(float));
    const GLint uv = gl_.get_attrib_location(prog_, "a_uv");
    if (uv >= 0) {
      gl_.enable_vertex_attrib_array(static_cast<GLuint>(uv));
      gl_.vertex_attrib_pointer(static_cast<GLuint>(uv), 2, GL_FLOAT, false, 0,
                                uvs_.data(), uvs_.size() * sizeof(float));
    }
  }

  GlContext& gl_;
  GLuint prog_;
  std::vector<float> positions_;
  std::vector<float> uvs_;
};

void set_tint(GlContext& gl, GLuint prog, float r, float g, float b, float a) {
  gl.uniform4f(gl.get_uniform_location(prog, "u_tint"), r, g, b, a);
}

// Renders `scene` and hashes the color buffer plus the render counters.
template <typename SceneFn>
std::uint64_t render_hash(RasterMode mode, int threads, int w, int h,
                          SceneFn&& scene) {
  GlContext gl(w, h);
  gl.set_raster_mode(mode);
  gl.set_raster_threads(threads);
  gl.clear_color(0.1f, 0.2f, 0.3f, 1.0f);
  gl.clear(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT);
  scene(gl);
  test_support::Fnv1a hash;
  hash.add(gl.color_buffer().bytes());
  const RenderStats& stats = gl.stats();
  hash.add_u64(stats.vertices_processed);
  hash.add_u64(stats.triangles_rasterized);
  hash.add_u64(stats.fragments_shaded);
  return hash.value();
}

// The scene's tile-binned hash at 1 thread, after checking that 4 threads
// and the row-band rasterizer render the same bytes and counts.
template <typename SceneFn>
std::uint64_t pinned_hash(int w, int h, SceneFn&& scene) {
  const std::uint64_t binned = render_hash(RasterMode::kTileBinned, 1, w, h, scene);
  EXPECT_EQ(render_hash(RasterMode::kTileBinned, 4, w, h, scene), binned);
  EXPECT_EQ(render_hash(RasterMode::kRowBand, 1, w, h, scene), binned);
  EXPECT_EQ(render_hash(RasterMode::kRowBand, 4, w, h, scene), binned);
  return binned;
}

TEST(RasterBatch, TileWithMoreWinnersThanOneBatch) {
  // 40x24 leaves partial tiles on the right and bottom. The near quad wins
  // every pixel of every tile, far more than one lane batch per tile, and
  // its varying w makes each lane's perspective weights distinct.
  const std::uint64_t hash = pinned_hash(40, 24, [](GlContext& gl) {
    const GLuint prog = link(gl, kTexturedVs, kTexturedFs);
    gl.use_program(prog);
    make_texture(gl, 8, 8, 1, GL_LINEAR, GL_REPEAT);
    gl.uniform1i(gl.get_uniform_location(prog, "u_tex"), 0);
    gl.enable(GL_DEPTH_TEST);
    Scene scene(gl, prog);
    set_tint(gl, prog, 1.0f, 0.5f, 0.25f, 1.0f);
    scene.draw(GL_TRIANGLES, Scene::quad(0, 0, 40, 24, 0.5f));
    set_tint(gl, prog, 0.9f, 1.0f, 0.8f, 1.0f);
    scene.draw(GL_TRIANGLES, Scene::quad(0, 0, 40, 24, -0.5f, 1.0f, 3.0f));
  });
  EXPECT_EQ(hash, 0xa749087bd14ce583ull);
}

TEST(RasterBatch, WinnersAlternateBetweenTwoDraws) {
  // Two draws own alternate pixel columns, each with its own texture, filter,
  // wrap mode and tint, so every batch boundary in a tile row changes draw.
  const std::uint64_t hash = pinned_hash(48, 32, [](GlContext& gl) {
    const GLuint prog = link(gl, kTexturedVs, kTexturedFs);
    gl.use_program(prog);
    const GLuint linear = make_texture(gl, 8, 8, 2, GL_LINEAR, GL_REPEAT);
    const GLuint nearest = make_texture(gl, 4, 4, 3, GL_NEAREST, GL_CLAMP_TO_EDGE);
    gl.uniform1i(gl.get_uniform_location(prog, "u_tex"), 0);
    Scene scene(gl, prog);
    for (int parity = 0; parity < 2; ++parity) {
      gl.bind_texture(GL_TEXTURE_2D, parity == 0 ? linear : nearest);
      if (parity == 0) {
        set_tint(gl, prog, 1.0f, 0.75f, 0.5f, 1.0f);
      } else {
        set_tint(gl, prog, 0.25f, 1.0f, 0.9f, 1.0f);
      }
      std::vector<Vertex> columns;
      for (int x = parity; x < 48; x += 2) {
        const auto q = Scene::quad(static_cast<float>(x), 0.0f,
                                   static_cast<float>(x + 1), 32.0f, 0.0f);
        columns.insert(columns.end(), q.begin(), q.end());
      }
      scene.draw(GL_TRIANGLES, columns);
    }
  });
  EXPECT_EQ(hash, 0x55627ba3873da1b0ull);
}

TEST(RasterBatch, BlendedDrawAfterPendingOpaqueWinners) {
  // Opaque winners are pending when a blended quad arrives: they must land
  // before it reads the destination, and opaque draws after it start a new
  // winner set under the depth test.
  const std::uint64_t hash = pinned_hash(48, 40, [](GlContext& gl) {
    const GLuint prog = link(gl, kTexturedVs, kTexturedFs);
    gl.use_program(prog);
    make_texture(gl, 8, 8, 4, GL_LINEAR, GL_REPEAT);
    gl.uniform1i(gl.get_uniform_location(prog, "u_tex"), 0);
    gl.enable(GL_DEPTH_TEST);
    Scene scene(gl, prog);
    set_tint(gl, prog, 1.0f, 1.0f, 1.0f, 1.0f);
    scene.draw(GL_TRIANGLES, Scene::quad(0, 0, 48, 40, 0.25f));
    set_tint(gl, prog, 0.5f, 0.9f, 0.3f, 1.0f);
    scene.draw(GL_TRIANGLES, Scene::quad(4, 6, 30, 33, 0.0f, 1.0f, 2.0f));
    gl.enable(GL_BLEND);
    gl.blend_func(GL_SRC_ALPHA, GL_ONE_MINUS_SRC_ALPHA);
    set_tint(gl, prog, 0.8f, 0.2f, 0.6f, 0.4f);
    scene.draw(GL_TRIANGLES, Scene::quad(10, 3, 45, 29, -0.25f));
    gl.disable(GL_BLEND);
    set_tint(gl, prog, 0.2f, 0.4f, 1.0f, 1.0f);
    scene.draw(GL_TRIANGLES, Scene::quad(20, 12, 44, 38, -0.5f, 2.0f, 1.0f));
  });
  EXPECT_EQ(hash, 0x30bc279bec37753bull);
}

TEST(RasterBatch, EveryOpShaderCompilesToEveryOp) {
  std::string log;
  const auto fs = compile_shader(ShaderKind::kFragment, kEveryOpFs, log);
  ASSERT_TRUE(fs.has_value()) << log;
  std::set<Op> ops;
  for (const Instr& in : fs->code) ops.insert(in.op);
  EXPECT_EQ(ops.size(), static_cast<std::size_t>(Op::kTex2D) + 1);
}

TEST(RasterBatch, EveryOpShaderPixelsArePinned) {
  const std::uint64_t hash = pinned_hash(40, 40, [](GlContext& gl) {
    const GLuint prog = link(gl, kTexturedVs, kEveryOpFs);
    gl.use_program(prog);
    make_texture(gl, 8, 4, 5, GL_LINEAR, GL_REPEAT);
    gl.uniform1i(gl.get_uniform_location(prog, "u_tex"), 0);
    const float m[16] = {0.9f, 0.1f, -0.2f, 0.0f, 0.3f, 0.7f, 0.1f, 0.2f,
                         -0.1f, 0.4f, 0.8f, 0.0f, 0.05f, 0.1f, 0.2f, 1.0f};
    gl.uniform_matrix4fv(gl.get_uniform_location(prog, "u_m"), false, m);
    set_tint(gl, prog, 0.3f, 0.6f, 0.9f, 1.0f);
    gl.enable(GL_DEPTH_TEST);
    Scene scene(gl, prog);
    scene.draw(GL_TRIANGLES, Scene::quad(0, 0, 40, 40, 0.0f, 1.0f, 2.5f));
    scene.draw(GL_TRIANGLES, Scene::quad(7, 5, 33, 37, -0.5f, 3.0f, 1.0f));
  });
  EXPECT_EQ(hash, 0x43aa58c7cb0e84faull);
}

TEST(RasterBatch, VertexStagePathsArePinned) {
  // Dense and sparse index ranges, repeated indices, strips, fans, a
  // trailing partial triangle, points and lines: each path shades exactly
  // the vertices its primitives use, and the counters are part of the hash.
  const std::uint64_t hash = pinned_hash(48, 48, [](GlContext& gl) {
    const GLuint prog = link(gl, kTexturedVs, kTexturedFs);
    gl.use_program(prog);
    make_texture(gl, 4, 4, 6, GL_NEAREST, GL_REPEAT);
    gl.uniform1i(gl.get_uniform_location(prog, "u_tex"), 0);
    set_tint(gl, prog, 1.0f, 0.8f, 0.6f, 1.0f);
    Scene scene(gl, prog);
    const std::vector<Vertex> grid = {
        {2, 2, 0, 1, 0, 0},   {24, 3, 0, 2, 1, 0},   {46, 2, 0, 1, 2, 0},
        {3, 24, 0, 1, 0, 1},  {25, 25, 0, 3, 1, 1},  {45, 23, 0, 1, 2, 1},
        {2, 46, 0, 2, 0, 2},  {23, 45, 0, 1, 1, 2},  {46, 46, 0, 1, 2, 2}};
    scene.draw_indexed(GL_TRIANGLES, grid, {0, 1, 3, 1, 4, 3, 4, 5, 7, 8, 7, 5, 2});
    set_tint(gl, prog, 0.5f, 1.0f, 0.7f, 1.0f);
    scene.draw_indexed(GL_TRIANGLE_STRIP, grid, {3, 6, 4, 7, 4, 8});
    scene.draw_indexed(GL_TRIANGLE_FAN, grid, {4, 1, 2, 5, 8});
    // Index 5000000 lies past the client array, so it reads the generic
    // attribute value; the span forces the sparse index path.
    scene.draw_indexed(GL_TRIANGLES, grid, {0, 5000000, 2, 6, 5000000, 8});
    set_tint(gl, prog, 1.0f, 1.0f, 0.2f, 1.0f);
    scene.draw(GL_POINTS, grid);
    scene.draw_indexed(GL_LINES, grid, {0, 8, 2, 6, 1, 7, 4});
  });
  EXPECT_EQ(hash, 0x17c315223624f5e3ull);
}

// The bytes the fragment stage stored before unorm_to_byte replaced it.
std::uint8_t lround_byte(float v) {
  return static_cast<std::uint8_t>(std::lround(std::clamp(v, 0.0f, 1.0f) * 255.0f));
}

TEST(RasterBatch, UnormToByteMatchesLroundOnEveryUnitFloat) {
  // Every float in [0, 1], by bit pattern: 0x00000000 (+0) to 0x3f800000 (1).
  std::uint64_t mismatches = 0;
  for (std::uint32_t bits = 0; bits <= 0x3f800000u; ++bits) {
    float v = 0.0f;
    std::memcpy(&v, &bits, sizeof(v));
    mismatches += unorm_to_byte(v) != lround_byte(v) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const float v : {std::numeric_limits<float>::quiet_NaN(),
                        -std::numeric_limits<float>::quiet_NaN(), kInf, -kInf,
                        -0.0f, -1e-30f, -0.5f, -1.0f, -3.0e38f, 1.0000001f,
                        2.0f, 3.0e38f, std::numeric_limits<float>::denorm_min()}) {
    EXPECT_EQ(unorm_to_byte(v), lround_byte(v)) << v;
  }
}

}  // namespace
}  // namespace gb::gles
